// Memory model: capacity grants plus a shared-bandwidth bus.
//
// Capacity is a semaphore in megabytes — long-lived reservations such as
// YARN containers, memcached slabs and OS baseline usage acquire grants.
// Bandwidth is a fair-share server calibrated to the sysbench saturation
// behaviour of Section 4.2 (per-thread rate below saturation, shared peak
// beyond it).
#ifndef WIMPY_HW_MEMORY_H_
#define WIMPY_HW_MEMORY_H_

#include "hw/profile.h"
#include "sim/fair_share.h"
#include "sim/semaphore.h"
#include "sim/task.h"

namespace wimpy::hw {

class MemoryModel {
 public:
  MemoryModel(sim::Scheduler* sched, const MemorySpec& spec);

  MemoryModel(const MemoryModel&) = delete;
  MemoryModel& operator=(const MemoryModel&) = delete;

  // Streams `bytes` through the memory bus (sysbench memory semantics).
  sim::Task<void> Transfer(Bytes bytes);

  // Capacity grants, in whole megabytes; false when not available.
  bool TryReserve(Bytes bytes);
  void Free(Bytes bytes);

  Bytes total() const { return spec_.total; }
  Bytes used() const { return used_; }
  double used_fraction() const {
    return spec_.total == 0
               ? 0.0
               : static_cast<double>(used_) / static_cast<double>(spec_.total);
  }
  double bus_busy_fraction() const { return bus_.busy_fraction(); }

  const MemorySpec& spec() const { return spec_; }
  sim::FairShareServer& bus() { return bus_; }

 private:
  static std::int64_t ToMb(Bytes bytes);

  MemorySpec spec_;
  sim::FairShareServer bus_;
  sim::Semaphore capacity_mb_;
  Bytes used_ = 0;
};

}  // namespace wimpy::hw

#endif  // WIMPY_HW_MEMORY_H_
