#include "hw/memory.h"

#include <cassert>

namespace wimpy::hw {

MemoryModel::MemoryModel(sim::Scheduler* sched, const MemorySpec& spec)
    : spec_(spec),
      bus_(sched, spec.peak_bandwidth, spec.per_thread_bandwidth),
      capacity_mb_(sched, ToMb(spec.total)) {}

std::int64_t MemoryModel::ToMb(Bytes bytes) {
  // Round up so tiny reservations still consume a grant.
  return (bytes + MB(1) - 1) / MB(1);
}

sim::Task<void> MemoryModel::Transfer(Bytes bytes) {
  co_await bus_.Serve(static_cast<double>(bytes));
}

bool MemoryModel::TryReserve(Bytes bytes) {
  const std::int64_t mb = ToMb(bytes);
  if (!capacity_mb_.TryAcquire(mb)) return false;
  used_ += mb * MB(1);
  return true;
}

void MemoryModel::Free(Bytes bytes) {
  const std::int64_t mb = ToMb(bytes);
  assert(used_ >= mb * MB(1));
  used_ -= mb * MB(1);
  capacity_mb_.Release(mb);
}

}  // namespace wimpy::hw
