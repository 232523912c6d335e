#include "hw/storage.h"

#include <cassert>

namespace wimpy::hw {

StorageDevice::StorageDevice(sim::Scheduler* sched, const StorageSpec& spec)
    : sched_(sched), spec_(spec), channel_(sched, 1.0, 1.0) {
  assert(spec.write_direct > 0 && spec.write_buffered > 0);
  assert(spec.read_direct > 0 && spec.read_buffered > 0);
}

BytesPerSecond StorageDevice::Rate(bool write, bool buffered) const {
  if (write) return buffered ? spec_.write_buffered : spec_.write_direct;
  return buffered ? spec_.read_buffered : spec_.read_direct;
}

Duration StorageDevice::IdealTime(Bytes bytes, bool write,
                                  bool buffered) const {
  return static_cast<double>(bytes) / Rate(write, buffered);
}

sim::Task<void> StorageDevice::Read(Bytes bytes, bool buffered) {
  bytes_read_ += bytes;
  co_await channel_.Serve(IdealTime(bytes, /*write=*/false, buffered));
}

sim::Task<void> StorageDevice::Write(Bytes bytes, bool buffered) {
  bytes_written_ += bytes;
  co_await channel_.Serve(IdealTime(bytes, /*write=*/true, buffered));
}

sim::Task<void> StorageDevice::RandomRead(Bytes bytes) {
  bytes_read_ += bytes;
  const Duration demand =
      spec_.read_latency + IdealTime(bytes, /*write=*/false,
                                     /*buffered=*/false);
  co_await channel_.Serve(demand);
}

sim::Task<void> StorageDevice::RandomWrite(Bytes bytes) {
  bytes_written_ += bytes;
  const Duration demand =
      spec_.write_latency + IdealTime(bytes, /*write=*/true,
                                      /*buffered=*/false);
  co_await channel_.Serve(demand);
}

}  // namespace wimpy::hw
