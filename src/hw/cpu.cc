#include "hw/cpu.h"

namespace wimpy::hw {

CpuModel::CpuModel(sim::Scheduler* sched, const CpuSpec& spec)
    : spec_(spec),
      server_(sched, spec.total_dmips(), spec.dmips_per_thread) {}

sim::Task<void> CpuModel::Execute(double minstr) {
  co_await server_.Serve(minstr);
}

}  // namespace wimpy::hw
