#include "hw/nic.h"

#include <algorithm>
#include <cassert>

namespace wimpy::hw {

NicModel::NicModel(sim::Scheduler* sched, const NicSpec& spec)
    : spec_(spec),
      tx_(sched, spec.bandwidth, spec.bandwidth),
      rx_(sched, spec.bandwidth, spec.bandwidth) {
  assert(spec.bandwidth > 0);
}

double NicModel::busy_fraction() const {
  return std::max(tx_.busy_fraction(), rx_.busy_fraction());
}

}  // namespace wimpy::hw
