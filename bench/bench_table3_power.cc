// Reproduces paper Table 3: idle and busy power of Edison and Dell nodes
// and clusters. The "measured" columns run the simulated nodes idle and
// fully loaded and integrate the power model — verifying that cluster
// energy accounting reproduces the paper's endpoints.
#include <cstdio>

#include "cluster/cluster.h"
#include "common/table.h"
#include "hw/profiles.h"
#include "sim/process.h"

namespace {

using wimpy::TextTable;
namespace hw = wimpy::hw;
namespace sim = wimpy::sim;

wimpy::sim::Process Saturate(hw::ServerNode* node, double seconds) {
  // One task per hardware thread.
  const int threads = node->cpu().vcores();
  const double minstr_per_thread =
      node->cpu().spec().dmips_per_thread * seconds;
  std::vector<sim::ProcessRef> refs;
  auto burn = [](hw::ServerNode* n, double w) -> sim::Process {
    co_await n->Compute(w);
  };
  for (int t = 0; t < threads; ++t) {
    refs.push_back(sim::SpawnJoinable(node->scheduler(),
                                      burn(node, minstr_per_thread)));
  }
  for (auto& ref : refs) co_await ref.Join();
}

// Measures simulated idle and busy power for `count` nodes of `profile`.
std::pair<double, double> MeasureCluster(const hw::HardwareProfile& profile,
                                         int count) {
  sim::Scheduler sched;
  wimpy::net::Fabric fabric(&sched);
  wimpy::cluster::Cluster cluster(&sched, &fabric);
  auto nodes = cluster.AddNodes(profile, count, "n", "room");
  // Idle for 10 s.
  sched.ScheduleAt(10.0, [] {});
  sched.Run();
  const double idle_joules = cluster.CumulativeJoules();
  // Busy for 10 s.
  for (auto* node : nodes) sim::Spawn(sched, Saturate(node, 10.0));
  sched.Run();
  const double busy_joules = cluster.CumulativeJoules() - idle_joules;
  return {idle_joules / 10.0, busy_joules / 10.0};
}

}  // namespace

int main() {
  const auto edison = hw::EdisonProfile();
  const auto dell = hw::DellR620Profile();

  TextTable table("Table 3: Power consumption of Edison and Dell servers");
  table.SetHeader({"Server state", "Idle (paper)", "Busy (paper)",
                   "Idle (sim)", "Busy (sim)"});

  auto add = [&](const std::string& label, const hw::HardwareProfile& p,
                 int count, double paper_idle, double paper_busy) {
    auto [idle, busy] = MeasureCluster(p, count);
    table.AddRow({label, TextTable::Num(paper_idle, 2) + "W",
                  TextTable::Num(paper_busy, 2) + "W",
                  TextTable::Num(idle, 2) + "W",
                  TextTable::Num(busy, 2) + "W"});
  };

  std::printf(
      "Note: busy(sim) drives the CPU only, so it reaches idle + "
      "cpu_weight*(busy-idle); the paper's 'busy' is an all-components "
      "envelope.\n\n");
  add("1 Edison with Ethernet adaptor", edison, 1, 1.40, 1.68);
  add("Edison cluster of 35 nodes", edison, 35, 49.0, 58.8);
  add("1 Dell server", dell, 1, 52.0, 109.0);
  add("Dell cluster of 3 nodes", dell, 3, 156.0, 327.0);
  table.Print();

  std::printf(
      "\n1 Edison without Ethernet adaptor (paper): 0.36W idle / 0.75W "
      "busy; the USB adaptor draws ~%.1fW constant and is included in all "
      "rows above, as in the paper.\n",
      edison.power.constant_adapter);
  return 0;
}
