// Reproduces paper §4.4: iperf-style 1 GB transfers and ping latencies for
// the three node pairs (Dell<->Dell, Dell<->Edison, Edison<->Edison) over
// the simulated fabric.
#include <cstdio>
#include <memory>
#include <vector>

#include "common/table.h"
#include "hw/profiles.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "sim/process.h"

namespace {

namespace sim = wimpy::sim;
namespace hw = wimpy::hw;
namespace net = wimpy::net;
using wimpy::TextTable;

struct PairResult {
  double rate_mbps = 0;
  double latency_ms = 0;
};

PairResult Measure(bool src_dell, bool dst_dell) {
  sim::Scheduler sched;
  net::Fabric fabric(&sched);
  std::vector<std::unique_ptr<hw::ServerNode>> nodes;
  auto add = [&](bool dell, int id) {
    nodes.push_back(std::make_unique<hw::ServerNode>(
        &sched, dell ? hw::DellR620Profile() : hw::EdisonProfile(), id));
    fabric.AddNode(nodes.back().get(), dell ? "dell-room" : "edison-room");
    return nodes.back().get();
  };
  auto* src = add(src_dell, 0);
  auto* dst = add(dst_dell, 1);
  net::HierarchicalTopology rooms(&fabric,
                                  {.racks = 1, .rack_name = "edison-room"});
  rooms.AttachToCore("dell-room", net::kEdisonDellLink);

  double done_at = -1;
  auto xfer = [&]() -> sim::Process {
    co_await fabric.Transfer(src->id(), dst->id(), wimpy::GB(1));
    done_at = sched.now();
  };
  sim::Spawn(sched, xfer());
  sched.Run();

  PairResult result;
  result.rate_mbps = wimpy::ToMbps(static_cast<double>(wimpy::GB(1)) /
                                   done_at);
  result.latency_ms =
      wimpy::ToMilliseconds(fabric.Latency(src->id(), dst->id()));
  return result;
}

}  // namespace

int main() {
  TextTable table("Section 4.4: network throughput and latency");
  table.SetHeader({"Pair", "1 GB transfer", "Paper (TCP)", "Ping",
                   "Paper ping"});

  struct Case {
    const char* name;
    bool a_dell, b_dell;
    const char* paper_rate;
    const char* paper_ping;
  };
  const Case cases[] = {
      {"Dell -> Dell", true, true, "942 Mbit/s", "0.24 ms"},
      {"Dell -> Edison", true, false, "93.9 Mbit/s", "0.8 ms"},
      {"Edison -> Edison", false, false, "93.9 Mbit/s", "1.3 ms"},
  };
  for (const auto& c : cases) {
    const PairResult r = Measure(c.a_dell, c.b_dell);
    table.AddRow({c.name, TextTable::Num(r.rate_mbps, 1) + " Mbit/s",
                  c.paper_rate, TextTable::Num(r.latency_ms, 2) + " ms",
                  c.paper_ping});
  }
  table.Print();
  std::printf(
      "\nShape: any path touching an Edison NIC caps at ~100 Mbit/s (a\n"
      "10x gap), and Edison<->Edison latency is ~5x the Dell rack's.\n");
  return 0;
}
