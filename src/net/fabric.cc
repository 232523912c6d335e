#include "net/fabric.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace wimpy::net {

namespace {

// Loopback cost: in-kernel copy, effectively instant at this fidelity.
constexpr Duration kLoopbackLatency = Microseconds(20);

// Topology-build checks run in every build type: a bad id resizes or
// overwrites the endpoint table, a bad rate or path corrupts every
// transfer that crosses it. (The per-transfer Lookup stays an assert.)
void Check(bool ok, const char* what) {
  wimpy::Check(ok, "net::Fabric", what);
}

}  // namespace

Fabric::Fabric(sim::Scheduler* sched) : sched_(sched) {
  Check(sched != nullptr, "scheduler must not be null");
}

int Fabric::InternGroup(const std::string& name) {
  const int found = FindGroup(name);
  if (found >= 0) return found;
  // Re-stride the G×G route table for one more group; every declared
  // route keeps its (src, dst) ids.
  const std::size_t old_g = group_names_.size();
  const std::size_t g = old_g + 1;
  std::vector<Route> routes(g * g);
  for (std::size_t src = 0; src < old_g; ++src) {
    std::copy_n(routes_.begin() + static_cast<std::ptrdiff_t>(src * old_g),
                old_g,
                routes.begin() + static_cast<std::ptrdiff_t>(src * g));
  }
  routes_ = std::move(routes);
  group_names_.push_back(name);
  return static_cast<int>(old_g);
}

int Fabric::FindGroup(const std::string& name) const {
  // Linear scan: a fabric has a handful of rooms/racks, and this only runs
  // at topology-build time or in cold query paths.
  for (std::size_t i = 0; i < group_names_.size(); ++i) {
    if (group_names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void Fabric::AddNode(hw::ServerNode* node, const std::string& group) {
  Check(node != nullptr, "node must not be null");
  const int id = node->id();
  Check(id >= 0, "node ids must be non-negative");
  if (static_cast<std::size_t>(id) >= endpoints_.size()) {
    endpoints_.resize(static_cast<std::size_t>(id) + 1);
  }
  Check(endpoints_[static_cast<std::size_t>(id)].node == nullptr,
        "duplicate node id");
  endpoints_[static_cast<std::size_t>(id)] =
      Endpoint{node, InternGroup(group)};
}

void Fabric::SetGroupLink(const std::string& a, const std::string& b,
                          BytesPerSecond bandwidth, Duration latency) {
  Check(bandwidth > 0, "group link bandwidth must be > 0");
  Check(a != b, "a group link must join two distinct groups");
  Check(!published_, "group link added after PublishMetrics");
  // Canonical pair order is lexicographic by NAME (not by interned id):
  // published gauge names and channel direction must not depend on the
  // order groups happened to be interned.
  const std::string& ka = a <= b ? a : b;
  const std::string& kb = a <= b ? b : a;
  const int ga = InternGroup(ka);
  const int gb = InternGroup(kb);
  Check(RouteOf(ga, gb).nseg == 0, "group pair routed twice");
  GroupLink& link = links_.emplace_back(sched_, ga, gb, bandwidth);
  RouteOf(ga, gb) = Route{{&link.forward}, 1, latency};
  RouteOf(gb, ga) = Route{{&link.backward}, 1, latency};
}

void Fabric::SetGroupPath(const std::string& a, const std::string& b,
                          const std::vector<std::string>& via) {
  Check(a != b, "a group path must join two distinct groups");
  Check(static_cast<int>(via.size()) + 1 <= kMaxPathHops,
        "group path exceeds kMaxPathHops hops");
  // Canonical orientation by name, like SetGroupLink: both directions sum
  // the hop latencies in the same order, so they agree bit for bit.
  std::array<int, kMaxPathHops + 1> groups{};
  int n = 0;
  const bool flip = b < a;
  groups[static_cast<std::size_t>(n++)] = FindGroup(flip ? b : a);
  for (std::size_t i = 0; i < via.size(); ++i) {
    groups[static_cast<std::size_t>(n++)] =
        FindGroup(via[flip ? via.size() - 1 - i : i]);
  }
  groups[static_cast<std::size_t>(n++)] = FindGroup(flip ? a : b);

  const int hops = n - 1;
  Route fwd;
  Route bwd;
  for (int h = 0; h < hops; ++h) {
    const int x = groups[static_cast<std::size_t>(h)];
    const int y = groups[static_cast<std::size_t>(h) + 1];
    Check(x >= 0 && y >= 0 && FindLink(x, y) != nullptr,
          "group path hop has no link");
    const Route& hop = RouteOf(x, y);
    const Route& back = RouteOf(y, x);
    fwd.segs[static_cast<std::size_t>(fwd.nseg++)] = hop.segs[0];
    fwd.latency += hop.latency;
    bwd.segs[static_cast<std::size_t>(hops - 1 - h)] = back.segs[0];
    ++bwd.nseg;
    bwd.latency += back.latency;
  }
  const int src = groups[0];
  const int dst = groups[static_cast<std::size_t>(hops)];
  Check(RouteOf(src, dst).nseg == 0, "group pair routed twice");
  RouteOf(src, dst) = fwd;
  RouteOf(dst, src) = bwd;
}

const Fabric::GroupLink* Fabric::FindLink(int a, int b) const {
  for (const GroupLink& link : links_) {
    if ((link.a == a && link.b == b) || (link.a == b && link.b == a)) {
      return &link;
    }
  }
  return nullptr;
}

bool Fabric::HasNode(int node_id) const {
  return node_id >= 0 &&
         static_cast<std::size_t>(node_id) < endpoints_.size() &&
         endpoints_[static_cast<std::size_t>(node_id)].node != nullptr;
}

const Fabric::Endpoint& Fabric::Lookup(int node_id) const {
  assert(HasNode(node_id) && "node not registered in fabric");
  return endpoints_[static_cast<std::size_t>(node_id)];
}

int Fabric::GroupIdOf(int node_id) const { return Lookup(node_id).group; }

Duration Fabric::Latency(int src_id, int dst_id) const {
  if (src_id == dst_id) return kLoopbackLatency;
  const Endpoint& src = Lookup(src_id);
  const Endpoint& dst = Lookup(dst_id);
  Duration latency = src.node->nic().endpoint_latency() +
                     dst.node->nic().endpoint_latency();
  if (src.group != dst.group) latency += RouteOf(src.group, dst.group).latency;
  return latency;
}

int Fabric::Segments(int src_id, int dst_id, SegmentList& out) const {
  const Endpoint& src = Lookup(src_id);
  const Endpoint& dst = Lookup(dst_id);
  int n = 0;
  out[static_cast<std::size_t>(n++)] = &src.node->nic().tx();
  if (src.group != dst.group) {
    const Route& route = RouteOf(src.group, dst.group);
    for (int i = 0; i < route.nseg; ++i) {
      out[static_cast<std::size_t>(n++)] =
          route.segs[static_cast<std::size_t>(i)];
    }
  }
  out[static_cast<std::size_t>(n++)] = &dst.node->nic().rx();
  return n;
}

Fabric::TransferOp Fabric::Transfer(int src_id, int dst_id, Bytes bytes) {
  return TransferOp(this, src_id, dst_id, bytes, nullptr, nullptr);
}

Fabric::TransferOp Fabric::Transfer(int src_id, int dst_id, Bytes bytes,
                                    const obs::TraceHandle& trace,
                                    const char* name) {
  return TransferOp(this, src_id, dst_id, bytes, trace ? &trace : nullptr,
                    name);
}

bool Fabric::TransferOp::await_suspend(std::coroutine_handle<> caller) {
  if (trace_ != nullptr) {
    span_ = obs::CausalSpan(*trace_, name_, obs::Category::kNet, bytes_);
  }
  if (bytes_ <= 0) return false;
  sim::Scheduler& sched = *fabric_->sched_;
  if (src_id_ == dst_id_) {
    sched.ScheduleAfter(kLoopbackLatency, [caller] { caller.resume(); });
    return true;
  }
  const Endpoint& src = fabric_->Lookup(src_id_);
  const Endpoint& dst = fabric_->Lookup(dst_id_);
  src.node->nic().AddBytesSent(bytes_);
  dst.node->nic().AddBytesReceived(bytes_);
  sched.ScheduleAfter(fabric_->Latency(src_id_, dst_id_),
                      [this, caller] { Join(caller); });
  return true;
}

void Fabric::TransferOp::Join(std::coroutine_handle<> caller) {
  // The flow occupies every segment concurrently; it completes when the
  // slowest segment has pumped all bytes. This approximates min-rate
  // fair-shared flows without per-chunk simulation. The countdown lives
  // here, in the awaiting frame, so the join allocates nothing.
  SegmentList segments;
  const int n = fabric_->Segments(src_id_, dst_id_, segments);
  remaining_ = static_cast<std::uint32_t>(n);
  for (int i = 0; i < n; ++i) {
    segments[static_cast<std::size_t>(i)]->ServeJoined(
        static_cast<double>(bytes_), &remaining_, caller);
  }
}

sim::Task<void> Fabric::RoundTrip(int src_id, int dst_id) {
  co_await sim::Delay(*sched_, Rtt(src_id, dst_id));
}

double Fabric::GroupLinkAverageBusyFraction(const std::string& a,
                                            const std::string& b) const {
  const int ga = FindGroup(a);
  const int gb = FindGroup(b);
  if (ga < 0 || gb < 0) return 0.0;
  const GroupLink* link = FindLink(ga, gb);
  if (link == nullptr) return 0.0;
  return std::max(link->forward.AverageBusyFraction(),
                  link->backward.AverageBusyFraction());
}

void Fabric::PublishMetrics(obs::MetricsRegistry* registry,
                            const std::string& prefix) {
  published_ = true;
  // Probe registration order (and therefore CSV column order) is
  // name-sorted, so it does not depend on the order links were declared.
  std::vector<const GroupLink*> sorted;
  sorted.reserve(links_.size());
  for (const GroupLink& link : links_) sorted.push_back(&link);
  std::sort(sorted.begin(), sorted.end(),
            [this](const GroupLink* x, const GroupLink* y) {
              const std::string& xa = group_names_[x->a];
              const std::string& ya = group_names_[y->a];
              if (xa != ya) return xa < ya;
              return group_names_[x->b] < group_names_[y->b];
            });
  for (const GroupLink* link : sorted) {
    registry->Add(prefix + ".link." + group_names_[link->a] + "-" +
                      group_names_[link->b],
                  [link] {
                    return std::max(link->forward.busy_fraction(),
                                    link->backward.busy_fraction());
                  });
  }
}

}  // namespace wimpy::net
