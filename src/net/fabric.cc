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
  assert(sched != nullptr);
}

int Fabric::InternGroup(const std::string& name) {
  const int found = FindGroup(name);
  if (found >= 0) return found;
  group_names_.push_back(name);
  const int id = static_cast<int>(group_names_.size()) - 1;
  RebuildLinkTables();  // G changed; tables are G×G
  return id;
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
  // Canonical pair order is lexicographic by NAME (not by interned id):
  // published gauge names and channel direction must not depend on the
  // order groups happened to be interned.
  const std::string& ka = a <= b ? a : b;
  const std::string& kb = a <= b ? b : a;
  const int ga = InternGroup(ka);
  const int gb = InternGroup(kb);
  GroupLink* link = FindLink(ga, gb);
  if (link == nullptr) {
    links_.push_back(std::make_unique<GroupLink>());
    link = links_.back().get();
    link->a = ga;
    link->b = gb;
  }
  link->forward = std::make_unique<sim::FairShareServer>(
      sched_, bandwidth, bandwidth, "link:" + a + ">" + b);
  link->backward = std::make_unique<sim::FairShareServer>(
      sched_, bandwidth, bandwidth, "link:" + b + ">" + a);
  link->latency = latency;
  RebuildLinkTables();
  // Links configured after PublishMetrics still get their gauge: the
  // closure reads through the stable GroupLink*, so a later SetGroupLink
  // replacing the channels is tracked automatically as well.
  PublishLink(link);
}

void Fabric::SetGroupPath(const std::string& a, const std::string& b,
                          const std::vector<std::string>& via) {
  Check(a != b, "a group path must join two distinct groups");
  Check(static_cast<int>(via.size()) + 1 <= kMaxPathHops,
        "group path exceeds kMaxPathHops hops");
  // Canonical orientation by name, like SetGroupLink: one stored route per
  // unordered pair, replayed into both table directions.
  std::vector<std::string> groups;
  groups.reserve(via.size() + 2);
  if (a <= b) {
    groups.push_back(a);
    groups.insert(groups.end(), via.begin(), via.end());
    groups.push_back(b);
  } else {
    groups.push_back(b);
    groups.insert(groups.end(), via.rbegin(), via.rend());
    groups.push_back(a);
  }
  for (const std::string& g : groups) InternGroup(g);
  for (GroupPath& path : paths_) {
    if (path.groups.front() == groups.front() &&
        path.groups.back() == groups.back()) {
      path.groups = std::move(groups);
      RebuildLinkTables();
      return;
    }
  }
  paths_.push_back(GroupPath{std::move(groups)});
  RebuildLinkTables();
}

Fabric::GroupLink* Fabric::FindLink(int a, int b) {
  for (auto& link : links_) {
    if ((link->a == a && link->b == b) || (link->a == b && link->b == a)) {
      return link.get();
    }
  }
  return nullptr;
}

const Fabric::GroupLink* Fabric::FindLink(int a, int b) const {
  return const_cast<Fabric*>(this)->FindLink(a, b);
}

void Fabric::RebuildLinkTables() {
  const std::size_t g = group_names_.size();
  channels_.assign(g * g, nullptr);
  link_latencies_.assign(g * g, 0);
  for (const auto& link : links_) {
    const std::size_t fwd = static_cast<std::size_t>(link->a) * g +
                            static_cast<std::size_t>(link->b);
    const std::size_t bwd = static_cast<std::size_t>(link->b) * g +
                            static_cast<std::size_t>(link->a);
    channels_[fwd] = link->forward.get();
    channels_[bwd] = link->backward.get();
    link_latencies_[fwd] = link->latency;
    link_latencies_[bwd] = link->latency;
  }
  // Resolve multi-hop routes against the fresh direct tables. Hops whose
  // link is not configured yet resolve to nseg == 0 (direct fallback) and
  // are re-resolved on the next rebuild — topology builders may declare
  // paths and links in any order.
  path_table_.assign(g * g, PathEntry{});
  for (const GroupPath& path : paths_) {
    PathEntry fwd;
    PathEntry bwd;
    bool complete = true;
    const int hops = static_cast<int>(path.groups.size()) - 1;
    for (int h = 0; h < hops; ++h) {
      const int x = FindGroup(path.groups[static_cast<std::size_t>(h)]);
      const int y = FindGroup(path.groups[static_cast<std::size_t>(h) + 1]);
      const std::size_t fi =
          static_cast<std::size_t>(x) * g + static_cast<std::size_t>(y);
      const std::size_t bi =
          static_cast<std::size_t>(y) * g + static_cast<std::size_t>(x);
      if (channels_[fi] == nullptr) {
        complete = false;
        break;
      }
      fwd.segs[static_cast<std::size_t>(fwd.nseg++)] = channels_[fi];
      fwd.latency += link_latencies_[fi];
      bwd.segs[static_cast<std::size_t>(hops - 1 - h)] = channels_[bi];
      ++bwd.nseg;
      bwd.latency += link_latencies_[bi];
    }
    if (!complete) continue;
    const int src = FindGroup(path.groups.front());
    const int dst = FindGroup(path.groups.back());
    path_table_[static_cast<std::size_t>(src) * g +
                static_cast<std::size_t>(dst)] = fwd;
    path_table_[static_cast<std::size_t>(dst) * g +
                static_cast<std::size_t>(src)] = bwd;
  }
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
  if (src.group != dst.group) {
    const std::size_t idx = static_cast<std::size_t>(src.group) *
                                group_names_.size() +
                            static_cast<std::size_t>(dst.group);
    latency += path_table_[idx].nseg > 0 ? path_table_[idx].latency
                                         : link_latencies_[idx];
  }
  return latency;
}

int Fabric::Segments(int src_id, int dst_id, SegmentList& out) const {
  const Endpoint& src = Lookup(src_id);
  const Endpoint& dst = Lookup(dst_id);
  int n = 0;
  out[static_cast<std::size_t>(n++)] = &src.node->nic().tx();
  if (src.group != dst.group) {
    const std::size_t idx =
        static_cast<std::size_t>(src.group) * group_names_.size() +
        static_cast<std::size_t>(dst.group);
    const PathEntry& path = path_table_[idx];
    if (path.nseg > 0) {
      for (int i = 0; i < path.nseg; ++i) {
        out[static_cast<std::size_t>(n++)] = path.segs[i];
      }
    } else if (channels_[idx] != nullptr) {
      out[static_cast<std::size_t>(n++)] = channels_[idx];
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
  return std::max(link->forward->AverageBusyFraction(),
                  link->backward->AverageBusyFraction());
}

void Fabric::PublishLink(GroupLink* link) {
  if (metrics_registry_ == nullptr || link->published) return;
  link->published = true;
  // The closure reads through the stable GroupLink*, so a later
  // SetGroupLink that replaces the channel servers is tracked without
  // re-registration.
  metrics_registry_->Add(
      metrics_prefix_ + ".link." + group_names_[link->a] + "-" +
          group_names_[link->b],
      [link] {
        return std::max(link->forward->busy_fraction(),
                        link->backward->busy_fraction());
      });
}

void Fabric::PublishMetrics(obs::MetricsRegistry* registry,
                            const std::string& prefix) {
  metrics_registry_ = registry;
  metrics_prefix_ = prefix;
  // Probe registration order (and therefore CSV column order) must stay
  // deterministic and name-sorted, exactly as when links_ was an ordered
  // map keyed by name pair. Links configured after this call append in
  // SetGroupLink order (see PublishLink).
  std::vector<GroupLink*> sorted;
  sorted.reserve(links_.size());
  for (const auto& link : links_) sorted.push_back(link.get());
  std::sort(sorted.begin(), sorted.end(),
            [this](const GroupLink* x, const GroupLink* y) {
              const std::string& xa = group_names_[x->a];
              const std::string& ya = group_names_[y->a];
              if (xa != ya) return xa < ya;
              return group_names_[x->b] < group_names_[y->b];
            });
  for (GroupLink* l : sorted) PublishLink(l);
}

}  // namespace wimpy::net
