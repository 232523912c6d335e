#include "kv/store.h"

namespace wimpy::kv {

namespace {
constexpr Bytes kRequestHopBytes = 64;  // key + header
constexpr Bytes kAckBytes = 32;
constexpr double kGetCpuMinstr = 0.06;  // hash + index probe + reply build
constexpr double kPutCpuMinstr = 0.10;  // hash + log append bookkeeping
// Fraction of node RAM reserved for index + cache at startup.
constexpr double kRamFootprintFraction = 0.5;
}  // namespace

KvNode::KvNode(hw::ServerNode* node, net::Fabric* fabric,
               const KvConfig& config, std::uint64_t seed)
    : node_(node), fabric_(fabric), config_(config), rng_(seed) {
  node_->memory().TryReserve(static_cast<Bytes>(
      kRamFootprintFraction *
      static_cast<double>(node_->memory().total())));
}

sim::Task<void> KvNode::Get(int client_node, Bytes value_bytes,
                            obs::TraceHandle trace) {
  ++gets_;
  co_await fabric_->Transfer(client_node, node_->id(), kRequestHopBytes,
                             trace, "req_hop");
  co_await node_->cpu().Execute(kGetCpuMinstr);
  if (rng_.Bernoulli(config_.ram_hit_ratio)) {
    co_await node_->memory().Transfer(value_bytes);
  } else {
    co_await node_->storage().RandomRead(value_bytes);
  }
  co_await fabric_->Transfer(node_->id(), client_node, value_bytes, trace,
                             "reply_hop");
}

sim::Task<void> KvNode::ApplyReplicatedWrite(int upstream_node,
                                             Bytes value_bytes,
                                             obs::TraceHandle trace) {
  co_await fabric_->Transfer(upstream_node, node_->id(), value_bytes,
                             trace, "repl_hop");
  co_await node_->cpu().Execute(kPutCpuMinstr);
  co_await node_->storage().Write(value_bytes, /*buffered=*/true);
}

sim::Task<void> KvNode::Put(int client_node, Bytes value_bytes,
                            obs::TraceHandle trace) {
  ++puts_;
  co_await fabric_->Transfer(client_node, node_->id(),
                             kRequestHopBytes + value_bytes, trace,
                             "req_hop");
  co_await node_->cpu().Execute(kPutCpuMinstr);
  // Log-structured append: sequential, page-cache absorbed.
  co_await node_->storage().Write(value_bytes, /*buffered=*/true);
  co_await fabric_->Transfer(node_->id(), client_node, kAckBytes, trace,
                             "ack_hop");
}

}  // namespace wimpy::kv
