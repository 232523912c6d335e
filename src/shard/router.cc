#include "shard/router.h"

#include <algorithm>

#include "common/check.h"

namespace wimpy::shard {

Router::Router(const RingConfig& config, const std::vector<int>& node_ids)
    : ring_(config, node_ids) {
  const std::size_t shards = static_cast<std::size_t>(ring_.shards());
  serving_.resize(shards);
  migrating_.assign(shards, 0);
  dirty_.assign(shards, 0);
  for (int s = 0; s < ring_.shards(); ++s) SnapshotServing(s);
}

void Router::SnapshotServing(int shard) {
  ServingState& state = serving_[static_cast<std::size_t>(shard)];
  const std::vector<int>& pref = ring_.Preference(shard);
  state.length = std::min(ring_.chain_length(), kMaxChain);
  for (int i = 0; i < state.length; ++i) state.chain[i] = pref[i];
}

std::vector<Router::ShardMove> Router::PlanMoves() const {
  // A shard needs migration when its target chain contains a node its
  // serving chain does not: that node must receive the shard's data from
  // the serving primary before the cutover. Shards whose chain merely
  // reorders (primary demoted to replica, etc.) already hold the data and
  // commit without movement.
  std::vector<ShardMove> moves;
  for (int s = 0; s < ring_.shards(); ++s) {
    const Chain old_chain = ServingChain(s);
    const std::vector<int>& pref = ring_.Preference(s);
    const int new_len = std::min(ring_.chain_length(), kMaxChain);
    for (int i = 0; i < new_len; ++i) {
      const int member = pref[i];
      const bool held = std::find(old_chain.begin(), old_chain.end(),
                                  member) != old_chain.end();
      if (!held) {
        moves.push_back(ShardMove{s, old_chain.length > 0
                                         ? old_chain.nodes[0]
                                         : -1,
                                  member});
      }
    }
  }
  return moves;
}

void Router::MarkMigrating(const std::vector<ShardMove>& moves) {
  for (const ShardMove& move : moves) {
    std::uint8_t& flag = migrating_[static_cast<std::size_t>(move.shard)];
    if (flag == 0) {
      flag = 1;
      ++pending_;
    }
  }
  // Shards whose chain changed without data movement cut over right away.
  for (int s = 0; s < ring_.shards(); ++s) {
    if (migrating_[static_cast<std::size_t>(s)]) continue;
    SnapshotServing(s);
  }
}

std::vector<Router::ShardMove> Router::Join(int node_id) {
  Check(pending_ == 0, "shard::Router",
        "membership change while migration in flight");
  ring_.AddNode(node_id);
  std::vector<ShardMove> moves = PlanMoves();
  MarkMigrating(moves);
  return moves;
}

std::vector<Router::ShardMove> Router::Leave(int node_id) {
  Check(pending_ == 0, "shard::Router",
        "membership change while migration in flight");
  ring_.RemoveNode(node_id);
  std::vector<ShardMove> moves = PlanMoves();
  MarkMigrating(moves);
  return moves;
}

void Router::Commit(int shard) {
  std::uint8_t& flag = migrating_[static_cast<std::size_t>(shard)];
  Check(flag != 0, "shard::Router",
        "commit of a shard that is not migrating");
  flag = 0;
  --pending_;
  ++commits_;
  dirty_[static_cast<std::size_t>(shard)] = 0;
  SnapshotServing(shard);
}

std::int64_t Router::TakeDirty(int shard) {
  std::int64_t& counter = dirty_[static_cast<std::size_t>(shard)];
  const std::int64_t value = counter;
  counter = 0;
  return value;
}

}  // namespace wimpy::shard
