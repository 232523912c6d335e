// Migration-aware shard router: the front end between clients and the
// sharded store tier.
//
// The router owns a `Ring` (the *target* map) plus a per-shard *serving*
// chain table. In steady state the two agree and every lookup is two flat
// array reads. A membership change (`Join`/`Leave`) rebuilds the ring and
// returns a migration plan — the set of (shard, from, to) data movements
// needed — but routing keeps answering from the old serving chains until
// the migrator calls `Commit(shard)` for each handed-off shard. That is
// the live-rebalancing contract: reads and writes keep flowing to the old
// owner for the whole copy + catch-up, and the cutover is a single
// simulated-instant table swap with zero failed requests.
//
// Writes that land on a migrating shard are counted (`OnWrite`) so the
// migrator can size its catch-up passes; `TakeDirty` reads-and-resets the
// counter per catch-up round.
#ifndef WIMPY_SHARD_ROUTER_H_
#define WIMPY_SHARD_ROUTER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "shard/ring.h"

namespace wimpy::shard {

// Upper bound on the serving-chain length the router snapshots (a chain
// replication factor beyond this is clamped by Ring::chain_length
// long before the array matters).
inline constexpr int kMaxChain = 8;

class Router {
 public:
  // One required data movement: `shard`'s contents stream from the old
  // primary `from` to the incoming owner `to`.
  struct ShardMove {
    int shard = -1;
    int from = -1;
    int to = -1;
  };

  // A view into the serving-chain table (primary first).
  struct Chain {
    const int* nodes = nullptr;
    int length = 0;
    const int* begin() const { return nodes; }
    const int* end() const { return nodes + length; }
  };

  // Builds the ring over `node_ids` and seeds the serving chains from it.
  Router(const RingConfig& config, const std::vector<int>& node_ids);

  // --- serve path (O(1), allocation-free) -------------------------------
  int ShardOf(std::uint64_t key_hash) const { return ring_.ShardOf(key_hash); }
  Chain ServingChain(int shard) const {
    const ServingState& s = serving_[static_cast<std::size_t>(shard)];
    return Chain{s.chain.data(), s.length};
  }
  int PrimaryOf(int shard) const {
    const ServingState& s = serving_[static_cast<std::size_t>(shard)];
    return s.length == 0 ? -1 : s.chain[0];
  }
  // Target-ring preference list (failover walk beyond the chain).
  const std::vector<int>& Preference(int shard) const {
    return ring_.Preference(shard);
  }

  // --- membership & migration lifecycle ---------------------------------
  // Adds/removes a node and returns the migration plan, ordered by shard.
  // Serving chains are untouched; each shard cuts over on Commit. A
  // leaving node must keep serving its shards until they commit (graceful
  // drain) — only `set_failed`-style crashes bypass the router. At most
  // one membership change may be in flight; a second one aborts in every
  // build, since it would re-plan over half-committed shards.
  std::vector<ShardMove> Join(int node_id);
  std::vector<ShardMove> Leave(int node_id);

  // Cutover: the shard's serving chain becomes the target ring's chain.
  // Committing a shard that is not migrating aborts in every build.
  void Commit(int shard);

  bool migrating(int shard) const {
    return migrating_[static_cast<std::size_t>(shard)] != 0;
  }
  int pending_migrations() const { return pending_; }
  const Ring& ring() const { return ring_; }

  // --- write tracking for catch-up --------------------------------------
  // Called by the store front end for every write routed to `shard`;
  // counts only while the shard is migrating.
  void OnWrite(int shard) {
    if (migrating_[static_cast<std::size_t>(shard)]) {
      ++dirty_[static_cast<std::size_t>(shard)];
    }
  }
  // Reads and resets the dirty-write counter.
  std::int64_t TakeDirty(int shard);

  // --- counters ----------------------------------------------------------
  std::int64_t commits() const { return commits_; }

 private:
  struct ServingState {
    std::array<int, kMaxChain> chain{};
    int length = 0;
  };

  void SnapshotServing(int shard);
  std::vector<ShardMove> PlanMoves() const;
  void MarkMigrating(const std::vector<ShardMove>& moves);

  Ring ring_;
  std::vector<ServingState> serving_;
  std::vector<std::uint8_t> migrating_;
  std::vector<std::int64_t> dirty_;
  int pending_ = 0;
  std::int64_t commits_ = 0;
};

}  // namespace wimpy::shard

#endif  // WIMPY_SHARD_ROUTER_H_
