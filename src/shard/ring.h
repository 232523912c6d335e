// Consistent-hash ring with virtual nodes and an O(1) id-indexed shard
// map (the scale-out router the ROADMAP's million-user item calls for).
//
// The key space is split into a fixed power-of-two number of *shards*;
// each shard is owned by a chain of R distinct nodes (primary first — the
// FAWN / Dynamo preference-list idea). Ownership is decided by a classic
// ketama ring: every node contributes `vnodes_per_node` points hashed
// from (salt, node, replica-index); a shard's owners are the first R
// distinct nodes met walking the ring clockwise from the shard's start
// position. The serve path never touches the ring itself: `ShardOf` is a
// single shift and `Preference`/`Chain` are flat-table lookups, in the
// style of the lean model layer (docs/scale.md) — no hashing of strings,
// no tree walks, no allocation.
//
// Determinism: the whole map is a pure function of (config, member set).
// Insertion order never matters, so the same seed and node set produce a
// byte-identical shard map at any --threads (pinned by
// tests/shard_ring_test.cc). Membership churn moves only the shards whose
// owners actually change — about K/N of them for one node joining or
// leaving a cluster of N (the consistent-hashing contract).
#ifndef WIMPY_SHARD_RING_H_
#define WIMPY_SHARD_RING_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace wimpy::shard {

struct RingConfig {
  // Virtual points per node; more points = smoother shard balance.
  int vnodes_per_node = 64;
  // Number of shards (fixed key-space partitions). Must be a power of
  // two so ShardOf is a shift.
  int shards = 256;
  // Owner-chain length R (chain replication factor). Clamped to the
  // member count when the ring is smaller.
  int replication = 1;
  // Hash salt: rings built with different salts place nodes differently
  // (an experiment seed can feed this without touching any Rng stream).
  std::uint64_t salt = 0x5EED5A17ULL;
};

// Ids 0..n-1: the member set of a ring over a dense tier (store or cache
// indices).
std::vector<int> DenseIds(int n);

class Ring {
 public:
  // The config's geometry is checked in every build type: a
  // non-power-of-two `shards`, `vnodes_per_node <= 0` or
  // `replication < 1` aborts with a message.
  explicit Ring(const RingConfig& config);
  // Bulk constructor: the ring over `node_ids` (any order), built with a
  // single rebuild. Equal to adding the ids one by one; duplicate or
  // negative ids abort.
  Ring(const RingConfig& config, const std::vector<int>& node_ids);

  // Membership (live join and leave). Node ids are small dense
  // application-level indices (e.g. positions in a store vector). Each
  // call rebuilds the whole map; adding an existing node or removing an
  // absent one aborts.
  void AddNode(int node_id);
  void RemoveNode(int node_id);
  bool has_node(int node_id) const;
  int node_count() const { return static_cast<int>(members_.size()); }
  // Sorted member ids.
  const std::vector<int>& members() const { return members_; }

  int shards() const { return config_.shards; }
  int replication() const { return config_.replication; }
  // Effective owner-chain length: min(replication, node_count).
  int chain_length() const;
  const RingConfig& config() const { return config_; }

  // O(1): top log2(shards) bits of the key hash.
  int ShardOf(std::uint64_t key_hash) const {
    return static_cast<int>(key_hash >> shift_);
  }

  // Full preference list for a shard: every member, in ring order from
  // the shard's position. Entry 0 is the primary; the first
  // chain_length() entries are the owner chain; the tail is the failover
  // order. Empty when the ring has no members.
  const std::vector<int>& Preference(int shard) const {
    return prefs_[static_cast<std::size_t>(shard)];
  }
  // Primary owner, or -1 on an empty ring.
  int PrimaryOf(int shard) const {
    const auto& pref = Preference(shard);
    return pref.empty() ? -1 : pref[0];
  }

  // Shards whose primary owner differs between two rings of identical
  // geometry (the key-movement measure the churn test pins).
  static std::vector<int> MovedPrimaries(const Ring& before,
                                         const Ring& after);

 private:
  void Rebuild();

  RingConfig config_;
  int shift_;                  // 64 - log2(shards)
  std::vector<int> members_;   // sorted
  // (point hash, node) sorted by hash — rebuilt on membership change.
  std::vector<std::pair<std::uint64_t, int>> points_;
  // [shard] -> distinct members in ring order (flat, serve-path table).
  std::vector<std::vector<int>> prefs_;
};

}  // namespace wimpy::shard

#endif  // WIMPY_SHARD_RING_H_
