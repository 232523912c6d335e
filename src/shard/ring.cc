#include "shard/ring.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace wimpy::shard {

namespace {

// splitmix64 finalizer: well-mixed, dependency-free, stable across
// platforms (the same mixer the Rng seeder uses).
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t PointHash(std::uint64_t salt, int node, int replica) {
  return Mix64(salt ^ Mix64(static_cast<std::uint64_t>(node) *
                                0x100000001b3ULL +
                            static_cast<std::uint64_t>(replica)));
}

bool IsPowerOfTwo(int n) { return n > 0 && (n & (n - 1)) == 0; }

// A broken ring geometry or member set would silently corrupt every
// shard lookup (ShardOf indexes past the table).
void Check(bool ok, const char* what) {
  wimpy::Check(ok, "shard::Ring", what);
}

}  // namespace

std::vector<int> DenseIds(int n) {
  std::vector<int> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

Ring::Ring(const RingConfig& config) : config_(config) {
  Check(config_.vnodes_per_node > 0, "vnodes_per_node must be > 0");
  Check(IsPowerOfTwo(config_.shards), "shards must be a power of two");
  Check(config_.replication >= 1, "replication must be >= 1");
  int log2 = 0;
  while ((1 << log2) < config_.shards) ++log2;
  shift_ = 64 - log2;
  prefs_.assign(static_cast<std::size_t>(config_.shards), {});
}

Ring::Ring(const RingConfig& config, const std::vector<int>& node_ids)
    : Ring(config) {
  members_ = node_ids;
  std::sort(members_.begin(), members_.end());
  Check(members_.empty() || members_.front() >= 0,
        "node ids must be >= 0");
  Check(std::adjacent_find(members_.begin(), members_.end()) ==
            members_.end(),
        "duplicate node id");
  Rebuild();
}

bool Ring::has_node(int node_id) const {
  return std::binary_search(members_.begin(), members_.end(), node_id);
}

void Ring::AddNode(int node_id) {
  Check(node_id >= 0, "node ids must be >= 0");
  Check(!has_node(node_id), "node already on the ring");
  members_.insert(
      std::lower_bound(members_.begin(), members_.end(), node_id), node_id);
  Rebuild();
}

void Ring::RemoveNode(int node_id) {
  Check(has_node(node_id), "node not on the ring");
  members_.erase(
      std::lower_bound(members_.begin(), members_.end(), node_id));
  Rebuild();
}

int Ring::chain_length() const {
  return std::min(config_.replication, node_count());
}

void Ring::Rebuild() {
  points_.clear();
  points_.reserve(members_.size() *
                  static_cast<std::size_t>(config_.vnodes_per_node));
  for (int node : members_) {
    for (int r = 0; r < config_.vnodes_per_node; ++r) {
      points_.emplace_back(PointHash(config_.salt, node, r), node);
    }
  }
  // Sort by (hash, node): the node tiebreak makes the map independent of
  // insertion order even on (astronomically unlikely) hash collisions.
  std::sort(points_.begin(), points_.end());

  const int max_id = members_.empty() ? 0 : members_.back() + 1;
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(max_id), 0);
  for (int s = 0; s < config_.shards; ++s) {
    std::vector<int>& pref = prefs_[static_cast<std::size_t>(s)];
    pref.clear();
    if (members_.empty()) continue;
    pref.reserve(members_.size());
    std::fill(seen.begin(), seen.end(), 0);
    const std::uint64_t position = static_cast<std::uint64_t>(s) << shift_;
    std::size_t idx =
        static_cast<std::size_t>(
            std::lower_bound(points_.begin(), points_.end(),
                             std::make_pair(position, -1)) -
            points_.begin());
    for (std::size_t walked = 0;
         walked < points_.size() && pref.size() < members_.size();
         ++walked, ++idx) {
      if (idx == points_.size()) idx = 0;  // wrap
      const int node = points_[idx].second;
      if (seen[static_cast<std::size_t>(node)]) continue;
      seen[static_cast<std::size_t>(node)] = 1;
      pref.push_back(node);
    }
  }
}

std::vector<int> Ring::MovedPrimaries(const Ring& before, const Ring& after) {
  Check(before.shards() == after.shards(), "rings differ in shard count");
  std::vector<int> moved;
  for (int s = 0; s < before.shards(); ++s) {
    if (before.PrimaryOf(s) != after.PrimaryOf(s)) moved.push_back(s);
  }
  return moved;
}

}  // namespace wimpy::shard
