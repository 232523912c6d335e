// Consistent-hash ring properties (shard/ring.h): map determinism and
// insertion-order independence (the "same seed + same node set =>
// byte-identical shard map" contract, for AddNode one by one and for the
// bulk constructor alike), ownership invariants, the consistent-hashing
// churn bound — one node joining or leaving an N-node ring moves only
// ~K/N of the K shards — and the always-on geometry/membership checks.
#include "shard/ring.h"

#include <algorithm>
#include <set>
#include <vector>

#include "gtest/gtest.h"

namespace wimpy::shard {
namespace {

Ring MakeRing(const RingConfig& config, const std::vector<int>& nodes) {
  Ring ring(config);
  for (int n : nodes) ring.AddNode(n);
  return ring;
}

bool SameMap(const Ring& a, const Ring& b) {
  if (a.shards() != b.shards()) return false;
  for (int s = 0; s < a.shards(); ++s) {
    if (a.Preference(s) != b.Preference(s)) return false;
  }
  return true;
}

TEST(ShardRingTest, MapIndependentOfInsertionOrder) {
  RingConfig config;
  config.replication = 3;
  const Ring forward = MakeRing(config, {0, 1, 2, 3, 4, 5, 6, 7});
  for (const std::vector<int>& order :
       {std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7},
        std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0},
        std::vector<int>{3, 7, 0, 5, 1, 6, 2, 4}}) {
    EXPECT_TRUE(SameMap(forward, MakeRing(config, order)));
    // The bulk constructor builds the same map in one rebuild.
    const Ring bulk(config, order);
    EXPECT_TRUE(SameMap(forward, bulk));
    EXPECT_EQ(bulk.members(), forward.members());
  }
}

TEST(ShardRingTest, RebuildAfterChurnMatchesFreshRing) {
  RingConfig config;
  config.replication = 2;
  Ring churned = MakeRing(config, {0, 1, 2, 3, 4, 9});
  churned.RemoveNode(9);
  churned.AddNode(5);
  const Ring fresh = MakeRing(config, {0, 1, 2, 3, 4, 5});
  EXPECT_TRUE(SameMap(churned, fresh));
  // Churn applied to a bulk-built ring lands on the same map too.
  Ring bulk(config, {9, 4, 3, 2, 1, 0});
  bulk.RemoveNode(9);
  bulk.AddNode(5);
  EXPECT_TRUE(SameMap(bulk, fresh));
  EXPECT_TRUE(SameMap(Ring(config, {5, 0, 4, 1, 3, 2}), fresh));
}

TEST(ShardRingTest, BulkConstructorOverNoNodesIsEmpty) {
  const Ring ring(RingConfig{}, {});
  EXPECT_EQ(ring.node_count(), 0);
  EXPECT_EQ(ring.PrimaryOf(0), -1);
}

TEST(ShardRingTest, EveryShardOwnedByDistinctChain) {
  RingConfig config;
  config.replication = 3;
  const Ring ring = MakeRing(config, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  EXPECT_EQ(ring.chain_length(), 3);
  for (int s = 0; s < ring.shards(); ++s) {
    const std::vector<int>& pref = ring.Preference(s);
    // The preference list covers every member exactly once.
    ASSERT_EQ(pref.size(), 12u);
    std::set<int> distinct(pref.begin(), pref.end());
    EXPECT_EQ(distinct.size(), pref.size());
    EXPECT_EQ(ring.PrimaryOf(s), pref[0]);
  }
}

TEST(ShardRingTest, ChainLengthClampsToMembership) {
  RingConfig config;
  config.replication = 3;
  const Ring ring = MakeRing(config, {0, 1});
  EXPECT_EQ(ring.chain_length(), 2);
}

TEST(ShardRingTest, ShardOfUsesTopBits) {
  RingConfig config;
  config.shards = 256;
  const Ring ring = MakeRing(config, {0});
  EXPECT_EQ(ring.ShardOf(0), 0);
  EXPECT_EQ(ring.ShardOf(~0ULL), 255);
  EXPECT_EQ(ring.ShardOf(1ULL << 56), 1);
}

TEST(ShardRingTest, JoinMovesAboutOneNthOfShards) {
  RingConfig config;
  config.replication = 1;
  const std::vector<int> nodes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  const Ring before = MakeRing(config, nodes);
  Ring after = MakeRing(config, nodes);
  after.AddNode(12);
  const std::vector<int> moved = Ring::MovedPrimaries(before, after);
  // Ideal: K/N = 256/13 ~ 20 shards change primary. Ketama with 64
  // vnodes is lumpy, so accept a generous band — the property under test
  // is "a small fraction moved, not a reshuffle".
  const double ideal = 256.0 / 13.0;
  EXPECT_GE(moved.size(), static_cast<std::size_t>(ideal / 3));
  EXPECT_LE(moved.size(), static_cast<std::size_t>(ideal * 3));
  // Every moved shard moved *to* the joiner, nowhere else.
  for (int s : moved) EXPECT_EQ(after.PrimaryOf(s), 12);
}

TEST(ShardRingTest, LeaveMovesOnlyTheLeaversShards) {
  RingConfig config;
  config.replication = 1;
  const std::vector<int> nodes = {0, 1, 2, 3, 4, 5, 6, 7};
  const Ring before = MakeRing(config, nodes);
  Ring after = MakeRing(config, nodes);
  after.RemoveNode(3);
  const std::vector<int> moved = Ring::MovedPrimaries(before, after);
  std::size_t owned_before = 0;
  for (int s = 0; s < before.shards(); ++s) {
    if (before.PrimaryOf(s) == 3) ++owned_before;
  }
  // Exactly the shards node 3 owned change primary; everything else is
  // untouched (the consistent-hashing minimal-disruption property).
  EXPECT_EQ(moved.size(), owned_before);
  for (int s : moved) {
    EXPECT_EQ(before.PrimaryOf(s), 3);
    EXPECT_NE(after.PrimaryOf(s), 3);
  }
}

TEST(ShardRingTest, SaltReshapesTheMap) {
  RingConfig a;
  RingConfig b;
  b.salt = 0xDEADBEEFULL;
  const std::vector<int> nodes = {0, 1, 2, 3, 4, 5};
  const Ring ring_a = MakeRing(a, nodes);
  const Ring ring_b = MakeRing(b, nodes);
  EXPECT_FALSE(SameMap(ring_a, ring_b));
}

TEST(ShardRingTest, BalanceIsReasonable) {
  RingConfig config;
  const Ring ring = MakeRing(config, {0, 1, 2, 3, 4, 5, 6, 7});
  std::vector<int> owned(8, 0);
  for (int s = 0; s < ring.shards(); ++s) {
    ++owned[static_cast<std::size_t>(ring.PrimaryOf(s))];
  }
  // 256 shards over 8 nodes: ideal 32 each; 64 vnodes keeps every node
  // within a ~3x band of ideal (the paper-era ketama expectation).
  for (int n = 0; n < 8; ++n) {
    EXPECT_GE(owned[static_cast<std::size_t>(n)], 10) << "node " << n;
    EXPECT_LE(owned[static_cast<std::size_t>(n)], 96) << "node " << n;
  }
}

// The checks are always on, not asserts: a bad geometry would otherwise
// index past the shard table in the NDEBUG builds every bench runs in.
TEST(ShardRingDeathTest, InvalidGeometryAborts) {
  RingConfig shards;
  shards.shards = 100;
  EXPECT_DEATH(Ring{shards}, "shards must be a power of two");
  RingConfig vnodes;
  vnodes.vnodes_per_node = 0;
  EXPECT_DEATH(Ring{vnodes}, "vnodes_per_node must be > 0");
  RingConfig replication;
  replication.replication = 0;
  EXPECT_DEATH(Ring{replication}, "replication must be >= 1");
}

TEST(ShardRingDeathTest, InvalidMembershipAborts) {
  const RingConfig config;
  EXPECT_DEATH(Ring(config, {0, 1, 1}), "duplicate node id");
  EXPECT_DEATH(Ring(config, {-1, 0}), "node ids must be >= 0");
  Ring ring(config, {0, 1});
  EXPECT_DEATH(ring.AddNode(1), "node already on the ring");
  EXPECT_DEATH(ring.RemoveNode(2), "node not on the ring");
}

}  // namespace
}  // namespace wimpy::shard
