// Migration-aware routing (shard/router.h): the serve-old-until-commit
// contract, dirty-write counting for catch-up sizing, and the shape of
// join/leave migration plans, including the consistent-hashing churn
// bound (only ~K/N of K shards move).
#include "shard/router.h"

#include <algorithm>
#include <vector>

#include "gtest/gtest.h"

namespace wimpy::shard {
namespace {

RingConfig TestConfig(int replication) {
  RingConfig config;
  config.replication = replication;
  return config;
}

bool ChainContains(const Router::Chain& chain, int node) {
  return std::find(chain.begin(), chain.end(), node) != chain.end();
}

TEST(ShardRouterTest, SteadyStateServesTheRingChains) {
  Router router(TestConfig(2), {0, 1, 2, 3});
  EXPECT_EQ(router.pending_migrations(), 0);
  for (int s = 0; s < router.ring().shards(); ++s) {
    const Router::Chain chain = router.ServingChain(s);
    ASSERT_EQ(chain.length, 2);
    const std::vector<int>& pref = router.Preference(s);
    EXPECT_EQ(chain.nodes[0], pref[0]);
    EXPECT_EQ(chain.nodes[1], pref[1]);
    EXPECT_FALSE(router.migrating(s));
  }
}

TEST(ShardRouterTest, JoinPlansMovesOnlyToTheJoiner) {
  Router router(TestConfig(1), {0, 1, 2, 3, 4, 5});
  const std::vector<Router::ShardMove> moves = router.Join(6);
  // Ideal: K/N = 256/7 ~ 37 shards change primary. Ketama with 64 vnodes
  // is lumpy, so accept a generous band: the property under test is "a
  // small fraction moved, not a reshuffle".
  const double ideal = router.ring().shards() / 7.0;
  EXPECT_GE(moves.size(), static_cast<std::size_t>(ideal / 3));
  EXPECT_LE(moves.size(), static_cast<std::size_t>(ideal * 3));
  for (const Router::ShardMove& move : moves) {
    EXPECT_EQ(move.to, 6);
    // Data streams from the shard's still-serving old primary.
    EXPECT_EQ(move.from, router.PrimaryOf(move.shard));
    EXPECT_NE(move.from, 6);
    EXPECT_TRUE(router.migrating(move.shard));
  }
  EXPECT_EQ(router.pending_migrations(), static_cast<int>(moves.size()));
  // Exactly the shards whose ring primary became the joiner move.
  int joiner_owned = 0;
  for (int s = 0; s < router.ring().shards(); ++s) {
    if (router.Preference(s)[0] == 6) ++joiner_owned;
  }
  EXPECT_EQ(joiner_owned, static_cast<int>(moves.size()));
}

TEST(ShardRouterTest, ServesOldOwnerUntilCommit) {
  Router router(TestConfig(1), {0, 1, 2, 3, 4, 5});
  const std::vector<Router::ShardMove> moves = router.Join(6);
  ASSERT_FALSE(moves.empty());
  const Router::ShardMove first = moves[0];
  // Pre-commit: routing still answers the old chain; the ring already
  // names the joiner.
  EXPECT_EQ(router.PrimaryOf(first.shard), first.from);
  EXPECT_EQ(router.Preference(first.shard)[0], 6);
  router.Commit(first.shard);
  // Post-commit: the serving chain flipped to the target ring chain.
  EXPECT_EQ(router.PrimaryOf(first.shard), 6);
  EXPECT_FALSE(router.migrating(first.shard));
  EXPECT_EQ(router.pending_migrations(),
            static_cast<int>(moves.size()) - 1);
  EXPECT_EQ(router.commits(), 1);
}

TEST(ShardRouterTest, LeaveKeepsLeaverServingUntilCommit) {
  Router router(TestConfig(2), {0, 1, 2, 3});
  int leaver_held = 0;
  for (int s = 0; s < router.ring().shards(); ++s) {
    if (ChainContains(router.ServingChain(s), 3)) ++leaver_held;
  }
  EXPECT_GT(leaver_held, 0);
  const std::vector<Router::ShardMove> moves = router.Leave(3);
  // Exactly the shards node 3 held need one new holder each; every other
  // chain is untouched (the consistent-hashing minimal-disruption
  // property).
  EXPECT_EQ(static_cast<int>(moves.size()), leaver_held);
  for (const Router::ShardMove& move : moves) {
    EXPECT_NE(move.to, 3);  // nothing streams to the leaver
    // Graceful drain: until the shard commits, its serving chain still
    // contains the leaver.
    EXPECT_TRUE(ChainContains(router.ServingChain(move.shard), 3));
    EXPECT_TRUE(router.migrating(move.shard));
  }
  for (const Router::ShardMove& move : moves) {
    if (router.migrating(move.shard)) router.Commit(move.shard);
  }
  // After full handoff the leaver serves nothing.
  for (int s = 0; s < router.ring().shards(); ++s) {
    EXPECT_FALSE(ChainContains(router.ServingChain(s), 3)) << "shard " << s;
  }
}

TEST(ShardRouterTest, ReorderOnlyShardsCommitInstantly) {
  // With replication == node count every node already holds every
  // shard's data: a join is the only thing that can require movement,
  // but a leave merely shortens/reorders chains — zero data moves, and
  // every affected shard cuts over immediately.
  Router router(TestConfig(3), {0, 1, 2});
  const std::vector<Router::ShardMove> moves = router.Leave(2);
  EXPECT_TRUE(moves.empty());
  EXPECT_EQ(router.pending_migrations(), 0);
  for (int s = 0; s < router.ring().shards(); ++s) {
    EXPECT_FALSE(ChainContains(router.ServingChain(s), 2)) << "shard " << s;
  }
}

TEST(ShardRouterTest, DirtyWritesCountOnlyWhileMigrating) {
  Router router(TestConfig(1), {0, 1, 2, 3, 4, 5});
  router.OnWrite(7);  // steady state: not counted
  EXPECT_EQ(router.TakeDirty(7), 0);
  const std::vector<Router::ShardMove> moves = router.Join(6);
  ASSERT_FALSE(moves.empty());
  const int shard = moves[0].shard;
  router.OnWrite(shard);
  router.OnWrite(shard);
  EXPECT_EQ(router.TakeDirty(shard), 2);
  // Take-and-reset semantics: a second drain sees only newer writes.
  EXPECT_EQ(router.TakeDirty(shard), 0);
  router.OnWrite(shard);
  router.Commit(shard);
  // Post-commit writes land on the new owner; the dirty counter is dead.
  router.OnWrite(shard);
  EXPECT_EQ(router.TakeDirty(shard), 0);
}

TEST(ShardRouterDeathTest, LifecycleMisuseAbortsInEveryBuild) {
  Router router(TestConfig(1), {0, 1, 2, 3, 4, 5});
  // Committing a shard that is not migrating would drive the pending
  // count negative.
  EXPECT_DEATH(router.Commit(0), "commit of a shard that is not migrating");
  const std::vector<Router::ShardMove> moves = router.Join(6);
  ASSERT_FALSE(moves.empty());
  // A second membership change would re-plan over half-committed shards.
  EXPECT_DEATH(router.Join(7), "membership change while migration in flight");
  EXPECT_DEATH(router.Leave(0),
               "membership change while migration in flight");
}

}  // namespace
}  // namespace wimpy::shard
