#include "shard/migrator.h"

#include <algorithm>

#include "common/check.h"
#include "net/fabric.h"
#include "obs/tracer.h"

namespace wimpy::shard {

namespace {

// Migration spans live on their own track family, far above the
// request-sampling tracks (which are small query counters), so the
// rebalance timeline renders as its own lane group in Perfetto.
constexpr std::int32_t kMigrationTrackBase = 1 << 30;

}  // namespace

Migrator::Migrator(cluster::Cluster* cluster, Router* router,
                   const MigratorConfig& config)
    : cluster_(cluster),
      router_(router),
      config_(config),
      slots_(&cluster->scheduler(), std::max(1, config.concurrent_shards)) {
  // batch_bytes = 0 would make StreamBytes loop forever.
  Check(config_.shard_bytes > 0, "shard::Migrator",
        "shard_bytes must be > 0");
  Check(config_.batch_bytes > 0, "shard::Migrator",
        "batch_bytes must be > 0");
}

sim::Task<void> Migrator::StreamBytes(int from, int to, Bytes bytes,
                                      const obs::TraceHandle& span,
                                      const char* name,
                                      MigrationStats* stats) {
  net::Fabric& fabric = cluster_->fabric();
  const double minstr_per_byte =
      config_.copy_cpu_minstr_per_mb / (1024.0 * 1024.0);
  Bytes remaining = bytes;
  while (remaining > 0) {
    const Bytes batch = std::min<Bytes>(config_.batch_bytes, remaining);
    remaining -= batch;
    const double copy_minstr = minstr_per_byte * static_cast<double>(batch);
    // Source reads and frames the batch...
    co_await cluster_->node(from)->cpu().Execute(copy_minstr);
    // ...it rides the fabric (traced as a net child span)...
    co_await fabric.Transfer(from, to, batch, span, name);
    // ...and the sink applies it: CPU plus a buffered log append.
    co_await cluster_->node(to)->cpu().Execute(copy_minstr);
    co_await cluster_->node(to)->storage().Write(batch, /*buffered=*/true);
    ++stats->transfers;
  }
}

sim::Process Migrator::MoveShard(ShardPlan plan, obs::TraceHandle parent,
                                 MigrationStats* stats) {
  co_await slots_.Acquire();
  {
    // Own track per shard: the exporter draws a flow arrow from the
    // migration root to each shard_move lane.
    obs::CausalSpan move(parent,
                         kMigrationTrackBase + 1 + plan.shard,
                         "shard_move", obs::Category::kApp, plan.shard);
    if (plan.from >= 0) {
      // Bulk copy: the full shard image to every incoming owner.
      for (int target : plan.targets) {
        co_await StreamBytes(plan.from, target, config_.shard_bytes,
                             move.handle(), "migrate_batch", stats);
        stats->bulk_bytes += config_.shard_bytes;
      }
      // Catch-up: writes that landed on the old owner while we copied.
      for (int round = 0; round < config_.max_catchup_rounds; ++round) {
        const std::int64_t dirty = router_->TakeDirty(plan.shard);
        if (dirty == 0) break;
        const Bytes delta = dirty * config_.write_delta_bytes;
        ++stats->catchup_rounds;
        for (int target : plan.targets) {
          co_await StreamBytes(plan.from, target, delta, move.handle(),
                               "catchup", stats);
          stats->catchup_bytes += delta;
        }
      }
    }
    // Cutover: an atomic (single simulated instant) routing-table swap —
    // no co_await between the final dirty drain and the commit, so no
    // write can slip between them.
    router_->Commit(plan.shard);
    ++stats->shards_moved;
    move.Instant("cutover", plan.shard);
  }
  slots_.Release();
}

sim::Process Migrator::Run(std::vector<Router::ShardMove> moves,
                           obs::Tracer* tracer, MigrationStats* stats) {
  sim::Scheduler& sched = cluster_->scheduler();
  stats->started = sched.now();

  // Group the plan by shard (plans arrive shard-ordered from the router;
  // the grouping keeps that order, so spawn order — and therefore the
  // trace — is deterministic).
  std::vector<ShardPlan> plans;
  for (const Router::ShardMove& move : moves) {
    if (plans.empty() || plans.back().shard != move.shard) {
      plans.push_back(ShardPlan{move.shard, move.from, {}});
    }
    plans.back().targets.push_back(move.to);
  }

  {
    obs::CausalSpan root(obs::RootTrace(tracer, &sched, kMigrationTrackBase),
                         "migration", obs::Category::kApp,
                         static_cast<std::int64_t>(plans.size()));
    std::vector<sim::ProcessRef> children;
    children.reserve(plans.size());
    for (const ShardPlan& plan : plans) {
      children.push_back(
          sim::Spawn(sched, MoveShard(plan, root.handle(), stats)));
    }
    for (sim::ProcessRef& child : children) co_await child.Join();
  }
  stats->finished = sched.now();
  stats->done = true;
}

}  // namespace wimpy::shard
