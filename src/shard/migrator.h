// Live shard migration: background data movement for a membership change.
//
// Given a router's migration plan, the migrator streams each moving
// shard's resident bytes from the serving primary to every incoming owner
// over the fabric in fixed-size batches (paying CPU on both ends and a
// buffered log append at the sink), then runs catch-up passes sized by
// the writes that arrived while the bulk copy ran, and finally commits
// the cutover on the router — all while the request path keeps routing to
// the old owners. Concurrency across shards is bounded by a semaphore so
// rebalancing stays off the critical path instead of flooding the
// oversubscribed uplinks (the Qureshi & Koubaa failure mode).
//
// Tracing: when handed a tracer, the whole rebalance forms one causal
// tree — a "migration" root span with per-shard "shard_move" children on
// their own tracks (the exporter renders cross-track flow arrows), each
// wrapping its "migrate_batch"/"catchup" fabric transfers and a "cutover"
// instant — so migration traffic decomposes in tools/trace_analyze.py
// with no profiler changes.
#ifndef WIMPY_SHARD_MIGRATOR_H_
#define WIMPY_SHARD_MIGRATOR_H_

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "common/units.h"
#include "obs/context.h"
#include "shard/router.h"
#include "sim/process.h"
#include "sim/semaphore.h"
#include "sim/task.h"

namespace wimpy::obs {
class Tracer;
}  // namespace wimpy::obs

namespace wimpy::shard {

struct MigratorConfig {
  // Resident data per shard (streamed in full to each incoming owner).
  Bytes shard_bytes = 4 * 1024 * 1024;
  // Fabric transfer granularity for the bulk copy.
  Bytes batch_bytes = 256 * 1024;
};

struct MigrationStats {
  int shards_moved = 0;       // shards committed by this run
  int transfers = 0;          // fabric transfers issued (bulk + catch-up)
  std::int64_t bulk_bytes = 0;
  std::int64_t catchup_bytes = 0;
  int catchup_rounds = 0;
  SimTime started = 0;
  SimTime finished = 0;
  bool done = false;
  Duration duration() const { return finished - started; }
};

class Migrator {
 public:
  // Borrows everything; `cluster` resolves node ids to hardware for the
  // copy CPU/storage costs and supplies the fabric.
  Migrator(cluster::Cluster* cluster, Router* router,
           const MigratorConfig& config);

  Migrator(const Migrator&) = delete;
  Migrator& operator=(const Migrator&) = delete;

  // Drives `moves` to completion and fills `*stats` (which must outlive
  // the process). Spawn with sim::Spawn; completion is observable via
  // stats->done or ProcessRef::Join. `tracer` may be null.
  sim::Process Run(std::vector<Router::ShardMove> moves, obs::Tracer* tracer,
                   MigrationStats* stats);

  const MigratorConfig& config() const { return config_; }

 private:
  // All moves of one shard: the shard streams to each incoming owner,
  // catches up, then commits once.
  struct ShardPlan {
    int shard = -1;
    int from = -1;
    std::vector<int> targets;
  };

  sim::Task<void> StreamBytes(int from, int to, Bytes bytes,
                              const obs::TraceHandle& span, const char* name,
                              MigrationStats* stats);
  sim::Process MoveShard(ShardPlan plan, obs::TraceHandle parent,
                         MigrationStats* stats);

  cluster::Cluster* cluster_;
  Router* router_;
  MigratorConfig config_;
  sim::Semaphore slots_;
};

}  // namespace wimpy::shard

#endif  // WIMPY_SHARD_MIGRATOR_H_
