// HDFS model: block-structured files, replica placement, locality-aware
// reads and replicated pipelined writes.
//
// Paper-relevant behaviours: block size is 16 MB on the Edison cluster and
// 64 MB on Dell (except terasort, 64 MB on both); replication is 2 on
// Edison and 1 on Dell so both clusters see ~95% data-local map tasks; a
// non-local read ships the block across the fabric from a replica holder.
#ifndef WIMPY_MAPREDUCE_HDFS_H_
#define WIMPY_MAPREDUCE_HDFS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "hw/server_node.h"
#include "net/fabric.h"
#include "sim/task.h"

namespace wimpy::obs {
class MetricsRegistry;
}  // namespace wimpy::obs

namespace wimpy::mapreduce {

struct HdfsBlock {
  std::int64_t id = 0;
  Bytes size = 0;
  std::vector<int> replica_nodes;  // node ids holding a replica
};

struct HdfsFile {
  std::string name;
  Bytes size = 0;
  std::vector<HdfsBlock> blocks;
};

struct HdfsConfig {
  Bytes block_size = MiB(64);
  int replication = 1;
};

class Hdfs {
 public:
  // `datanodes` host blocks; placement is round-robin with a random start
  // plus distinct-node replicas, like the default HDFS placer in one rack.
  // Checked in every build type: datanodes non-empty and
  // 1 <= replication <= datanodes.
  Hdfs(net::Fabric* fabric, std::vector<hw::ServerNode*> datanodes,
       const HdfsConfig& config, std::uint64_t seed);

  Hdfs(const Hdfs&) = delete;
  Hdfs& operator=(const Hdfs&) = delete;

  // Registers a file's metadata and places replicas without simulating the
  // ingest I/O (pre-loaded inputs, like the paper's wordcount corpus).
  // Aborts if a file called `name` already exists.
  const HdfsFile& LoadFile(const std::string& name, Bytes size);

  // As LoadFile, but splits the total across `file_count` equal files
  // (e.g. "200 input files totalling 1 GB"). Returns their names.
  std::vector<std::string> LoadFiles(const std::string& prefix,
                                     int file_count, Bytes total_size);

  // Simulated write of a new file from `writer_node`: each block is
  // written to its first replica (storage) and pipelined to the others
  // (fabric + storage). Used by job output.
  sim::Task<void> WriteFile(const std::string& name, Bytes size,
                            int writer_node);

  // Simulated read of one block by `reader_node`: local replicas read
  // storage only; remote reads add the fabric transfer from the replica.
  sim::Task<void> ReadBlock(const HdfsBlock& block, int reader_node);

  StatusOr<HdfsFile> GetFile(const std::string& name) const;
  bool HasLocalReplica(const HdfsBlock& block, int node_id) const;

  const HdfsConfig& config() const { return config_; }
  std::int64_t total_blocks() const { return next_block_id_; }

  // Fraction of scheduled map tasks that were data-local (set by the job
  // runner; exposed for reports).
  void RecordMapLocality(bool local);
  double DataLocalFraction() const;

  // Registers namenode probes: `<prefix>.blocks` (cumulative blocks
  // placed) and `<prefix>.data_local_frac`. See docs/observability.md.
  void PublishMetrics(obs::MetricsRegistry* registry,
                      const std::string& prefix);

 private:
  std::vector<int> PlaceReplicas();
  HdfsFile MakeFile(const std::string& name, Bytes size);

  net::Fabric* fabric_;
  std::vector<hw::ServerNode*> datanodes_;
  HdfsConfig config_;
  Rng rng_;
  std::map<std::string, HdfsFile> files_;
  std::int64_t next_block_id_ = 0;
  std::size_t placement_cursor_ = 0;
  std::int64_t local_reads_ = 0;
  std::int64_t total_reads_ = 0;
};

}  // namespace wimpy::mapreduce

#endif  // WIMPY_MAPREDUCE_HDFS_H_
