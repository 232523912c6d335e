#include "mapreduce/hdfs.h"

#include <algorithm>
#include <cassert>

#include "common/check.h"
#include "obs/metrics.h"

namespace wimpy::mapreduce {

Hdfs::Hdfs(net::Fabric* fabric, std::vector<hw::ServerNode*> datanodes,
           const HdfsConfig& config, std::uint64_t seed)
    : fabric_(fabric),
      datanodes_(std::move(datanodes)),
      config_(config),
      rng_(seed) {
  const char* where = "mapreduce::Hdfs";
  Check(!datanodes_.empty(), where, "datanodes must not be empty");
  Check(config_.replication >= 1, where, "replication must be >= 1");
  // More replicas than nodes would place two replicas of a block on one
  // node.
  Check(config_.replication <= static_cast<int>(datanodes_.size()), where,
        "replication must be <= datanodes");
  placement_cursor_ = rng_.NextBelow(datanodes_.size());
}

std::vector<int> Hdfs::PlaceReplicas() {
  std::vector<int> replicas;
  replicas.reserve(config_.replication);
  for (int r = 0; r < config_.replication; ++r) {
    replicas.push_back(
        datanodes_[(placement_cursor_ + r) % datanodes_.size()]->id());
  }
  ++placement_cursor_;
  return replicas;
}

HdfsFile Hdfs::MakeFile(const std::string& name, Bytes size) {
  HdfsFile file;
  file.name = name;
  file.size = size;
  Bytes remaining = size;
  while (remaining > 0) {
    HdfsBlock block;
    block.id = next_block_id_++;
    block.size = std::min(remaining, config_.block_size);
    block.replica_nodes = PlaceReplicas();
    remaining -= block.size;
    file.blocks.push_back(std::move(block));
  }
  return file;
}

const HdfsFile& Hdfs::LoadFile(const std::string& name, Bytes size) {
  auto [it, inserted] = files_.emplace(name, MakeFile(name, size));
  Check(inserted, "mapreduce::Hdfs", "file already exists");
  return it->second;
}

std::vector<std::string> Hdfs::LoadFiles(const std::string& prefix,
                                         int file_count, Bytes total_size) {
  std::vector<std::string> names;
  names.reserve(file_count);
  const Bytes each = total_size / file_count;
  for (int i = 0; i < file_count; ++i) {
    const std::string name = prefix + "-" + std::to_string(i);
    // Last file absorbs the rounding remainder.
    const Bytes size =
        i == file_count - 1 ? total_size - each * (file_count - 1) : each;
    LoadFile(name, size);
    names.push_back(name);
  }
  return names;
}

sim::Task<void> Hdfs::WriteFile(const std::string& name, Bytes size,
                                int writer_node) {
  const HdfsFile& file = LoadFile(name, size);
  for (const HdfsBlock& block : file.blocks) {
    // Pipeline: writer ships the block to the first replica (free if
    // local), which persists and forwards along the chain.
    int upstream = writer_node;
    for (int replica : block.replica_nodes) {
      if (replica != upstream) {
        co_await fabric_->Transfer(upstream, replica, block.size);
      }
      hw::ServerNode* holder = nullptr;
      for (auto* node : datanodes_) {
        if (node->id() == replica) {
          holder = node;
          break;
        }
      }
      assert(holder != nullptr);
      co_await holder->storage().Write(block.size, /*buffered=*/true);
      upstream = replica;
    }
  }
}

sim::Task<void> Hdfs::ReadBlock(const HdfsBlock& block, int reader_node) {
  // Prefer a local replica.
  int source = block.replica_nodes.front();
  for (int replica : block.replica_nodes) {
    if (replica == reader_node) {
      source = replica;
      break;
    }
  }
  hw::ServerNode* holder = nullptr;
  for (auto* node : datanodes_) {
    if (node->id() == source) {
      holder = node;
      break;
    }
  }
  assert(holder != nullptr);
  co_await holder->storage().Read(block.size, /*buffered=*/false);
  if (source != reader_node) {
    co_await fabric_->Transfer(source, reader_node, block.size);
  }
}

StatusOr<HdfsFile> Hdfs::GetFile(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no HDFS file named '" + name + "'");
  }
  return it->second;
}

bool Hdfs::HasLocalReplica(const HdfsBlock& block, int node_id) const {
  return std::find(block.replica_nodes.begin(), block.replica_nodes.end(),
                   node_id) != block.replica_nodes.end();
}

void Hdfs::RecordMapLocality(bool local) {
  ++total_reads_;
  if (local) ++local_reads_;
}

double Hdfs::DataLocalFraction() const {
  return total_reads_ == 0 ? 0.0
                           : static_cast<double>(local_reads_) /
                                 static_cast<double>(total_reads_);
}

void Hdfs::PublishMetrics(obs::MetricsRegistry* registry,
                          const std::string& prefix) {
  registry->Add(prefix + ".blocks", [this] {
    return static_cast<double>(total_blocks());
  });
  registry->Add(prefix + ".data_local_frac",
                [this] { return DataLocalFraction(); });
}

}  // namespace wimpy::mapreduce
