#include <gtest/gtest.h>

#include <memory>

#include "hw/profiles.h"
#include "mapreduce/hdfs.h"
#include "mapreduce/yarn.h"
#include "sim/process.h"

namespace wimpy::mapreduce {
namespace {

class HdfsTest : public ::testing::Test {
 protected:
  HdfsTest() : fabric_(&sched_) {
    for (int i = 0; i < 4; ++i) {
      nodes_.push_back(std::make_unique<hw::ServerNode>(
          &sched_, hw::EdisonProfile(), i));
      fabric_.AddNode(nodes_.back().get(), "room");
      slaves_.push_back(nodes_.back().get());
    }
  }

  Hdfs MakeHdfs(Bytes block, int replication) {
    return Hdfs(&fabric_, slaves_, HdfsConfig{block, replication}, 42);
  }

  sim::Scheduler sched_;
  net::Fabric fabric_;
  std::vector<std::unique_ptr<hw::ServerNode>> nodes_;
  std::vector<hw::ServerNode*> slaves_;
};

// The config checks hold in every build type: an empty datanode list
// would draw Rng::NextBelow(0), and more replicas than datanodes would put
// two replicas of one block on one node.
using HdfsDeathTest = HdfsTest;

TEST_F(HdfsDeathTest, BadConfigAbortsAtConstruction) {
  EXPECT_DEATH(Hdfs(&fabric_, {}, HdfsConfig{MiB(16), 1}, 42),
               "mapreduce::Hdfs: datanodes must not be empty");
  EXPECT_DEATH(MakeHdfs(MiB(16), 0),
               "mapreduce::Hdfs: replication must be >= 1");
  EXPECT_DEATH(MakeHdfs(MiB(16), 5),
               "mapreduce::Hdfs: replication must be <= datanodes");
}

TEST_F(HdfsDeathTest, LoadingAnExistingFileAborts) {
  Hdfs hdfs = MakeHdfs(MiB(16), 2);
  hdfs.LoadFile("input", MiB(40));
  EXPECT_DEATH(hdfs.LoadFile("input", MiB(8)),
               "mapreduce::Hdfs: file already exists");
}

TEST_F(HdfsTest, FileSplitsIntoBlocks) {
  Hdfs hdfs = MakeHdfs(MiB(16), 2);
  const HdfsFile& file = hdfs.LoadFile("f", MiB(50));
  ASSERT_EQ(file.blocks.size(), 4u);  // 16+16+16+2
  EXPECT_EQ(file.blocks[0].size, MiB(16));
  EXPECT_EQ(file.blocks[3].size, MiB(2));
  for (const auto& block : file.blocks) {
    EXPECT_EQ(block.replica_nodes.size(), 2u);
    EXPECT_NE(block.replica_nodes[0], block.replica_nodes[1]);
  }
}

TEST_F(HdfsTest, LoadFilesSplitsTotalEvenly) {
  Hdfs hdfs = MakeHdfs(MiB(16), 1);
  const auto names = hdfs.LoadFiles("input", 10, MiB(100));
  ASSERT_EQ(names.size(), 10u);
  Bytes total = 0;
  for (const auto& name : names) {
    auto file = hdfs.GetFile(name);
    ASSERT_TRUE(file.ok());
    total += file->size;
  }
  EXPECT_EQ(total, MiB(100));
}

TEST_F(HdfsTest, GetFileUnknownFails) {
  Hdfs hdfs = MakeHdfs(MiB(16), 1);
  EXPECT_FALSE(hdfs.GetFile("missing").ok());
}

TEST_F(HdfsTest, PlacementSpreadsAcrossNodes) {
  Hdfs hdfs = MakeHdfs(MiB(16), 1);
  const HdfsFile& file = hdfs.LoadFile("spread", MiB(16) * 8);
  std::map<int, int> per_node;
  for (const auto& block : file.blocks) {
    ++per_node[block.replica_nodes[0]];
  }
  // Round-robin over 4 nodes -> exactly 2 each.
  EXPECT_EQ(per_node.size(), 4u);
  for (const auto& [node, count] : per_node) EXPECT_EQ(count, 2);
}

sim::Process ReadOne(Hdfs& hdfs, const HdfsBlock& block, int reader,
                     sim::Scheduler& sched, double* done_at) {
  co_await hdfs.ReadBlock(block, reader);
  *done_at = sched.now();
}

TEST_F(HdfsTest, LocalReadAvoidsNetwork) {
  Hdfs hdfs = MakeHdfs(MiB(16), 1);
  const HdfsFile& file = hdfs.LoadFile("f", MiB(16));
  const HdfsBlock& block = file.blocks[0];
  const int holder = block.replica_nodes[0];
  double local_done = -1;
  sim::Spawn(sched_, ReadOne(hdfs, block, holder, sched_, &local_done));
  sched_.Run();
  // 16 MiB at 19.5 MB/s direct read.
  const double disk_time = static_cast<double>(MiB(16)) / MBps(19.5);
  EXPECT_NEAR(local_done, disk_time, 0.01);

  // Remote read pays the 100 Mbps wire on top.
  const int remote = (holder + 1) % 4;
  double remote_done = -1;
  sim::Spawn(sched_, ReadOne(hdfs, block, remote, sched_, &remote_done));
  sched_.Run();
  const double wire_time = static_cast<double>(MiB(16)) / Mbps(100);
  EXPECT_NEAR(remote_done - local_done, disk_time + wire_time, 0.05);
  EXPECT_TRUE(hdfs.HasLocalReplica(block, holder));
  EXPECT_FALSE(hdfs.HasLocalReplica(block, remote));
}

sim::Process WriteOne(Hdfs& hdfs, const std::string& name, Bytes size,
                      int writer, sim::Scheduler& sched, double* done_at) {
  co_await hdfs.WriteFile(name, size, writer);
  *done_at = sched.now();
}

TEST_F(HdfsTest, ReplicatedWriteCostsMoreThanSingle) {
  Hdfs hdfs1 = MakeHdfs(MiB(16), 1);
  double t1 = -1;
  sim::Spawn(sched_, WriteOne(hdfs1, "a", MiB(32), 0, sched_, &t1));
  sched_.Run();
  const double start2 = sched_.now();
  Hdfs hdfs2 = MakeHdfs(MiB(16), 2);
  double t2 = -1;
  sim::Spawn(sched_, WriteOne(hdfs2, "b", MiB(32), 0, sched_, &t2));
  sched_.Run();
  EXPECT_GT(t2 - start2, t1 * 1.5);  // second replica adds disk + wire
}

TEST_F(HdfsTest, LocalityAccounting) {
  Hdfs hdfs = MakeHdfs(MiB(16), 1);
  hdfs.RecordMapLocality(true);
  hdfs.RecordMapLocality(true);
  hdfs.RecordMapLocality(true);
  hdfs.RecordMapLocality(false);
  EXPECT_DOUBLE_EQ(hdfs.DataLocalFraction(), 0.75);
}

class YarnTest : public ::testing::Test {
 protected:
  YarnTest() : fabric_(&sched_) {
    for (int i = 0; i < 3; ++i) {
      nodes_.push_back(std::make_unique<hw::ServerNode>(
          &sched_, hw::EdisonProfile(), i));
      fabric_.AddNode(nodes_.back().get(), "room");
      slaves_.push_back(nodes_.back().get());
    }
    config_.node_usable_memory = MB(600);
    config_.node_vcores = 2;
    config_.containers_per_node_heartbeat = 100;  // effectively unlimited
  }

  sim::Scheduler sched_;
  net::Fabric fabric_;
  std::vector<std::unique_ptr<hw::ServerNode>> nodes_;
  std::vector<hw::ServerNode*> slaves_;
  YarnConfig config_;
};

sim::Process AllocOne(Yarn& yarn, Bytes mem, std::vector<int> preferred,
                      Container* out, sim::Scheduler& sched,
                      double* granted_at) {
  *out = co_await yarn.Allocate(mem, preferred);
  *granted_at = sched.now();
}

TEST_F(YarnTest, AllocatesUpToMemoryCapacity) {
  Yarn yarn(slaves_, config_);
  std::vector<Container> containers(12);
  std::vector<double> granted(12, -1);
  for (int i = 0; i < 12; ++i) {
    sim::Spawn(sched_, AllocOne(yarn, MB(150), {}, &containers[i], sched_,
                                &granted[i]));
  }
  sched_.Run(/*until=*/0.1);
  // 3 nodes x 600 MB / 150 MB = 12 fit immediately.
  for (int i = 0; i < 12; ++i) EXPECT_EQ(granted[i], 0.0) << i;
  EXPECT_EQ(yarn.containers_allocated(), 12);
}

TEST_F(YarnTest, ThirteenthContainerWaitsForRelease) {
  Yarn yarn(slaves_, config_);
  std::vector<Container> containers(13);
  std::vector<double> granted(13, -1);
  for (int i = 0; i < 13; ++i) {
    sim::Spawn(sched_, AllocOne(yarn, MB(150), {}, &containers[i], sched_,
                                &granted[i]));
  }
  sched_.Run(/*until=*/5.0);
  EXPECT_EQ(granted[12], -1);
  sched_.ScheduleAt(10.0, [&] { yarn.Release(containers[0]); });
  sched_.Run(/*until=*/20.0);
  EXPECT_GE(granted[12], 10.0);
  EXPECT_LE(granted[12], 12.0);  // next heartbeat poll after release
  sched_.Run();
}

TEST_F(YarnTest, PrefersRequestedNodes) {
  Yarn yarn(slaves_, config_);
  Container c;
  double granted = -1;
  sim::Spawn(sched_,
             AllocOne(yarn, MB(150), {slaves_[2]->id()}, &c, sched_,
                      &granted));
  sched_.Run();
  EXPECT_EQ(c.node->id(), slaves_[2]->id());
  yarn.Release(c);
}

TEST_F(YarnTest, HeartbeatLimitsAssignmentRate) {
  config_.containers_per_node_heartbeat = 1;
  config_.heartbeat = Seconds(1.0);
  Yarn yarn(slaves_, config_);
  // 9 tiny requests on 3 nodes at 1 container/node/heartbeat: the last
  // wave lands ~2 s in.
  std::vector<Container> containers(9);
  std::vector<double> granted(9, -1);
  for (int i = 0; i < 9; ++i) {
    sim::Spawn(sched_, AllocOne(yarn, MB(10), {}, &containers[i], sched_,
                                &granted[i]));
  }
  sched_.Run(/*until=*/30.0);
  double latest = 0;
  for (double g : granted) {
    ASSERT_GE(g, 0.0);
    latest = std::max(latest, g);
  }
  EXPECT_GE(latest, 2.0);
  EXPECT_LE(latest, 4.0);
  sched_.Run();
}

TEST_F(YarnTest, ReleaseRestoresHardwareMemoryTelemetry) {
  Yarn yarn(slaves_, config_);
  const Bytes before = slaves_[0]->memory().used();
  Container c;
  double granted = -1;
  sim::Spawn(sched_, AllocOne(yarn, MB(200), {slaves_[0]->id()}, &c,
                              sched_, &granted));
  sched_.Run();
  EXPECT_GT(slaves_[0]->memory().used(), before);
  yarn.Release(c);
  EXPECT_EQ(slaves_[0]->memory().used(), before);
}

}  // namespace
}  // namespace wimpy::mapreduce
