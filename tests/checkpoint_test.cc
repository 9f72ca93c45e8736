// Fault-tolerance tests (paper Section 6.4): checkpoint frames round-trip
// through disk, corrupt files are rejected, and an engine restored from a
// mid-run checkpoint finishes with the same result as an uninterrupted
// run.

#include "pregel/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "algos/coloring.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "pregel/engine.h"

namespace serigraph {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(CheckpointFrameTest, RoundTrip) {
  CheckpointFrame frame;
  frame.superstep = 17;
  frame.payload = {1, 2, 3, 250, 0};
  const std::string path = TempPath("frame.bin");
  ASSERT_TRUE(WriteCheckpoint(path, frame).ok());
  auto loaded = ReadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->superstep, 17);
  EXPECT_EQ(loaded->payload, frame.payload);
  std::remove(path.c_str());
}

TEST(CheckpointFrameTest, RejectsBadMagic) {
  const std::string path = TempPath("garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  EXPECT_FALSE(ReadCheckpoint(path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointFrameTest, RejectsTruncatedPayload) {
  CheckpointFrame frame;
  frame.superstep = 1;
  frame.payload.assign(100, 7);
  const std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(WriteCheckpoint(path, frame).ok());
  // Chop the file.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 10));
  }
  EXPECT_FALSE(ReadCheckpoint(path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointFrameTest, MissingFileIsError) {
  EXPECT_FALSE(ReadCheckpoint(TempPath("nope.bin")).ok());
}

TEST(CheckpointFrameTest, RejectsPayloadBitFlip) {
  // A flipped payload byte leaves magic, version, and size intact; only
  // the CRC catches it.
  CheckpointFrame frame;
  frame.superstep = 3;
  frame.payload.assign(64, 0x5a);
  const std::string path = TempPath("bitflip.bin");
  ASSERT_TRUE(WriteCheckpoint(path, frame).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);  // last payload byte
    f.put(static_cast<char>(0x5a ^ 0x01));
  }
  auto loaded = ReadCheckpoint(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(CheckpointFrameTest, WriteRotatesPreviousGeneration) {
  CheckpointFrame first;
  first.superstep = 1;
  first.payload = {1, 1, 1};
  CheckpointFrame second;
  second.superstep = 2;
  second.payload = {2, 2, 2};
  const std::string path = TempPath("rotate.bin");
  const std::string prev = path + CheckpointPrevSuffix();
  ASSERT_TRUE(WriteCheckpoint(path, first).ok());
  ASSERT_TRUE(WriteCheckpoint(path, second).ok());
  auto latest = ReadCheckpoint(path);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->superstep, 2);
  auto rotated = ReadCheckpoint(prev);
  ASSERT_TRUE(rotated.ok());
  EXPECT_EQ(rotated->superstep, 1);
  std::remove(path.c_str());
  std::remove(prev.c_str());
}

TEST(CheckpointFrameTest, FallbackReadsPrevWhenLatestIsCorrupt) {
  CheckpointFrame good;
  good.superstep = 4;
  good.payload = {9, 9};
  const std::string path = TempPath("fallback.bin");
  const std::string prev = path + CheckpointPrevSuffix();
  ASSERT_TRUE(WriteCheckpoint(path, good).ok());
  CheckpointFrame newer;
  newer.superstep = 6;
  newer.payload = {8, 8};
  ASSERT_TRUE(WriteCheckpoint(path, newer).ok());
  // Corrupt the latest generation in place.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "SGCK but torn";
  }
  std::string source;
  auto loaded = ReadCheckpointWithFallback(path, &source);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->superstep, 4);
  EXPECT_EQ(source, prev);
  std::remove(path.c_str());
  std::remove(prev.c_str());
}

TEST(CheckpointFrameTest, FallbackFailsWhenBothGenerationsAreBad) {
  const std::string path = TempPath("bothbad.bin");
  EXPECT_FALSE(ReadCheckpointWithFallback(path, nullptr).ok());
  {
    std::ofstream out(path, std::ios::binary);
    out << "junk";
  }
  EXPECT_FALSE(ReadCheckpointWithFallback(path, nullptr).ok());
  std::remove(path.c_str());
}

TEST(CheckpointFrameTest, InjectedWriteFaultsBehaveLikeABadDisk) {
  CheckpointFrame frame;
  frame.superstep = 5;
  frame.payload.assign(256, 0x11);
  const std::string path = TempPath("faulty.bin");

  // kFail: the write errors out and leaves no file behind.
  {
    FaultPlan plan;
    FaultEvent fail;
    fail.action = FaultAction::kCkptFail;
    plan.events.push_back(fail);
    FaultInjector::Get().Arm(plan);
    EXPECT_FALSE(WriteCheckpoint(path, frame).ok());
    FaultInjector::Get().Disarm();
    EXPECT_FALSE(ReadCheckpoint(path).ok());
  }

  // kTorn: the write reports success but the frame must fail validation.
  {
    FaultPlan plan;
    FaultEvent torn;
    torn.action = FaultAction::kCkptTorn;
    plan.events.push_back(torn);
    FaultInjector::Get().Arm(plan);
    EXPECT_TRUE(WriteCheckpoint(path, frame).ok());
    FaultInjector::Get().Disarm();
    EXPECT_FALSE(ReadCheckpoint(path).ok());
  }
  std::remove(path.c_str());
}

TEST(EngineCheckpointTest, RestoreFinishesWithSameResult) {
  // Deterministic workload: SSSP under BSP. Run once uninterrupted; run
  // again with checkpoints; then restore from the last checkpoint and
  // verify the final distances match.
  auto g = Graph::FromEdgeList(ErdosRenyi(400, 1600, 31));
  ASSERT_TRUE(g.ok());
  Graph graph = std::move(g).value();

  EngineOptions base;
  base.model = ComputationModel::kBsp;
  base.num_workers = 3;
  base.partitions_per_worker = 2;

  Engine<Sssp> uninterrupted(&graph, base);
  auto full = uninterrupted.Run(Sssp(0));
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->stats.converged);
  ASSERT_GT(full->stats.supersteps, 4);  // checkpoints must fire mid-run

  EngineOptions with_ckpt = base;
  with_ckpt.checkpoint_every = 3;
  with_ckpt.checkpoint_dir = testing::TempDir();
  Engine<Sssp> writer(&graph, with_ckpt);
  auto first = writer.Run(Sssp(0));
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(writer.last_checkpoint_path().empty());
  EXPECT_EQ(first->values, full->values);

  EngineOptions restore = base;
  restore.restore_path = writer.last_checkpoint_path();
  Engine<Sssp> restored(&graph, restore);
  auto resumed = restored.Run(Sssp(0));
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->stats.converged);
  EXPECT_EQ(resumed->values, full->values);
  // The resumed run continued from the checkpoint, not from scratch.
  EXPECT_EQ(resumed->stats.supersteps, full->stats.supersteps);
  std::remove(writer.last_checkpoint_path().c_str());
}

TEST(EngineCheckpointTest, RestoreFromEarlierCheckpointAlsoFinishes) {
  // Restoring from a checkpoint that is NOT the last one replays more
  // supersteps but must land on the same (deterministic, BSP) result.
  auto g = Graph::FromEdgeList(ErdosRenyi(300, 1200, 37));
  ASSERT_TRUE(g.ok());
  Graph graph = std::move(g).value();

  EngineOptions base;
  base.model = ComputationModel::kBsp;
  base.num_workers = 2;

  Engine<Sssp> full(&graph, base);
  auto expected = full.Run(Sssp(0));
  ASSERT_TRUE(expected.ok());
  ASSERT_GT(expected->stats.supersteps, 4);

  EngineOptions with_ckpt = base;
  with_ckpt.checkpoint_every = 2;
  with_ckpt.checkpoint_dir = testing::TempDir();
  Engine<Sssp> writer(&graph, with_ckpt);
  ASSERT_TRUE(writer.Run(Sssp(0)).ok());

  // The *first* checkpoint (superstep 2), not the last.
  const std::string early = testing::TempDir() + "/checkpoint_2.bin";
  EngineOptions restore = base;
  restore.restore_path = early;
  Engine<Sssp> restored(&graph, restore);
  auto resumed = restored.Run(Sssp(0));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->stats.converged);
  EXPECT_EQ(resumed->values, expected->values);
  std::remove(early.c_str());
  std::remove(writer.last_checkpoint_path().c_str());
}

// Pull composes with checkpointing (a superstep whose barrier writes a
// frame pushes), and a restored run takes its first superstep's
// push/pull decision from the restored frontier. Forced pull and forced
// push must agree.
TEST(EngineCheckpointTest, RestoredPageRankPullsLikeItPushes) {
  auto g = Graph::FromEdgeList(ErdosRenyi(300, 1500, 41));
  ASSERT_TRUE(g.ok());
  Graph graph = std::move(g).value();

  EngineOptions base;
  base.model = ComputationModel::kBsp;
  base.num_workers = 3;
  base.partitions_per_worker = 2;

  EngineOptions with_ckpt = base;
  with_ckpt.checkpoint_every = 3;
  with_ckpt.checkpoint_dir = testing::TempDir();
  Engine<PageRank> writer(&graph, with_ckpt);
  auto first = writer.Run(PageRank(1e-9));
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GT(first->stats.supersteps, 6);  // restore leaves work to do
  // Supersteps 2, 5, 8, ... end in a checkpoint and never capture.
  const int64_t writer_pulls =
      first->stats.metrics.at("engine.pull_supersteps");
  EXPECT_GT(writer_pulls, 0);
  EXPECT_LE(writer_pulls,
            first->stats.supersteps - first->stats.supersteps / 3);
  // The first checkpoint (superstep 3), so the restored runs go on long.
  const std::string mid_run = testing::TempDir() + "/checkpoint_3.bin";

  std::vector<double> values[2];
  const PushPullMode modes[] = {PushPullMode::kForcePull,
                                PushPullMode::kForcePush};
  for (int i = 0; i < 2; ++i) {
    EngineOptions restore = base;
    restore.restore_path = mid_run;
    restore.push_pull = modes[i];
    Engine<PageRank> restored(&graph, restore);
    auto resumed = restored.Run(PageRank(1e-9));
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_TRUE(resumed->stats.converged);
    const int64_t pulls = resumed->stats.metrics.at("engine.pull_supersteps");
    if (modes[i] == PushPullMode::kForcePull) {
      EXPECT_GT(pulls, 0) << "restored run must pull under kForcePull";
      // Every resumed superstep pulls, the first one included.
      EXPECT_EQ(pulls, resumed->stats.supersteps - 3);
    } else {
      EXPECT_EQ(pulls, 0);
    }
    values[i] = std::move(resumed->values);
  }
  ASSERT_EQ(values[0].size(), values[1].size());
  for (size_t v = 0; v < values[0].size(); ++v) {
    EXPECT_NEAR(values[0][v], values[1][v], 1e-6) << "vertex " << v;
  }
  for (int s = 3; s < first->stats.supersteps; s += 3) {
    std::remove((testing::TempDir() + "/checkpoint_" + std::to_string(s) +
                 ".bin")
                    .c_str());
  }
}

TEST(EngineCheckpointTest, RestoreUnderSerializableTechnique) {
  auto g = Graph::FromEdgeList(ErdosRenyi(200, 900, 33));
  ASSERT_TRUE(g.ok());
  Graph graph = g->Undirected();

  EngineOptions opts;
  opts.sync_mode = SyncMode::kPartitionLocking;
  opts.num_workers = 2;
  opts.checkpoint_every = 1;
  opts.checkpoint_dir = testing::TempDir();
  Engine<GreedyColoring> writer(&graph, opts);
  auto first = writer.Run(GreedyColoring());
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(writer.last_checkpoint_path().empty());

  EngineOptions restore;
  restore.sync_mode = SyncMode::kPartitionLocking;
  restore.num_workers = 2;
  restore.restore_path = writer.last_checkpoint_path();
  Engine<GreedyColoring> restored(&graph, restore);
  auto resumed = restored.Run(GreedyColoring());
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->stats.converged);
  // Fork placement resets on restore, so colors may differ, but the
  // result must still be a proper coloring.
  EXPECT_TRUE(IsProperColoring(graph, resumed->values));
  std::remove(writer.last_checkpoint_path().c_str());
}

TEST(EngineCheckpointTest, MismatchedGraphIsRejected) {
  auto g1 = Graph::FromEdgeList(Ring(16));
  auto g2 = Graph::FromEdgeList(Ring(20));
  ASSERT_TRUE(g1.ok() && g2.ok());

  EngineOptions opts;
  opts.model = ComputationModel::kBsp;
  opts.num_workers = 1;
  opts.checkpoint_every = 1;
  opts.checkpoint_dir = testing::TempDir();
  Engine<Sssp> writer(&*g1, opts);
  ASSERT_TRUE(writer.Run(Sssp(0)).ok());
  ASSERT_FALSE(writer.last_checkpoint_path().empty());

  EngineOptions restore;
  restore.model = ComputationModel::kBsp;
  restore.num_workers = 1;
  restore.restore_path = writer.last_checkpoint_path();
  Engine<Sssp> restored(&*g2, restore);
  auto result = restored.Run(Sssp(0));
  EXPECT_FALSE(result.ok());
  std::remove(writer.last_checkpoint_path().c_str());
}

TEST(EngineCheckpointTest, NonCheckpointableProgramIsRejected) {
  // RepairColoring's vertex value owns a vector => not trivially
  // copyable => checkpointing must be refused, not miscompiled.
  auto g = Graph::FromEdgeList(PaperExampleGraph());
  ASSERT_TRUE(g.ok());
  EngineOptions opts;
  opts.num_workers = 1;
  opts.checkpoint_every = 1;
  opts.checkpoint_dir = testing::TempDir();
  Engine<RepairColoring> engine(&*g, opts);
  auto result = engine.Run(RepairColoring());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace serigraph
