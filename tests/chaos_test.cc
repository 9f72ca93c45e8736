// Chaos verification (docs/FAULT_TOLERANCE.md): randomized but seeded
// fault plans — crashes, hangs, and wire faults at deterministic firing
// windows — against every synchronization technique. Every run must
// either finish fault-free (the plan's events never matched) or detect
// the failure, recover, and still produce results identical to the
// fault-free run; recorded histories must stay serializable across the
// recovery boundary. Reproduce any failure from the printed seed alone.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algos/coloring.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "pregel/engine.h"
#include "verify/history.h"

namespace serigraph {
namespace {

constexpr int kWorkers = 3;

EngineOptions ChaosOptions(SyncMode mode, uint64_t seed) {
  EngineOptions opts;
  opts.sync_mode = mode;
  opts.num_workers = kWorkers;
  opts.partitions_per_worker = 2;
  opts.checkpoint_every = 2;
  opts.checkpoint_dir = testing::TempDir();
  opts.fault.plan = FaultPlan::Random(seed, kWorkers);
  opts.fault.recover = true;
  opts.fault.recovery_backoff_ms = 1;
  opts.watchdog.heartbeat_timeout_ms = 1200;
  opts.watchdog.global_stall_timeout_ms = 3500;
  opts.max_supersteps = 20000;
  return opts;
}

EngineOptions CleanOptions(SyncMode mode) {
  EngineOptions opts;
  opts.sync_mode = mode;
  opts.num_workers = kWorkers;
  opts.partitions_per_worker = 2;
  opts.max_supersteps = 20000;
  return opts;
}

const SyncMode kAllModes[] = {
    SyncMode::kSingleLayerToken,
    SyncMode::kDualLayerToken,
    SyncMode::kVertexLocking,
    SyncMode::kPartitionLocking,
};

TEST(ChaosTest, SsspSurvivesRandomPlansUnderEveryTechnique) {
  auto g = Graph::FromEdgeList(ErdosRenyi(200, 800, 2));
  ASSERT_TRUE(g.ok());
  Graph graph = std::move(g).value();

  for (SyncMode mode : kAllModes) {
    Engine<Sssp> clean(&graph, CleanOptions(mode));
    auto expected = clean.Run(Sssp(0));
    ASSERT_TRUE(expected.ok()) << expected.status();

    for (uint64_t seed = 11; seed <= 13; ++seed) {
      EngineOptions opts = ChaosOptions(mode, seed);
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " seed=" + std::to_string(seed) + " plan:\n" +
                   opts.fault.plan.ToString());
      Engine<Sssp> engine(&graph, opts);
      auto result = engine.Run(Sssp(0));
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_TRUE(result->stats.converged);
      EXPECT_EQ(result->values, expected->values);
    }
  }
}

TEST(ChaosTest, WccSurvivesRandomPlans) {
  auto g = Graph::FromEdgeList(ErdosRenyi(200, 700, 57));
  ASSERT_TRUE(g.ok());
  Graph graph = g->Undirected();

  const SyncMode kModes[] = {SyncMode::kDualLayerToken,
                             SyncMode::kVertexLocking};
  for (SyncMode mode : kModes) {
    Engine<Wcc> clean(&graph, CleanOptions(mode));
    auto expected = clean.Run(Wcc());
    ASSERT_TRUE(expected.ok()) << expected.status();

    for (uint64_t seed = 21; seed <= 22; ++seed) {
      EngineOptions opts = ChaosOptions(mode, seed);
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " seed=" + std::to_string(seed) + " plan:\n" +
                   opts.fault.plan.ToString());
      Engine<Wcc> engine(&graph, opts);
      auto result = engine.Run(Wcc());
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->values, expected->values);
    }
  }
}

TEST(ChaosTest, PageRankSurvivesRandomPlansWithinTolerance) {
  auto g = Graph::FromEdgeList(ErdosRenyi(150, 900, 63));
  ASSERT_TRUE(g.ok());
  Graph graph = std::move(g).value();
  constexpr double kTolerance = 1e-4;

  Engine<PageRank> clean(&graph, CleanOptions(SyncMode::kPartitionLocking));
  auto expected = clean.Run(PageRank(kTolerance));
  ASSERT_TRUE(expected.ok()) << expected.status();

  EngineOptions opts = ChaosOptions(SyncMode::kPartitionLocking, 31);
  SCOPED_TRACE("plan:\n" + opts.fault.plan.ToString());
  Engine<PageRank> engine(&graph, opts);
  auto result = engine.Run(PageRank(kTolerance));
  ASSERT_TRUE(result.ok()) << result.status();
  // PageRank's fixpoint is tolerance-bounded, not exact: execution order
  // (and the recovery replay) shifts where each vertex stops.
  EXPECT_LT(MaxAbsDifference(result->values, expected->values), 0.05);
}

TEST(ChaosTest, ColoringHistoryStaysSerializableUnderRandomPlans) {
  auto g = Graph::FromEdgeList(ErdosRenyi(150, 600, 77));
  ASSERT_TRUE(g.ok());
  Graph graph = g->Undirected();

  for (SyncMode mode : kAllModes) {
    EngineOptions opts = ChaosOptions(mode, 41);
    opts.checkpoint_every = 1;
    opts.record_history = true;
    SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                 " plan:\n" + opts.fault.plan.ToString());
    Engine<GreedyColoring> engine(&graph, opts);
    auto result = engine.Run(GreedyColoring());
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(IsProperColoring(graph, result->values));

    HistoryCheck check = CheckHistory(graph, result->history->TakeRecords());
    EXPECT_TRUE(check.c1_fresh_reads) << check.c1_violations << " C1 violations";
    EXPECT_TRUE(check.c2_no_neighbor_overlap)
        << check.c2_violations << " C2 violations";
    EXPECT_TRUE(check.serializable);
  }
}

}  // namespace
}  // namespace serigraph
