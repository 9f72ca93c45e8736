// The one phase clock: every worker phase boundary is read once, by a
// PhaseScope, and that reading feeds the phase's span, the timeline
// bucket and the latency histograms alike. With the tracer retaining
// every event, the spans of each phase must therefore sum to the
// timeline's bucket exactly, not just approximately.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "algos/pagerank.h"
#include "graph/generators.h"
#include "harness/runner.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "pregel/model.h"

namespace serigraph {
namespace {

TEST(PhaseClockTest, SpansTimelineAndHistogramsReadOneClock) {
  auto g = Graph::FromEdgeList(ErdosRenyi(/*n=*/300, /*m=*/1500, /*seed=*/5));
  ASSERT_TRUE(g.ok());
  const Graph graph = std::move(g).value();
  EngineOptions config;
  config.sync_mode = SyncMode::kPartitionLocking;
  config.num_workers = 2;
  config.compute_threads_per_worker = 1;

  Tracer::Get().Reset();
  Tracer::Get().Enable();
  const RunStats stats = RunProgram(graph, PageRank(0.01), config);
  Tracer::Get().Disable();
  ASSERT_EQ(Tracer::Get().dropped_count(), 0);

  std::map<std::string, int64_t> span_us;
  std::map<std::string, int64_t> span_count;
  for (const TraceEvent& e : Tracer::Get().Snapshot()) {
    if (e.ph != 'X') continue;
    span_us[e.name] += e.value;
    span_count[e.name] += 1;
  }
  Tracer::Get().Reset();

  ASSERT_GT(stats.supersteps, 0);
  ASSERT_EQ(stats.timeline.size(),
            static_cast<size_t>(stats.supersteps * config.num_workers));
  EXPECT_EQ(span_us["engine.compute"],
            Total(stats.timeline, &SuperstepSample::compute_us));
  EXPECT_EQ(span_us["engine.flush_acks"],
            Total(stats.timeline, &SuperstepSample::flush_wait_us));
  EXPECT_EQ(span_us["engine.barrier_wait"],
            Total(stats.timeline, &SuperstepSample::barrier_wait_us));
  EXPECT_EQ(span_us["sync.fork_acquire"],
            Total(stats.timeline, &SuperstepSample::fork_wait_us));

  // Fork waits run inside compute, on the one compute thread.
  for (const SuperstepSample& row : stats.timeline) {
    EXPECT_LE(row.fork_wait_us, row.compute_us)
        << "superstep " << row.superstep << " worker " << row.worker;
  }
  // One barrier-wait sample per worker per superstep (B1-B3 summed), one
  // fork-wait sample per acquisition.
  EXPECT_EQ(stats.Metric("engine.barrier_wait_us.count"),
            stats.supersteps * config.num_workers);
  EXPECT_GT(span_count["sync.fork_acquire"], 0);
  EXPECT_EQ(stats.Metric("sync.fork_wait_us.count"),
            span_count["sync.fork_acquire"]);
}

}  // namespace
}  // namespace serigraph
