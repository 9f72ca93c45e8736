// Tests for the perf-counter layer (src/obs/perfcounters.h) and memory
// observability (src/obs/memprof.h): the software fallback must always
// work (CI runners routinely deny perf_event_open), scope attribution
// must be race-free under concurrent compute threads (this binary runs
// under TSan in scripts/check.sh), and a perf-enabled engine run must
// surface phase totals, per-superstep memory samples, and the perf/memory
// report sections.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "algos/pagerank.h"
#include "graph/generators.h"
#include "harness/runner.h"
#include "obs/memprof.h"
#include "obs/perfcounters.h"
#include "pregel/message_store.h"
#include "pregel/model.h"

namespace serigraph {
namespace {

/// Enables the process-wide perf singleton for one test, software-only
/// so the result does not depend on the host's perf_event_paranoid.
class ScopedSoftwarePerf {
 public:
  ScopedSoftwarePerf() {
    PerfCounterConfig config;
    config.force_software = true;
    PerfCounters::Enable(config);
  }
  ~ScopedSoftwarePerf() { PerfCounters::Disable(); }
};

TEST(PerfCounterGroupTest, SoftwareFallbackNeverFails) {
  PerfCounterConfig config;
  config.force_software = true;
  PerfCounterGroup group(config);
  EXPECT_FALSE(group.hw_available());
  EXPECT_FALSE(group.fallback_reason().empty());

  const PerfDelta start = group.ReadNow();
  // Burn some CPU so the thread clock visibly advances.
  volatile int64_t sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  const PerfDelta end = group.ReadNow();
  const PerfDelta delta = PerfCounterGroup::Delta(start, end);
  EXPECT_FALSE(delta.hw_valid);
  EXPECT_GT(delta.v[kPerfTaskClockNs], 0);
  EXPECT_GE(delta.v[kPerfMinorFaults], 0);
}

TEST(PerfCounterGroupTest, HardwarePathDegradesGracefully) {
  // Whatever this host allows, constructing and reading a default group
  // must not crash, and a denied open must leave a diagnosis.
  PerfCounterGroup group((PerfCounterConfig()));
  if (!group.hw_available()) {
    EXPECT_FALSE(group.fallback_reason().empty());
  }
  const PerfDelta a = group.ReadNow();
  const PerfDelta b = group.ReadNow();
  const PerfDelta delta = PerfCounterGroup::Delta(a, b);
  EXPECT_GE(delta.v[kPerfTaskClockNs], 0);
  EXPECT_EQ(delta.hw_valid, group.hw_available());
}

TEST(PerfDeltaTest, RatiosAndAccumulate) {
  PerfDelta d{};
  d.v[kPerfCycles] = 1000;
  d.v[kPerfInstructions] = 2500;
  d.v[kPerfLlcLoads] = 200;
  d.v[kPerfLlcMisses] = 50;
  EXPECT_EQ(d.ipc_milli(), 2500);
  EXPECT_EQ(d.llc_miss_per_mille(), 250);

  PerfDelta zero{};
  EXPECT_EQ(zero.ipc_milli(), 0);
  EXPECT_EQ(zero.llc_miss_per_mille(), 0);

  PerfDelta sum{};
  sum.Accumulate(d);
  sum.Accumulate(d);
  EXPECT_EQ(sum.v[kPerfCycles], 2000);
  EXPECT_EQ(sum.v[kPerfLlcMisses], 100);
}

TEST(PerfPhaseAccumTest, NestedScopesAttributeAcrossThreads) {
  ScopedSoftwarePerf perf;
  PerfPhaseAccum accum;
  // Several "compute threads" each run a compute scope with a fork-wait
  // scope nested inside — the engine's exact nesting. TSan (in the
  // sanitizer CI pass) checks the accumulator's atomics.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&accum] {
      for (int i = 0; i < 50; ++i) {
        SY_PERF_SCOPE(&accum, PerfPhase::kCompute);
        volatile int64_t sink = 0;
        for (int j = 0; j < 20000; ++j) sink = sink + j;
        {
          SY_PERF_SCOPE(&accum, PerfPhase::kForkWait);
          for (int j = 0; j < 5000; ++j) sink = sink + j;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const PerfDelta compute = accum.Exchange(PerfPhase::kCompute);
  const PerfDelta fork = accum.Exchange(PerfPhase::kForkWait);
  EXPECT_GT(compute.v[kPerfTaskClockNs], 0);
  EXPECT_GT(fork.v[kPerfTaskClockNs], 0);
  // Nesting semantics: the fork-wait interval also counts as compute
  // (mirrors the wall-clock compute_us accounting), so compute >= fork.
  EXPECT_GE(compute.v[kPerfTaskClockNs], fork.v[kPerfTaskClockNs]);
  // Exchange drains: a second read returns zeros.
  EXPECT_EQ(accum.Exchange(PerfPhase::kCompute).v[kPerfTaskClockNs], 0);
}

TEST(PerfScopeTest, DisabledScopesAreNoOps) {
  ASSERT_FALSE(PerfCounters::enabled());
  PerfPhaseAccum accum;
  {
    SY_PERF_SCOPE(&accum, PerfPhase::kCompute);
  }
  EXPECT_EQ(accum.Exchange(PerfPhase::kCompute).v[kPerfTaskClockNs], 0);
}

TEST(MemProfTest, PeakRssIsMonotonic) {
  MemorySampler sampler;
  const MemoryStatus first = sampler.Sample();
  EXPECT_GT(first.peak_rss_kb, 0);
  // Touch ~8 MiB so RSS visibly grows, then re-sample: the folded peak
  // must never decrease.
  std::vector<char> ballast(8 * 1024 * 1024);
  for (size_t i = 0; i < ballast.size(); i += 4096) ballast[i] = 1;
  const MemoryStatus second = sampler.Sample();
  EXPECT_GE(second.peak_rss_kb, first.peak_rss_kb);
  EXPECT_GE(sampler.peak_rss_kb(), first.peak_rss_kb);
}

TEST(MessageStoreStatsTest, CountsArenaOccupancy) {
  MessageStore<double> store;
  store.Init(/*num_vertices=*/64, /*double_buffered=*/true,
             /*combine=*/nullptr);
  for (int m = 0; m < 5; ++m) {
    for (int32_t li = 0; li < 64; ++li) {
      store.Append(li, static_cast<double>(m));
    }
  }
  const MessageStoreArenaStats stats = store.Stats();
  EXPECT_GT(stats.chunks, 0);
  EXPECT_EQ(stats.nodes_in_use, 64 * 5);
  EXPECT_GE(stats.node_capacity, stats.nodes_in_use);
  EXPECT_EQ(stats.max_chain_len, 5);
}

TEST(EnginePerfTest, PerfRunCarriesPhaseTotalsAndMemorySamples) {
  auto g = Graph::FromEdgeList(ErdosRenyi(/*n=*/200, /*m=*/800, /*seed=*/7));
  ASSERT_TRUE(g.ok());
  Graph graph = std::move(g).value();
  EngineOptions config;
  config.sync_mode = SyncMode::kPartitionLocking;
  config.num_workers = 4;
  config.perf_counters = true;
  const RunStats stats = RunProgram(graph, PageRank(0.01), config);

  EXPECT_TRUE(stats.perf_enabled);
  if (!stats.perf_hw_counters) {
    EXPECT_FALSE(stats.perf_fallback.empty());
  }
  // Task-clock attribution works under hardware counters AND fallback.
  ASSERT_TRUE(stats.perf_phases.count("compute.task_clock_ns"));
  EXPECT_GT(stats.perf_phases.at("compute.task_clock_ns"), 0);
  EXPECT_GT(stats.Metric("perf.task_clock_ms"), 0);
  EXPECT_GT(stats.peak_rss_kb, 0);
  ASSERT_FALSE(stats.mem_samples.empty());
  EXPECT_EQ(stats.mem_samples.size(),
            static_cast<size_t>(stats.supersteps));
  for (const MemSample& sample : stats.mem_samples) {
    EXPECT_GT(sample.peak_rss_kb, 0);
  }
  // Per-superstep timeline rows carry the compute-phase counters.
  ASSERT_FALSE(stats.timeline.empty());
  EXPECT_GT(stats.timeline.front().compute_task_clock_ns, 0);

  const std::string json = RunStatsToJson(stats);
  EXPECT_NE(json.find("\"perf\""), std::string::npos);
  EXPECT_NE(json.find("\"memory\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_kb\""), std::string::npos);
  EXPECT_NE(json.find("\"compute.task_clock_ns\""), std::string::npos);

  // A perf run must not leave the process-global singleton enabled.
  EXPECT_FALSE(PerfCounters::enabled());
}

TEST(EnginePerfTest, NonPerfRunStaysClean) {
  auto g = Graph::FromEdgeList(ErdosRenyi(/*n=*/100, /*m=*/300, /*seed=*/3));
  ASSERT_TRUE(g.ok());
  Graph graph = std::move(g).value();
  EngineOptions config;
  config.sync_mode = SyncMode::kPartitionLocking;
  config.num_workers = 2;
  const RunStats stats = RunProgram(graph, PageRank(0.01), config);
  EXPECT_FALSE(stats.perf_enabled);
  EXPECT_TRUE(stats.perf_phases.empty());
  EXPECT_TRUE(stats.mem_samples.empty());
  const std::string json = RunStatsToJson(stats);
  EXPECT_EQ(json.find("\"perf\""), std::string::npos);
  EXPECT_EQ(json.find("\"memory\""), std::string::npos);
}

}  // namespace
}  // namespace serigraph
