// Section 7.3 Giraphx comparison: Giraphx implements its synchronization
// techniques inside user algorithms on an old Giraph without the
// performant AP model or message batching, and is 30-103x slower than the
// system-level techniques. We emulate a Giraphx-like configuration:
//   * per-superstep overhead (old system, in-algorithm bookkeeping,
//     sub-superstep barriers),
//   * no message batching (flush every message),
// and compare against the system-level techniques on the same workload
// (coloring on OR', 16 workers, like the paper).

#include <iostream>

#include "algos/coloring.h"
#include "harness/datasets.h"
#include "harness/runner.h"
#include "harness/table.h"

using namespace serigraph;

int main() {
  Graph graph = MakeUndirectedDataset(FindSpec("OR'"));
  PrintHeader(std::cout,
              "Section 7.3: Giraphx (in-algorithm) vs system-level "
              "techniques, coloring on OR', 16 workers");

  struct Case {
    const char* name;
    SyncMode sync;
    bool giraphx;  // emulate in-algorithm implementation on old Giraph
  };
  const Case cases[] = {
      {"Giraphx single-layer token (emulated)", SyncMode::kSingleLayerToken,
       true},
      {"Giraphx vertex-based locking (emulated)", SyncMode::kVertexLocking,
       true},
      {"system-level dual-layer token", SyncMode::kDualLayerToken, false},
      {"system-level vertex-based locking", SyncMode::kVertexLocking, false},
      {"system-level partition-based locking", SyncMode::kPartitionLocking,
       false},
  };

  double partition_time = 1.0;
  TablePrinter table({"configuration", "time", "supersteps", "flushes",
                      "vs partition-based"});
  std::vector<std::pair<std::string, RunStats>> results;
  for (const Case& c : cases) {
    EngineOptions config;
    config.sync_mode = c.sync;
    config.num_workers = 16;
    config.network = BenchNetwork();
    if (c.giraphx) {
      // In-algorithm techniques piggyback on vertex messages and run on
      // an old Giraph without the AP optimizations or batching; each
      // logical superstep costs extra in-algorithm barrier rounds. The
      // emulation charges a fixed per-superstep overhead (larger for
      // vertex-based locking, whose fork exchanges need several
      // sub-superstep rounds each superstep) and disables batching.
      config.message_batch_bytes = 1;
      config.superstep_overhead_us =
          c.sync == SyncMode::kVertexLocking ? 50000 : 10000;
    }
    std::vector<int64_t> colors;
    RunStats stats = RunProgram(graph, GreedyColoring(), config, &colors);
    SG_CHECK(IsProperColoring(graph, colors));
    if (c.sync == SyncMode::kPartitionLocking && !c.giraphx) {
      partition_time = stats.computation_seconds;
    }
    results.emplace_back(c.name, stats);
  }
  for (const auto& [name, stats] : results) {
    table.AddRow({name, TablePrinter::Seconds(stats.computation_seconds),
                  std::to_string(stats.supersteps),
                  TablePrinter::Count(stats.Metric("pregel.flushes")),
                  TablePrinter::Ratio(stats.computation_seconds /
                                      partition_time)});
  }
  table.Print(std::cout);
  std::cout << "\npaper: Giraphx token 41x and Giraphx vertex-locking 103x "
               "slower than Giraph async\nwith partition-based locking on "
               "OR with 16 machines. The emulation reproduces the\n"
               "ordering (Giraphx configurations slowest), not the "
               "magnitude: it models only the\nextra barriers and lost "
               "batching, not all of old Giraph's inefficiency.\n";
  return 0;
}
