// Figure 1: the spectrum of synchronization techniques, trading off
// parallelism against communication. We make the figure quantitative:
// for one workload we report, per technique,
//   * a parallelism index (max vertices executing concurrently),
//   * communication volume (control messages + wire bytes),
//   * the number of shared forks (0 for token passing).
// Expected ordering (paper Figure 1):
//   parallelism:  token passing < partition-based < vertex-based
//   communication: token passing < partition-based < vertex-based

#include <algorithm>
#include <iostream>

#include "algos/coloring.h"
#include "harness/datasets.h"
#include "harness/runner.h"
#include "harness/table.h"

using namespace serigraph;

int main() {
  Graph graph = MakeUndirectedDataset(FindSpec("OR'"));
  PrintHeader(std::cout,
              "Figure 1: parallelism vs communication spectrum "
              "(coloring on OR', 16 workers)");

  TablePrinter table({"technique", "execs/superstep", "supersteps",
                      "ctrl msgs", "wire MB", "forks", "time"});
  for (SyncMode sync :
       {SyncMode::kSingleLayerToken, SyncMode::kDualLayerToken,
        SyncMode::kPartitionLocking, SyncMode::kVertexLocking}) {
    EngineOptions config;
    config.sync_mode = sync;
    config.num_workers = 16;
    config.network = BenchNetwork();
    std::vector<int64_t> colors;
    RunStats stats = RunProgram(graph, GreedyColoring(), config, &colors);
    SG_CHECK(IsProperColoring(graph, colors));
    // Parallelism proxy that is independent of host core count: how much
    // work a superstep admits. Token passing gates most vertices out of
    // each superstep; locking techniques execute (almost) all of them.
    const int64_t per_superstep =
        stats.Metric("pregel.vertex_executions") /
        std::max(1, stats.supersteps);
    table.AddRow(
        {SyncModeName(sync), TablePrinter::Count(per_superstep),
         std::to_string(stats.supersteps),
         TablePrinter::Count(stats.Metric("net.control_messages")),
         std::to_string(stats.Metric("net.wire_bytes") / 1048576) + " MB",
         TablePrinter::Count(stats.Metric("sync.num_forks")),
         TablePrinter::Seconds(stats.computation_seconds)});
  }
  table.Print(std::cout);
  std::cout << "\nReading: token passing = little communication, little "
               "parallelism;\nvertex-based locking = max parallelism, max "
               "communication;\npartition-based locking sits in between and "
               "wins on time (paper Section 5.4).\n";
  return 0;
}
