// Proposition 1 in practice: constrained vertex-based locking makes BSP
// serializable, but each superstep splinters into many sub-supersteps
// with full barrier + flush rounds. The paper proves the technique
// correct and then declines to implement it for exactly this reason
// (Section 6: "it further exacerbates BSP's already expensive
// communication and synchronization overheads"); we implement it and
// measure the overhead against the asynchronous techniques.

#include <iostream>

#include "algos/coloring.h"
#include "harness/datasets.h"
#include "harness/runner.h"
#include "harness/table.h"

using namespace serigraph;

int main() {
  Graph graph = MakeUndirectedDataset(FindSpec("OR'"));
  PrintHeader(std::cout,
              "Proposition 1: BSP + constrained vertex locking vs the "
              "asynchronous techniques (coloring on OR', 8 workers)");

  struct Case {
    ComputationModel model;
    SyncMode sync;
  };
  const Case cases[] = {
      {ComputationModel::kBsp, SyncMode::kConstrainedBspLocking},
      {ComputationModel::kAsync, SyncMode::kVertexLocking},
      {ComputationModel::kAsync, SyncMode::kPartitionLocking},
  };
  double partition_time = 1.0;
  std::vector<std::pair<std::string, RunStats>> results;
  for (const Case& c : cases) {
    EngineOptions config;
    config.model = c.model;
    config.sync_mode = c.sync;
    config.num_workers = 8;
    config.network = BenchNetwork();
    std::vector<int64_t> colors;
    RunStats stats = RunProgram(graph, GreedyColoring(), config, &colors);
    SG_CHECK(IsProperColoring(graph, colors));
    if (c.sync == SyncMode::kPartitionLocking) {
      partition_time = stats.computation_seconds;
    }
    results.emplace_back(std::string(ComputationModelName(c.model)) + " + " +
                             SyncModeName(c.sync),
                         stats);
  }
  TablePrinter table({"configuration", "time", "supersteps",
                      "sub-supersteps", "flushes", "vs partition-DL"});
  for (const auto& [name, stats] : results) {
    table.AddRow({name, TablePrinter::Seconds(stats.computation_seconds),
                  std::to_string(stats.supersteps),
                  TablePrinter::Count(stats.Metric("pregel.sub_supersteps")),
                  TablePrinter::Count(stats.Metric("pregel.flushes")),
                  TablePrinter::Ratio(stats.computation_seconds /
                                      partition_time)});
  }
  table.Print(std::cout);
  std::cout << "\nEvery configuration is serializable (checker-verified in "
               "tests); the constrained\nBSP variant pays many sub-superstep "
               "barrier rounds per superstep, vindicating\nthe paper's "
               "decision to build on the asynchronous model instead.\n";
  return 0;
}
