// Section 7.3 scalability: partition-based locking scales better from 16
// to 32 machines than token passing and vertex-based locking. We sweep
// workers in {4, 8, 16, 32} on the largest stand-in (UK').

#include <iostream>

#include "algos/coloring.h"
#include "harness/datasets.h"
#include "harness/runner.h"
#include "harness/table.h"

using namespace serigraph;

int main() {
  PrintHeader(std::cout,
              "Section 7.3: scalability with worker count "
              "(coloring on UK')");
  Graph graph = MakeUndirectedDataset(FindSpec("UK'"));

  TablePrinter table({"technique", "workers", "time", "supersteps",
                      "ctrl msgs", "slowdown vs 4 workers"});
  for (SyncMode sync :
       {SyncMode::kDualLayerToken, SyncMode::kPartitionLocking,
        SyncMode::kVertexLocking}) {
    double base = 0.0;
    for (int workers : {4, 8, 16, 32}) {
      EngineOptions config;
      config.sync_mode = sync;
      config.num_workers = workers;
      config.network = BenchNetwork();
      std::vector<int64_t> colors;
      RunStats stats = RunProgram(graph, GreedyColoring(), config, &colors);
      SG_CHECK(IsProperColoring(graph, colors));
      if (workers == 4) base = stats.computation_seconds;
      table.AddRow(
          {SyncModeName(sync), std::to_string(workers),
           TablePrinter::Seconds(stats.computation_seconds),
           std::to_string(stats.supersteps),
           TablePrinter::Count(stats.Metric("net.control_messages")),
           TablePrinter::Ratio(stats.computation_seconds / base)});
    }
  }
  table.Print(std::cout);
  std::cout << "\npaper: serializability trades performance for guarantees, "
               "so adding workers can\nslow runs down; partition-based "
               "locking degrades the least (Section 7.3).\n";
  return 0;
}
