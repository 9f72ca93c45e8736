// Appendix runs on AR' (arabic-2005 stand-in): the paper's main text
// omits AR for space and defers it to the technical report [21]; this
// bench covers all four algorithms on AR' at 16 workers so the dataset
// column of Table 1 is exercised end to end.

#include <iostream>
#include <numeric>

#include "algos/coloring.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "harness/datasets.h"
#include "harness/runner.h"
#include "harness/table.h"

using namespace serigraph;

int main() {
  PrintHeader(std::cout,
              "Appendix (tech report): all four algorithms on AR', "
              "16 workers");
  DatasetSpec spec = FindSpec("AR'");
  Graph directed = MakeDataset(spec);
  Graph undirected = directed.Undirected();

  TablePrinter table(
      {"algorithm", "technique", "time", "supersteps", "valid"});
  const SyncMode kModes[] = {SyncMode::kDualLayerToken,
                             SyncMode::kPartitionLocking,
                             SyncMode::kVertexLocking};
  for (SyncMode sync : kModes) {
    EngineOptions config;
    config.sync_mode = sync;
    config.num_workers = 16;
    config.network = BenchNetwork();

    {
      std::vector<int64_t> colors;
      RunStats stats =
          RunProgram(undirected, GreedyColoring(), config, &colors);
      table.AddRow({"coloring", SyncModeName(sync),
                    TablePrinter::Seconds(stats.computation_seconds),
                    std::to_string(stats.supersteps),
                    IsProperColoring(undirected, colors) ? "yes" : "NO"});
    }
    {
      std::vector<double> values;
      RunStats stats =
          RunProgram(directed, PageRank(0.01), config, &values);
      table.AddRow({"PageRank", SyncModeName(sync),
                    TablePrinter::Seconds(stats.computation_seconds),
                    std::to_string(stats.supersteps),
                    stats.converged ? "yes" : "NO"});
    }
    {
      std::vector<int64_t> distances;
      RunStats stats = RunProgram(directed, Sssp(0), config, &distances);
      table.AddRow({"SSSP", SyncModeName(sync),
                    TablePrinter::Seconds(stats.computation_seconds),
                    std::to_string(stats.supersteps),
                    distances == ReferenceSssp(directed, 0) ? "yes" : "NO"});
    }
    {
      std::vector<int64_t> labels;
      RunStats stats = RunProgram(undirected, Wcc(), config, &labels);
      table.AddRow({"WCC", SyncModeName(sync),
                    TablePrinter::Seconds(stats.computation_seconds),
                    std::to_string(stats.supersteps),
                    labels == ReferenceWcc(undirected) ? "yes" : "NO"});
    }
  }
  table.Print(std::cout);
  return 0;
}
