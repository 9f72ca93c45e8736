// Figure 6(d): weakly connected components (HCC) computation times.

#include "algos/wcc.h"
#include "fig6_common.h"

using namespace serigraph;

int main(int argc, char** argv) {
  return RunFig6Grid(
      argc, argv, "Figure 6(d): WCC",
      "partition-based locking fastest; up to 26x vs vertex-based (OR, 16 "
      "workers) and >8x vs token passing (UK, 32); multi-iteration "
      "algorithms multiply the per-iteration gains (Section 7.3)",
      /*undirected=*/true,
      [](const Graph& graph, const EngineOptions& config) {
        std::vector<int64_t> labels;
        RunStats stats = RunProgram(graph, Wcc(), config, &labels);
        const bool valid = labels == ReferenceWcc(graph);
        return std::make_pair(stats, valid);
      });
}
