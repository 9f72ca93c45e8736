// Figure 6(a): greedy graph coloring computation times across datasets,
// worker counts, and synchronization techniques.

#include "algos/coloring.h"
#include "fig6_common.h"

using namespace serigraph;

int main(int argc, char** argv) {
  return RunFig6Grid(
      argc, argv, "Figure 6(a): graph coloring",
      "partition-based locking fastest everywhere; up to 2.3x vs "
      "vertex-based (TW, 32 workers) and 2.2x vs token passing (UK, 32)",
      /*undirected=*/true,
      [](const Graph& graph, const EngineOptions& config) {
        std::vector<int64_t> colors;
        RunStats stats = RunProgram(graph, GreedyColoring(), config, &colors);
        return std::make_pair(stats, IsProperColoring(graph, colors));
      });
}
