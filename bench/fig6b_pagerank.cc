// Figure 6(b): PageRank computation times. Thresholds mirror the paper
// (Section 7.2.2): 0.01 for OR/AR, 0.1 for TW/UK, so that all systems do
// the same amount of work per graph.

#include "algos/pagerank.h"
#include "fig6_common.h"

using namespace serigraph;

int main(int argc, char** argv) {
  return RunFig6Grid(
      argc, argv, "Figure 6(b): PageRank",
      "partition-based locking fastest everywhere; up to 18x vs "
      "vertex-based (OR, 16 workers) and >14x vs token passing (UK, 32)",
      /*undirected=*/false,
      [](const Graph& graph, const EngineOptions& config) {
        // Paper thresholds: 0.01 for the smaller graphs, 0.1 for TW/UK.
        const double tolerance = graph.num_vertices() >= 8000 ? 0.1 : 0.01;
        std::vector<double> values;
        RunStats stats =
            RunProgram(graph, PageRank(tolerance), config, &values);
        // Validity: converged and every rank at least the base mass.
        bool valid = stats.converged;
        for (double v : values) valid &= v >= PageRank::kBase - 1e-9;
        return std::make_pair(stats, valid);
      });
}
