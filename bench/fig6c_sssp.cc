// Figure 6(c): single-source shortest paths (parallel Bellman-Ford, unit
// weights, fixed source) computation times.

#include "algos/sssp.h"
#include "fig6_common.h"

using namespace serigraph;

int main(int argc, char** argv) {
  return RunFig6Grid(
      argc, argv, "Figure 6(c): SSSP",
      "partition-based locking fastest; up to 13x vs vertex-based (OR, 16 "
      "workers) and >10x vs token passing (UK, 32); token passing "
      "degenerates because workers halt and reactivate dynamically "
      "(Section 5.2)",
      /*undirected=*/false,
      [](const Graph& graph, const EngineOptions& config) {
        // Source: the highest-degree vertex's id is 0 in the Chung-Lu
        // stand-ins, giving a large reachable wavefront like the paper's
        // fixed source on real graphs.
        const VertexId source = 0;
        std::vector<int64_t> distances;
        RunStats stats =
            RunProgram(graph, Sssp(source), config, &distances);
        const bool valid = distances == ReferenceSssp(graph, source);
        return std::make_pair(stats, valid);
      });
}
