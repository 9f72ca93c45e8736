// Single-source shortest paths on a road-network-like grid, comparing the
// synchronization techniques on one workload (paper Section 7.2.3: SSSP
// is a key component in reinforcement learning and is run with extensive
// parallelism, so convergence — which serializability provides — is
// crucial).

#include <cstdio>
#include <iostream>
#include <map>

#include "algos/sssp.h"
#include "graph/generators.h"
#include "harness/runner.h"
#include "harness/table.h"

using namespace serigraph;

int main() {
  // A 60x60 grid: every vertex connected to its 4-neighborhood, like a
  // city street network. Unit edge weights, source at the top-left.
  auto graph_or = Graph::FromEdgeList(Grid(60, 60));
  SG_CHECK_OK(graph_or.status());
  Graph graph = std::move(graph_or).value();
  const VertexId source = 0;
  auto reference = ReferenceSssp(graph, source);

  std::printf("SSSP on a 60x60 grid road network (%lld vertices), "
              "8 workers, simulated 100us network.\n\n",
              (long long)graph.num_vertices());

  TablePrinter table({"technique", "time", "supersteps", "ctrl msgs",
                      "data batches", "correct"});
  for (SyncMode sync :
       {SyncMode::kNone, SyncMode::kDualLayerToken,
        SyncMode::kPartitionLocking, SyncMode::kVertexLocking}) {
    EngineOptions config;
    config.sync_mode = sync;
    config.num_workers = 8;
    config.network = BenchNetwork();
    std::vector<int64_t> distances;
    RunStats stats = RunProgram(graph, Sssp(source), config, &distances);
    table.AddRow({SyncModeName(sync),
                  TablePrinter::Seconds(stats.computation_seconds),
                  std::to_string(stats.supersteps),
                  TablePrinter::Count(stats.Metric("net.control_messages")),
                  TablePrinter::Count(stats.Metric("net.data_batches")),
                  distances == reference ? "yes" : "NO"});
  }
  table.Print(std::cout);

  std::printf("\nNote: SSSP itself is correct even without serializability "
              "(min is monotone);\nthe techniques differ in cost, which is "
              "what the paper's Figure 6(c) measures.\n");
  return 0;
}
