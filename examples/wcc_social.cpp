// Weakly connected components on a social-network-like graph with several
// planted communities (paper Section 7.2.4: WCC/HCC, used in structured
// learning). Demonstrates the halted-partition optimization: as
// components settle, partitions halt and stop acquiring forks.

#include <cstdio>
#include <map>

#include "algos/wcc.h"
#include "graph/generators.h"
#include "harness/runner.h"

using namespace serigraph;

int main() {
  // Three disconnected power-law communities of different sizes.
  EdgeList all;
  VertexId offset = 0;
  for (VertexId size : {3000, 1500, 500}) {
    EdgeList part = PowerLawChungLu(size, 8.0, 2.3, /*seed=*/size);
    for (Edge& e : part.edges) {
      all.edges.push_back({e.src + offset, e.dst + offset});
    }
    offset += size;
  }
  all.num_vertices = offset;
  auto graph_or = Graph::FromEdgeList(all);
  SG_CHECK_OK(graph_or.status());
  Graph graph = graph_or->Undirected();

  EngineOptions config;
  config.sync_mode = SyncMode::kPartitionLocking;
  config.num_workers = 8;
  config.network = BenchNetwork();

  std::vector<int64_t> labels;
  RunStats stats = RunProgram(graph, Wcc(), config, &labels);

  // Components must match the sequential union-find oracle.
  const bool correct = labels == ReferenceWcc(graph);
  std::map<int64_t, int64_t> sizes;
  for (int64_t label : labels) ++sizes[label];

  std::printf("WCC with partition-based locking on %lld vertices: "
              "%zu components, %.1f ms, %d supersteps, %s\n",
              (long long)graph.num_vertices(), sizes.size(),
              stats.computation_seconds * 1e3, stats.supersteps,
              correct ? "matches union-find oracle" : "MISMATCH");
  for (const auto& [label, size] : sizes) {
    std::printf("  component rooted at v%-6lld size %lld\n",
                (long long)label, (long long)size);
  }
  std::printf("halted partitions skipped %lld fork acquisitions "
              "(Section 5.4 optimization)\n",
              (long long)stats.Metric("pregel.skipped_partitions"));
  return 0;
}
