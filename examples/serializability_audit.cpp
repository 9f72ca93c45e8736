// Audits real executions against the paper's formal framework (Section
// 3): records every vertex execution as a transaction and checks
//   C1  — every read saw an up-to-date replica,
//   C2  — no transaction overlapped a neighbor's transaction,
//   1SR — the serialization graph is acyclic.
// Plain AP violates the conditions; every synchronization technique
// passes, which is Theorem 1 made executable.

#include <cstdio>
#include <iostream>

#include "algos/mis.h"
#include "graph/generators.h"
#include "harness/runner.h"
#include "harness/table.h"
#include "verify/history.h"

using namespace serigraph;

int main() {
  // Maximal independent set on a random undirected graph: an algorithm
  // whose *correctness* (not just performance) needs serializability.
  auto graph_or = Graph::FromEdgeList(ErdosRenyi(400, 2400, /*seed=*/5));
  SG_CHECK_OK(graph_or.status());
  Graph graph = graph_or->Undirected();

  std::printf("Maximal independent set on |V|=400, |E|=%lld (undirected), "
              "6 workers.\n\n",
              (long long)(graph.num_edges() / 2));

  TablePrinter table({"technique", "txns", "C1 fresh", "C2 disjoint", "1SR",
                      "independent", "maximal"});
  for (SyncMode sync :
       {SyncMode::kNone, SyncMode::kSingleLayerToken,
        SyncMode::kDualLayerToken, SyncMode::kVertexLocking,
        SyncMode::kPartitionLocking}) {
    EngineOptions config;
    config.sync_mode = sync;
    config.num_workers = 6;
    config.record_history = true;
    config.max_supersteps = 200;

    Engine<MaximalIndependentSet> engine(&graph, config);
    auto result = engine.Run(MaximalIndependentSet());
    SG_CHECK_OK(result.status());
    HistoryCheck check = CheckHistory(graph, result->history->TakeRecords());

    table.AddRow({SyncModeName(sync), std::to_string(check.num_transactions),
                  check.c1_fresh_reads ? "yes" : "VIOLATED",
                  check.c2_no_neighbor_overlap ? "yes" : "VIOLATED",
                  check.serializable ? "yes" : "NO",
                  IsIndependentSet(graph, result->values) ? "yes" : "NO",
                  IsMaximalIndependentSet(graph, result->values) ? "yes"
                                                                 : "NO"});
    for (const std::string& sample : check.violation_samples) {
      std::printf("  [%s] %s\n", SyncModeName(sync), sample.c_str());
    }
  }
  std::printf("\n");
  table.Print(std::cout);
  std::printf("\n(Plain AP may produce an invalid set and C1/C2 violations;"
              " any such run is\nnon-serializable, exactly the paper's"
              " motivation. Results vary with thread timing.)\n");
  return 0;
}
