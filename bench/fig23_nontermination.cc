// Figures 2 and 3: BSP and AP executions of greedy graph coloring fail to
// terminate (oscillate) on conflict-prone graphs, while every
// serializable execution terminates. We run the paper's 4-cycle plus
// larger even cycles and complete bipartite-ish graphs, and report
// terminated / cut-off per (model, technique).

#include <iostream>

#include "algos/coloring.h"
#include "graph/generators.h"
#include "harness/runner.h"
#include "harness/table.h"

using namespace serigraph;

namespace {

struct Case {
  const char* name;
  Graph graph;
};

std::vector<Case> MakeCases() {
  std::vector<Case> cases;
  auto add = [&](const char* name, EdgeList el) {
    auto g = Graph::FromEdgeList(el);
    SG_CHECK_OK(g.status());
    cases.push_back({name, g->Undirected()});
  };
  add("paper 4-cycle", PaperExampleGraph());
  add("even cycle n=64", Ring(64));
  add("complete K8", Complete(8));
  return cases;
}

}  // namespace

int main() {
  PrintHeader(std::cout, "Figures 2-3: (non-)termination of greedy coloring");
  std::cout << "Non-serializable runs cut off after 200 supersteps; BSP "
               "oscillates deterministically\n(Figure 2); AP depends on "
               "thread interleaving (Figure 3).\n\n";

  TablePrinter table(
      {"graph", "model", "technique", "outcome", "supersteps", "proper"});
  for (Case& c : MakeCases()) {
    struct Row {
      ComputationModel model;
      SyncMode sync;
    };
    const Row rows[] = {
        {ComputationModel::kBsp, SyncMode::kNone},
        {ComputationModel::kAsync, SyncMode::kNone},
        {ComputationModel::kAsync, SyncMode::kDualLayerToken},
        {ComputationModel::kAsync, SyncMode::kPartitionLocking},
        {ComputationModel::kAsync, SyncMode::kVertexLocking},
    };
    for (const Row& row : rows) {
      EngineOptions config;
      config.model = row.model;
      config.sync_mode = row.sync;
      config.num_workers = 2;
      config.max_supersteps = row.sync == SyncMode::kNone ? 200 : 5000;
      std::vector<RepairColoring::State> states;
      RunStats stats =
          RunProgram(c.graph, RepairColoring(), config, &states);
      auto colors = RepairColoringColors(states);
      table.AddRow({c.name, ComputationModelName(row.model),
                    SyncModeName(row.sync),
                    stats.converged ? "terminated" : "CUT OFF (livelock)",
                    std::to_string(stats.supersteps),
                    IsProperColoring(c.graph, colors) ? "yes" : "NO"});
    }
  }
  table.Print(std::cout);
  return 0;
}
