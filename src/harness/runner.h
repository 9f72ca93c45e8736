#ifndef SERIGRAPH_HARNESS_RUNNER_H_
#define SERIGRAPH_HARNESS_RUNNER_H_

#include <utility>
#include <vector>

#include "common/logging.h"
#include "pregel/engine.h"

namespace serigraph {

/// Runs `program` on `graph` under `options`; dies on engine errors.
/// If `values_out` is non-null the final vertex values are moved there.
template <typename Program>
RunStats RunProgram(const Graph& graph, const Program& program,
                    const EngineOptions& options,
                    std::vector<typename Program::VertexValue>* values_out =
                        nullptr) {
  Engine<Program> engine(&graph, options);
  auto result = engine.Run(program);
  SG_CHECK_OK(result.status());
  if (values_out != nullptr) *values_out = std::move(result->values);
  return result->stats;
}

/// The default simulated network used by the paper-reproduction benches:
/// a datacenter-like 100us one-way latency plus a bandwidth term. See
/// DESIGN.md ("Substitutions") for why latency is modelled as delayed
/// visibility rather than sender blocking.
inline NetworkOptions BenchNetwork() {
  NetworkOptions network;
  network.one_way_latency_us = 100;
  network.per_kib_us = 4;
  return network;
}

}  // namespace serigraph

#endif  // SERIGRAPH_HARNESS_RUNNER_H_
