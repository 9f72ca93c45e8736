#include "pregel/model.h"

#include "obs/report.h"

namespace serigraph {

const char* ComputationModelName(ComputationModel model) {
  switch (model) {
    case ComputationModel::kBsp:
      return "BSP";
    case ComputationModel::kAsync:
      return "AP";
  }
  return "?";
}

std::string RunStatsToJson(const RunStats& stats) {
  JsonWriter json;
  json.BeginObject();
  json.Key("supersteps").Value(stats.supersteps);
  json.Key("converged").Value(stats.converged);
  json.Key("computation_seconds").Value(stats.computation_seconds);
  json.Key("metrics").BeginObject();
  for (const auto& [name, value] : stats.metrics) {
    json.Key(name).Value(value);
  }
  json.EndObject();
  json.Key("timeline").BeginArray();
  for (const SuperstepSample& sample : stats.timeline) {
    json.BeginObject();
    json.Key("superstep").Value(sample.superstep);
    json.Key("worker").Value(sample.worker);
    json.Key("compute_us").Value(sample.compute_us);
    json.Key("barrier_wait_us").Value(sample.barrier_wait_us);
    json.Key("flush_wait_us").Value(sample.flush_wait_us);
    json.Key("fork_wait_us").Value(sample.fork_wait_us);
    json.Key("vertices_executed").Value(sample.vertices_executed);
    json.Key("messages_sent").Value(sample.messages_sent);
    if (stats.perf_enabled) {
      json.Key("compute_cycles").Value(sample.compute_cycles);
      json.Key("compute_instructions").Value(sample.compute_instructions);
      json.Key("compute_llc_loads").Value(sample.compute_llc_loads);
      json.Key("compute_llc_misses").Value(sample.compute_llc_misses);
      json.Key("compute_task_clock_ns").Value(sample.compute_task_clock_ns);
      json.Key("perf_hw_valid").Value(sample.perf_hw_valid);
    }
    json.EndObject();
  }
  json.EndArray();
  const bool has_introspection =
      stats.introspect_snapshots > 0 || !stats.contention.empty();
  if (has_introspection) {
    json.Key("introspection").BeginObject();
    json.Key("resource_kind").Value(stats.resource_kind);
    json.Key("snapshots").Value(stats.introspect_snapshots);
    json.Key("stalls").Value(stats.introspect_stalls);
    json.Key("deadlocks").Value(stats.introspect_deadlocks);
    json.Key("incidents").BeginArray();
    for (const std::string& incident : stats.introspect_incidents) {
      json.Value(incident);
    }
    json.EndArray();
    json.Key("contention_top").BeginArray();
    for (const ContentionEntry& e : stats.contention) {
      json.BeginObject();
      json.Key("resource").Value(e.resource);
      json.Key("count").Value(e.count);
      json.Key("total_wait_us").Value(e.total_wait_us);
      json.Key("max_wait_us").Value(e.max_wait_us);
      json.EndObject();
    }
    json.EndArray();
    json.Key("contention_edges_top").BeginArray();
    for (const EdgeContentionEntry& e : stats.contention_edges) {
      json.BeginObject();
      json.Key("waiter").Value(e.waiter);
      json.Key("blocker").Value(e.blocker);
      json.Key("count").Value(e.count);
      json.Key("total_wait_us").Value(e.total_wait_us);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  const bool has_fault =
      stats.recovery_attempts > 0 || !stats.recovery_events.empty();
  if (has_fault) {
    json.Key("fault").BeginObject();
    json.Key("recovery_attempts").Value(stats.recovery_attempts);
    json.Key("events").BeginArray();
    for (const std::string& event : stats.recovery_events) {
      json.Value(event);
    }
    json.EndArray();
    json.EndObject();
  }
  if (stats.perf_enabled) {
    json.Key("perf").BeginObject();
    json.Key("hw_counters").Value(stats.perf_hw_counters);
    json.Key("fallback").Value(stats.perf_fallback);
    json.Key("phases").BeginObject();
    for (const auto& [name, value] : stats.perf_phases) {
      json.Key(name).Value(value);
    }
    json.EndObject();
    json.EndObject();
    json.Key("memory").BeginObject();
    json.Key("peak_rss_kb").Value(stats.peak_rss_kb);
    json.Key("samples").BeginArray();
    for (const MemSample& s : stats.mem_samples) {
      json.BeginObject();
      json.Key("superstep").Value(s.superstep);
      json.Key("rss_kb").Value(s.rss_kb);
      json.Key("peak_rss_kb").Value(s.peak_rss_kb);
      json.Key("arena_chunks").Value(s.arena_chunks);
      json.Key("arena_nodes_in_use").Value(s.arena_nodes_in_use);
      json.Key("arena_node_capacity").Value(s.arena_node_capacity);
      json.Key("max_chain_len").Value(s.max_chain_len);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();
  return json.str();
}

}  // namespace serigraph
