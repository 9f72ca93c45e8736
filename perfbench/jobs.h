#ifndef SERIGRAPH_PERFBENCH_JOBS_H_
#define SERIGRAPH_PERFBENCH_JOBS_H_

// The SeriGraph job benchmark: three graph-analytics workloads, each run
// as whole engine jobs on 3 workers x 1 compute thread. Layers are
// measured from outside the engine only: by timing the benchmark's calls
// into each module's public functions, by reading the public RunStats,
// and (in one separate traced job) by folding the spans the engine
// already emits. README.md gives the reasons for each workload and the
// layer -> end-to-end map.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "graph/partitioning.h"
#include "pregel/model.h"
#include "verify/history.h"

namespace serigraph::perfbench {

enum class Algorithm { kPageRank, kColoring };

/// One workload: the graph family, the engine configuration and the
/// checks its jobs must pass. Everything but the seed is fixed here.
struct Workload {
  std::string name;
  Algorithm algorithm = Algorithm::kPageRank;
  ComputationModel model = ComputationModel::kAsync;
  SyncMode sync = SyncMode::kNone;
  /// Coloring needs a symmetric graph (Graph::Undirected()).
  bool undirected = false;
  VertexId vertices = 0;
  double avg_degree = 0.0;
  double gamma = 0.0;
  /// BenchNetwork(): 100 us one-way latency plus a bandwidth term.
  bool simulated_latency = false;
  /// Checkpoint every N supersteps into the scratch directory (0 = off).
  int checkpoint_every = 0;
  /// PageRank halting threshold (PageRank only).
  double pagerank_tolerance = 0.0;
  /// Run the 1SR audit job (record_history + CheckHistory) on a graph of
  /// this share of `vertices` (0 = no audit).
  double audit_scale = 0.0;
};

/// Workers and compute threads of every job. Three on a 4-core host:
/// the fourth core takes the network threads and whatever else the host
/// runs, so a busy core does not stall a BSP barrier.
inline constexpr int kWorkers = 3;
inline constexpr int kComputeThreads = 1;

/// The three workloads, in BENCHMARK.json order.
const std::vector<Workload>& Workloads();
/// nullptr when `name` is not a workload.
const Workload* FindWorkload(std::string_view name);
/// `workload` with its vertex count multiplied by `scale` (self-test,
/// reduced-size audits).
Workload Scaled(Workload workload, double scale);

/// The graph and its partitioning, built once per set-up.
struct Inputs {
  Graph graph;
  Partitioning partitioning;
  double generate_s = 0.0;   ///< PowerLawChungLu + FromEdgeList (+ Undirected)
  double partition_s = 0.0;  ///< Partitioning::Hash
  /// CPU time of the calling thread over both steps. Set-up is
  /// single-threaded, so this is its wall time less the time the thread
  /// was not running.
  double setup_cpu_s = 0.0;
};
Inputs MakeInputs(const Workload& workload, uint64_t seed);

/// The reference a job's answer is checked against, computed once per
/// graph and outside every timed span.
struct Oracle {
  std::vector<double> reference_ranks;  ///< PageRank only
  double build_s = 0.0;
};
Oracle BuildOracle(const Workload& workload, const Graph& graph);

/// Max |rank - reference| a PageRank job may show: the slack the engine
/// tests allow (tests/pregel_engine_test.cc).
inline constexpr double kPageRankSlack = 0.05;
/// PageRank halting threshold. The delta formulation leaves up to this
/// much mass unforwarded per vertex, and a hub of a power-law graph sums
/// that loss over thousands of in-edges: at 1e-3 the top rank is off by
/// ~13, at 1e-5 by ~0.13, so 1e-6 is the loosest threshold whose answer
/// meets kPageRankSlack on these graphs.
inline constexpr double kPageRankTolerance = 1e-6;

enum class JobKind {
  kTimed,   ///< production configuration: all instrumentation off
  kTraced,  ///< tracer + introspection + perf counters on
  kAudit,   ///< record_history on, then CheckHistory
};

struct JobResult {
  bool ok = false;
  std::string error;  ///< why the job failed, when !ok
  double compute_s = 0.0;  ///< RunStats::computation_seconds
  double run_s = 0.0;      ///< Engine construction + Run + teardown
  double check_s = 0.0;    ///< answer check against the oracle
  RunStats stats;
  std::vector<double> ranks;    ///< PageRank answer
  std::vector<int64_t> colors;  ///< coloring answer
  HistoryCheck history;         ///< audit jobs only
  double history_check_s = 0.0;
};

/// Runs one job and checks its answer. `scratch_dir` receives the
/// checkpoint files of workloads that write them (emptied afterwards).
JobResult RunJob(const Workload& workload, const Inputs& inputs,
                 const Oracle& oracle, JobKind kind,
                 const std::string& scratch_dir);

/// The answer check RunJob applies; exposed so the self-test can feed it
/// a corrupted answer. Sets `why` on failure.
bool CheckAnswer(const Workload& workload, const Graph& graph,
                 const Oracle& oracle, const JobResult& job,
                 std::string* why);

/// Per-name span totals folded from a Chrome trace. Self time is span
/// time minus the time its child spans on the same thread cover.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_us = 0;
  int64_t self_us = 0;
};
/// Folds the 'X' events of a Tracer::ToChromeTraceJson() document.
/// Returns false if the document does not have that shape.
bool FoldChromeTrace(std::string_view json,
                     std::map<std::string, SpanTotals>* out);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Options {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;
};

struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  /// End-to-end metrics without --trace, per-layer metrics with it.
  std::vector<Metric> metrics;
};

/// One benchmark run of `workload`: set-up, oracle, timed jobs for
/// `options.seconds`, and with `options.trace` the traced and audit jobs.
Report RunWorkload(const Workload& workload, const Options& options);

}  // namespace serigraph::perfbench

#endif  // SERIGRAPH_PERFBENCH_JOBS_H_
