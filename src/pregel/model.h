#ifndef SERIGRAPH_PREGEL_MODEL_H_
#define SERIGRAPH_PREGEL_MODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "net/transport.h"
#include "obs/memprof.h"
#include "obs/timeline.h"
#include "obs/watchdog.h"
#include "sync/technique.h"

namespace serigraph {

/// Which computation model the engine runs (paper Section 2).
enum class ComputationModel {
  /// Bulk synchronous parallel: messages sent in superstep i are visible
  /// only in superstep i+1, even between vertices of the same worker.
  kBsp = 0,
  /// Asynchronous parallel (Giraph async): messages become visible as
  /// soon as they are received — local sends immediately, remote sends
  /// when the receiving worker processes the batch. Global barriers
  /// between supersteps are retained.
  kAsync = 1,
};

const char* ComputationModelName(ComputationModel model);

/// How vertices are assigned to partitions.
enum class PartitionScheme {
  kHash = 0,       ///< random hash partitioning (the paper's default)
  kContiguous = 1, ///< contiguous ranges (used by tests/examples)
};

/// Fault injection + in-engine recovery configuration
/// (docs/FAULT_TOLERANCE.md). `plan` arms the process-wide FaultInjector
/// for the duration of the run; `recover` turns on the engine's
/// restore-and-resume loop. Either one activates failure detection in
/// the watchdog (thresholds in EngineOptions::watchdog); with neither,
/// the engine adds zero overhead (one disarmed atomic load per probe).
struct FaultToleranceOptions {
  /// Events to inject, reproducible from the plan text alone.
  FaultPlan plan;
  /// Detect failures and recover in-engine from the last good checkpoint
  /// (or the initial state when none was written). Requires checkpointable
  /// vertex/message types.
  bool recover = false;
  /// Recovery attempts after the initial one before giving up with
  /// Status::Aborted and a recovery report.
  int max_recovery_attempts = 3;
  /// Exponential backoff between recovery attempts.
  int64_t recovery_backoff_ms = 10;
  int64_t recovery_backoff_max_ms = 1000;
  /// Bounded retry + backoff for checkpoint writes (satellite of the
  /// previously-swallowed WriteCheckpoint failure).
  RetryPolicy checkpoint_retry;

  /// True when the run needs failure detection at all.
  bool Active() const { return recover || !plan.empty(); }
};

/// Configuration for one engine run.
/// Per-superstep message transfer strategy for combinable BSP programs
/// (see docs/PERF.md, "Push vs. pull"). kAuto switches on frontier
/// density; the force modes pin one strategy for A/B tests. Ignored
/// (always push) for AP runs, sync techniques, and programs without a
/// combiner or with non-trivially-copyable messages.
enum class PushPullMode {
  kAuto,
  kForcePush,
  kForcePull,
};

struct EngineOptions {
  ComputationModel model = ComputationModel::kAsync;
  /// Synchronization technique; any mode other than kNone requires
  /// kAsync and makes the run serializable (Theorem 1).
  SyncMode sync_mode = SyncMode::kNone;

  /// Number of simulated worker machines.
  int num_workers = 4;
  /// Graph partitions per worker; 0 means the Giraph default of
  /// |W| partitions per worker (paper Section 7.1).
  int partitions_per_worker = 0;
  /// Compute threads per worker (the paper's machines have 4 vCPUs).
  /// Clamped to 1 when the technique requires it (single-layer token).
  int compute_threads_per_worker = 2;

  PartitionScheme partition_scheme = PartitionScheme::kHash;
  uint64_t partition_seed = 0;

  /// Simulated network behaviour.
  NetworkOptions network;
  /// Outgoing message buffer cache capacity per destination worker;
  /// when a buffer exceeds this many bytes it is flushed (Giraph's
  /// message buffer cache, Section 6.1). Set to 1 to disable batching.
  int64_t message_batch_bytes = 64 * 1024;

  /// Fold messages into a per-destination-worker combining map on the
  /// sender (only meaningful for programs with a combiner): fewer wire
  /// bytes and one receiver-side append per destination vertex instead
  /// of per message. Automatically disabled when record_history is set
  /// (combined records carry no per-message provenance).
  bool sender_combining = true;

  /// Push/pull strategy for broadcast-style sends (BSP + combiner only).
  /// Under kAuto the engine pulls a superstep when the broadcast frontier
  /// density (set bits per 1000 vertices) reaches
  /// `pull_density_threshold_milli`; sparse supersteps keep pushing.
  PushPullMode push_pull = PushPullMode::kAuto;
  /// kAuto density switch point, in vertices-per-thousand. 400 means
  /// "pull once ≥40% of vertices broadcast" — dense enough that one
  /// sequential sweep over the in-edge CSR beats materializing the
  /// per-vertex message store.
  int64_t pull_density_threshold_milli = 400;

  /// Fixed extra cost charged to every worker every superstep, used by
  /// the Giraphx emulation bench to model algorithm-level technique
  /// implementations on an older, slower system.
  int64_t superstep_overhead_us = 0;

  /// Stop after this many supersteps even if not converged.
  int max_supersteps = 100000;

  /// Fault tolerance (paper Section 6.4): write a checkpoint after every
  /// `checkpoint_every` supersteps into `checkpoint_dir` (0 = disabled).
  /// Requires trivially copyable vertex values and messages.
  int checkpoint_every = 0;
  std::string checkpoint_dir;
  /// Resume a run from this checkpoint file (same graph, same options).
  std::string restore_path;

  /// Fault injection and live crash-recovery (docs/FAULT_TOLERANCE.md).
  FaultToleranceOptions fault;

  /// Record a transaction history for serializability checking
  /// (Section 3). Adds overhead; meant for tests and audits.
  bool record_history = false;

  /// Hardware performance counters + memory profiling (obs/perfcounters.h,
  /// obs/memprof.h, docs/PROFILING.md): per-thread perf_event groups
  /// attribute cycles/IPC/LLC-miss deltas to compute/flush/barrier/
  /// fork-wait phases and per-superstep timeline rows, and the serial
  /// section samples RSS + message-store arena occupancy each superstep.
  /// Falls back to getrusage/procfs software counters (reported, never
  /// fatal) where perf_event_open is denied. Off by default; when off
  /// the hooks cost one relaxed atomic load each.
  bool perf_counters = false;

  /// Runtime introspection (obs/introspect.h): per-worker state beacons,
  /// a background watchdog sampling wait-for-graph snapshots, and a
  /// fork-contention profile in RunStats. Off by default; when off the
  /// hooks cost one relaxed atomic load each.
  bool introspect = false;
  /// The liveness monitor's configuration: sampling period, stall
  /// threshold, JSONL event-log path, opt-in stall abort (used when
  /// `introspect`), and the failure-detection timeouts (used when
  /// fault.Active()).
  WatchdogOptions watchdog;

  /// Stream one JSONL line per superstep (superstep, active vertices,
  /// timestamp, recovery attempt) to this path, flushed line-by-line so
  /// operators can `tail -f` it while the run is live — unlike the run
  /// report, which only exists after the run ends. Empty = off.
  std::string live_report_path;
};

/// Outcome statistics of a run.
struct RunStats {
  static constexpr int kNumAggregatorSlots = 8;

  int supersteps = 0;
  /// True if the computation terminated (all vertices halted, no pending
  /// messages) rather than hitting max_supersteps.
  bool converged = false;
  /// Wall-clock computation time: the superstep loop only, excluding
  /// graph loading/partitioning and result extraction — the paper's
  /// "computation time" metric (Section 7.3).
  double computation_seconds = 0.0;
  /// Snapshot of all engine/transport/technique counters and histograms
  /// (histograms expand into name.p50/.p95/.max/.count/.sum).
  std::map<std::string, int64_t> metrics;
  /// Final global aggregator values (last superstep's reduction).
  double aggregates[kNumAggregatorSlots] = {};
  /// Per-(superstep, worker) time/work breakdown, ordered by superstep
  /// then worker — the Section 7.3 "where does computation time go"
  /// series. Rendered by PrintTimeline() and exported via RunStatsToJson.
  std::vector<SuperstepSample> timeline;

  /// Introspection digest (populated only when options.introspect):
  /// what the philosopher ids in `contention` name ("partition"/"vertex"),
  /// the hottest resources and wait-for edges by attributed wait time,
  /// and the watchdog's counters + incident reports.
  std::string resource_kind;
  std::vector<ContentionEntry> contention;
  std::vector<EdgeContentionEntry> contention_edges;
  int64_t introspect_snapshots = 0;
  int64_t introspect_stalls = 0;
  int64_t introspect_deadlocks = 0;
  std::vector<std::string> introspect_incidents;

  /// Recovery digest (populated only when options.fault is active):
  /// how many times the engine restored and resumed after a detected
  /// worker failure, and a human-readable event log (detected failures,
  /// checkpoint frames restored, fired fault events, degradations).
  int recovery_attempts = 0;
  std::vector<std::string> recovery_events;

  /// Perf/memory digest (populated only when options.perf_counters):
  /// whether hardware counters were live (vs. the software fallback and
  /// why), run-total counter deltas per phase keyed "<phase>.<field>"
  /// ("compute.cycles", ...), process peak RSS, and the per-superstep
  /// RSS/arena samples. The timeline rows additionally carry compute-
  /// phase counter deltas.
  bool perf_enabled = false;
  bool perf_hw_counters = false;
  std::string perf_fallback;
  std::map<std::string, int64_t> perf_phases;
  int64_t peak_rss_kb = 0;
  std::vector<MemSample> mem_samples;

  int64_t Metric(const std::string& name) const {
    auto it = metrics.find(name);
    return it == metrics.end() ? 0 : it->second;
  }
};

/// Serializes `stats` (including the timeline) as a JSON object; the
/// `serigraph_cli --metrics-json=FILE` output format.
std::string RunStatsToJson(const RunStats& stats);

}  // namespace serigraph

#endif  // SERIGRAPH_PREGEL_MODEL_H_
