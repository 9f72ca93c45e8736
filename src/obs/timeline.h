#ifndef SERIGRAPH_OBS_TIMELINE_H_
#define SERIGRAPH_OBS_TIMELINE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/introspect.h"
#include "obs/perfcounters.h"

namespace serigraph {

class Histogram;

/// One worker's accounting for one superstep: where its wall-clock time
/// went (the paper's Section 7.3 breakdown of computation time into
/// compute vs. synchronization costs) plus its work counters. Timing and
/// counter fields come from the worker's PhaseLedger.
struct SuperstepSample {
  int superstep = 0;
  int worker = 0;
  /// Executing vertex programs, including fork waits and, under
  /// constrained BSP, the sub-superstep barriers and flushes.
  int64_t compute_us = 0;
  /// Time blocked on the superstep-end barriers (B1-B3).
  int64_t barrier_wait_us = 0;
  /// Time in the superstep-end flush + delivery-ack round trip.
  int64_t flush_wait_us = 0;
  /// Time acquiring forks (locking techniques only); inside compute_us.
  int64_t fork_wait_us = 0;
  /// Vertices this worker executed during the superstep.
  int64_t vertices_executed = 0;
  /// Messages this worker's vertices sent during the superstep.
  int64_t messages_sent = 0;
  /// Global frontier density at the end of this superstep, in eligible
  /// vertices per thousand (computed once in the barrier serial section;
  /// every worker's row for a superstep carries the same value).
  int64_t frontier_density_milli = 0;
  /// Message-transfer mode this superstep ran in: 0 = push,
  /// 1 = pull-capture (broadcasts captured, not materialized),
  /// 2 = gather (pulling the previous superstep's captures),
  /// 3 = capture and gather at once. See docs/PERF.md.
  uint8_t pull_mode = 0;

  /// Hardware-counter deltas for the compute phase (perfcounters.h),
  /// populated only when EngineOptions::perf_counters is set AND
  /// perf_event_open is available; all zero with perf_hw_valid=false
  /// under the software fallback. Task-clock comes from the fallback
  /// too, so it is valid whenever perf_counters is on.
  int64_t compute_cycles = 0;
  int64_t compute_instructions = 0;
  int64_t compute_llc_loads = 0;
  int64_t compute_llc_misses = 0;
  int64_t compute_task_clock_ns = 0;
  bool perf_hw_valid = false;
};

/// Collects SuperstepSamples across workers with no cross-thread
/// contention: each worker appends to its own lane (one lane is only ever
/// touched by its owning worker thread), and Collect() merges lanes after
/// the workers have joined.
class TimelineRecorder {
 public:
  explicit TimelineRecorder(int num_workers);

  /// Appends `sample` to worker `sample.worker`'s lane. Must only be
  /// called from that worker's thread.
  void Append(const SuperstepSample& sample);

  /// All samples ordered by (superstep, worker). Call after workers join.
  std::vector<SuperstepSample> Collect() const;

 private:
  std::vector<std::vector<SuperstepSample>> lanes_;
};

/// Sum of a field over `timeline`, e.g. Total(t, &SuperstepSample::fork_wait_us).
int64_t Total(const std::vector<SuperstepSample>& timeline,
              int64_t SuperstepSample::* field);

/// A timed phase's row in PhaseLedger and PerfPhaseAccum (kIdle is never
/// timed).
inline int PhaseRow(WorkerPhase phase) { return static_cast<int>(phase) - 1; }

/// One worker's per-superstep wall time and counter deltas by phase, fed
/// only by PhaseScope (atomic: pool threads time fork waits and count
/// compute into it too). Scopes nest like the phases: a fork wait runs
/// inside compute and counts in both. `fork_wait_hist` gets one sample
/// per fork-wait scope, `barrier_wait_hist` one per CloseSuperstep.
class PhaseLedger {
 public:
  PhaseLedger(WorkerId worker, Histogram* fork_wait_hist,
              Histogram* barrier_wait_hist)
      : worker_(worker),
        fork_wait_hist_(fork_wait_hist),
        barrier_wait_hist_(barrier_wait_hist) {}
  /// Worker thread, superstep end: drains the buckets into `sample` and
  /// the barrier-wait histogram, and the counter rows into `run_totals`
  /// when set (the compute row also into `sample`).
  void CloseSuperstep(SuperstepSample* sample, PerfPhaseAccum* run_totals);

 private:
  friend class PhaseScope;

  const WorkerId worker_;
  Histogram* const fork_wait_hist_;
  Histogram* const barrier_wait_hist_;
  std::atomic<int64_t> us_[kNumPerfPhases] = {};
  PerfPhaseAccum counters_;
  /// Last phase stamped on the beacon (worker thread only).
  WorkerPhase stamped_ = WorkerPhase::kIdle;
};

/// The one clock of a worker phase. With a `clock` ledger, one
/// Tracer::NowMicros() reading on entry and one on exit stamp the beacon
/// (on a phase change; never for kForkWait, whose blocked part the fork
/// table stamps), make the phase's span and feed the ledger bucket (and,
/// for a fork wait, its histogram). With a `counters` ledger and
/// PerfCounters on, the thread's counter delta over the scope goes to
/// that ledger's row. Either may be null: a pool thread counts its
/// compute without a clock, and the worker thread that feeds the pool
/// times compute without counting it.
class PhaseScope {
 public:
  PhaseScope(PhaseLedger* clock, PhaseLedger* counters, WorkerPhase phase,
             int superstep);
  /// Times and counts `phase` into `ledger`.
  PhaseScope(PhaseLedger& ledger, WorkerPhase phase, int superstep)
      : PhaseScope(&ledger, &ledger, phase, superstep) {}
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseLedger* const clock_;
  PhaseLedger* counters_ = nullptr;  ///< null: this thread is not counted
  const WorkerPhase phase_;
  int64_t start_us_ = 0;
  PerfCounterGroup* group_ = nullptr;
  PerfDelta perf_start_;
};

}  // namespace serigraph

#endif  // SERIGRAPH_OBS_TIMELINE_H_
