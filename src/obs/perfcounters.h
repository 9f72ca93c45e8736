#ifndef SERIGRAPH_OBS_PERFCOUNTERS_H_
#define SERIGRAPH_OBS_PERFCOUNTERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace serigraph {

/// Hardware/software performance counters (docs/PROFILING.md).
///
/// A PerfCounterGroup measures the *calling thread*: hardware events via
/// perf_event_open (grouped so each read is one syscall and the kernel's
/// multiplexing is visible through TIME_ENABLED/TIME_RUNNING scaling) and
/// software events via clock_gettime(CLOCK_THREAD_CPUTIME_ID) and
/// getrusage(RUSAGE_THREAD). When perf events are unavailable (seccomp'd
/// containers, perf_event_paranoid, kernels without the syscall) the
/// hardware fields degrade to zero with hw_valid=false and a human-
/// readable reason — degradation is reported, never fatal, and the
/// software fields keep working everywhere.

/// Fixed counter layout. Hardware fields come from perf events; the
/// trailing software fields are always available.
enum PerfField : int {
  kPerfCycles = 0,
  kPerfInstructions,
  kPerfLlcLoads,
  kPerfLlcMisses,
  kPerfBranchMisses,
  kPerfDtlbMisses,
  kPerfHwCtxSwitches,  ///< perf software event (or rusage fallback)
  kPerfTaskClockNs,    ///< thread CPU time (CLOCK_THREAD_CPUTIME_ID)
  kPerfMinorFaults,    ///< rusage
  kPerfMajorFaults,    ///< rusage
  kNumPerfFields,
};

/// Short snake_case name for field `f` ("cycles", "llc_misses", ...).
const char* PerfFieldName(int f);

/// One absolute reading (multiplex-scaled hardware counts + software
/// counts) or a delta between two readings.
struct PerfDelta {
  int64_t v[kNumPerfFields] = {};
  /// True when the hardware fields carry real (possibly scaled) counts.
  bool hw_valid = false;

  void Accumulate(const PerfDelta& other) {
    for (int f = 0; f < kNumPerfFields; ++f) v[f] += other.v[f];
    hw_valid = hw_valid || other.hw_valid;
  }
  /// Instructions per cycle, scaled by 1000 (0 when cycles unknown).
  int64_t ipc_milli() const {
    return v[kPerfCycles] > 0 ? 1000 * v[kPerfInstructions] / v[kPerfCycles]
                              : 0;
  }
  /// LLC misses per 1000 LLC loads (0 when loads unknown).
  int64_t llc_miss_per_mille() const {
    return v[kPerfLlcLoads] > 0
               ? 1000 * v[kPerfLlcMisses] / v[kPerfLlcLoads]
               : 0;
  }
};

struct PerfCounterConfig {
  /// Skip perf_event_open entirely and report the software fallback, as
  /// if the syscall had been denied. Tests and CI use this to exercise
  /// the degraded path deterministically; the SERIGRAPH_NO_PERF_HW
  /// environment variable forces it process-wide.
  bool force_software = false;
};

/// Per-thread counter group. Not thread-safe: construct and read from
/// one thread (the thread being measured). Opening is best-effort; a
/// group that failed to open stays usable as a software-only group.
class PerfCounterGroup {
 public:
  explicit PerfCounterGroup(const PerfCounterConfig& config = {});
  ~PerfCounterGroup();

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  /// True when at least one hardware group opened.
  bool hw_available() const { return hw_available_; }
  /// Why hardware counters are off ("" when hw_available()).
  const std::string& fallback_reason() const { return fallback_reason_; }

  /// Absolute multiplex-scaled reading for this thread. Cheap enough to
  /// call per partition execution (2 read() syscalls + clock_gettime +
  /// getrusage).
  PerfDelta ReadNow();

  static PerfDelta Delta(const PerfDelta& start, const PerfDelta& end) {
    PerfDelta d;
    for (int f = 0; f < kNumPerfFields; ++f) d.v[f] = end.v[f] - start.v[f];
    d.hw_valid = start.hw_valid && end.hw_valid;
    return d;
  }

 private:
  struct Group;  // one perf_event_open group (leader + members)
  static constexpr int kMaxGroups = 2;

  std::unique_ptr<Group> groups_[kMaxGroups];
  int num_groups_ = 0;
  bool hw_available_ = false;
  std::string fallback_reason_;
};

/// Phases the engine attributes counter deltas to: the four timed worker
/// phases, indexed by PhaseRow (obs/timeline.h). Compute encloses
/// fork-wait (scopes nest, like the wall-clock accounting: compute_us
/// includes fork waits and the fig6 tables print the share).
constexpr int kNumPerfPhases = 4;

/// Lock-free (phase x field) accumulator: many threads Add concurrently,
/// one thread Exchanges a phase's row at each superstep boundary and a
/// final Total at run end. All relaxed atomics — per-row consistency is
/// not required, only that every delta lands exactly once.
class PerfPhaseAccum {
 public:
  void Add(int phase, const PerfDelta& delta) {
    auto& row = rows_[phase];
    for (int f = 0; f < kNumPerfFields; ++f) {
      if (delta.v[f] != 0) {
        // mo: per-thread cell; drain tolerates skew
        row.v[f].fetch_add(delta.v[f], std::memory_order_relaxed);
      }
    }
    // mo: per-thread cell; drain tolerates skew
    if (delta.hw_valid) row.hw_samples.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drains one phase's accumulated delta (superstep boundary).
  PerfDelta Exchange(int phase) {
    auto& row = rows_[phase];
    PerfDelta d;
    for (int f = 0; f < kNumPerfFields; ++f) {
      // mo: per-thread cell; drain tolerates skew
      d.v[f] = row.v[f].exchange(0, std::memory_order_relaxed);
    }
    // mo: per-thread cell; drain tolerates skew
    d.hw_valid = row.hw_samples.exchange(0, std::memory_order_relaxed) > 0;
    return d;
  }

 private:
  struct Row {
    std::atomic<int64_t> v[kNumPerfFields] = {};
    std::atomic<int64_t> hw_samples{0};
  };
  Row rows_[kNumPerfPhases];
};

/// Process-wide switch for the counter half of PhaseScope
/// (obs/timeline.h), mirroring the Tracer/Introspector pattern: when
/// disabled a scope costs one relaxed atomic load; when enabled each
/// measuring thread lazily opens its own PerfCounterGroup (thread-local,
/// re-opened after an epoch bump so Enable/Disable cycles between engine
/// runs see fresh groups).
class PerfCounters {
 public:
  // mo: on/off gate; stale reads tolerated
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Enables collection. `config` applies to groups opened after the
  /// call. Returns availability as probed on the calling thread.
  static bool Enable(const PerfCounterConfig& config);
  static void Disable();

  /// Availability probed by the last Enable ("" reason when available).
  static bool hw_available();
  static std::string fallback_reason();

  /// The calling thread's group (created on first use). Null when
  /// disabled.
  static PerfCounterGroup* CurrentThreadGroup();

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<uint64_t> epoch_;
};

}  // namespace serigraph

#endif  // SERIGRAPH_OBS_PERFCOUNTERS_H_
