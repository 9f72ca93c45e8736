#ifndef SERIGRAPH_OBS_TRACE_H_
#define SERIGRAPH_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace serigraph {

/// One event: a completed span ('X' in the Chrome trace-event format), a
/// counter sample ('C', a value track: per-superstep IPC, LLC misses, RSS
/// — see docs/PROFILING.md), an instant ('i'), or one end of a flow arrow
/// binding cross-thread causality ('s' at the sender, 'f' at the
/// receiver). `name` has static storage duration (the macros pass
/// literals), so recording never copies and a torn read never dangles.
struct TraceEvent {
  const char* name = nullptr;
  int64_t ts_us = 0;  ///< µs since the trace epoch (span start)
  int64_t value = 0;  ///< span duration, counter value, or flow id
  char ph = 0;        ///< 'X', 'C', 'i', 's' or 'f'
  uint32_t tid = 0;   ///< tracer-assigned id of the recording thread
};

/// The process-wide event log, the one sink of every SG_TRACE_* macro:
/// each recording thread writes into its own log, a ring of its newest
/// kRingCapacity events. Two gates:
///  * Recording (default on; serichk turns it off): each ring overwrites
///    its oldest event — the black box incident bundles dump.
///  * Retain-all (Enable()/Disable(); --trace-out, perfbench's traced
///    job): nothing is overwritten. A full ring goes to a retained list
///    and the thread continues in a fresh one, up to kMaxRingsPerThread
///    rings; further events are dropped and counted. Retained events
///    outlive their thread until export or Reset().
/// Record() is a thread-local lookup and relaxed atomic stores — no lock,
/// no allocation — except when retain-all hands off a full ring. Readers
/// take log_mu_; retained slots are published by the release store of
/// the ring's head, a tail slot being overwritten may be read torn.
/// Memory is bounded by live threads: an exited thread's log (and its
/// tail) goes back to the registry for the next new thread to reuse.
/// Every slot carries its thread's tid; names live in a tid -> name map.
class Tracer {
 public:
  static constexpr size_t kRingCapacity = 2048;
  static constexpr size_t kMaxRingsPerThread = 512;  ///< ~1M events

  /// The process-wide tracer (leaked: alive for exiting threads and the
  /// fatal-signal dump).
  static Tracer& Get();

  /// Whether Record() stores anything (either gate on).
  static bool recording() {
    return flags_.load(std::memory_order_relaxed) != 0;  // mo: on/off gate
  }
  /// Whether retain-all is on (flows and the detailed fork-wait spans are
  /// recorded only then).
  static bool enabled() {
    // mo: on/off gate; stale reads tolerated
    return (flags_.load(std::memory_order_relaxed) & kRetainBit) != 0;
  }
  static void EnableRecording() { SetFlag(kRecordBit, true); }
  static void DisableRecording() { SetFlag(kRecordBit, false); }
  void Enable() { SetFlag(kRetainBit, true); }
  void Disable() { SetFlag(kRetainBit, false); }

  /// Microseconds since the trace epoch (process start).
  static int64_t NowMicros();

  /// The one record path: appends an event to the calling thread's log.
  static void Record(const char* name, char ph, int64_t ts_us, int64_t value);
  static void RecordSpan(const char* name, int64_t start_us, int64_t dur_us) {
    Record(name, 'X', start_us, dur_us);
  }
  static void RecordCounter(const char* name, int64_t value) {
    if (recording()) Record(name, 'C', NowMicros(), value);
  }
  static void RecordInstant(const char* name) {
    if (recording()) Record(name, 'i', NowMicros(), 0);
  }
  /// One end ('s' or 'f') of the flow arrow `id` at the current time.
  static void RecordFlow(const char* name, char ph, uint64_t id) {
    if (recording()) Record(name, ph, NowMicros(), static_cast<int64_t>(id));
  }

  /// Allocates a process-unique nonzero flow id (for WireMessage::span).
  static uint64_t NextFlowId();

  /// Names the calling thread's lane ("worker-3"); the last name wins. A
  /// no-op while nothing is recorded.
  void SetCurrentThreadName(const std::string& name);

  /// Every event held — the retained events plus each ring's tail —
  /// sorted by timestamp; never-written slots are skipped.
  std::vector<TraceEvent> Snapshot() const;

  /// Snapshot() and the thread names as a Chrome trace-event document:
  ///   {"traceEvents":[{"name":...,"ph":"X","pid":0,"tid":...,
  ///                    "ts":...,"dur":...}, ...],"displayTimeUnit":"ms"}
  /// The one renderer behind --trace-out, perfbench's traced job and the
  /// incident bundle's trace.json. Safe while other threads record.
  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  /// Events retained (recorded with retain-all on) since Reset().
  int64_t event_count() const;
  /// Events held now: retained events plus ring tails.
  int64_t held_count() const;
  /// Events dropped because a thread exhausted its retain-all budget.
  int64_t dropped_count() const {
    return dropped_.load(std::memory_order_relaxed);  // mo: stat counter
  }
  /// Registered logs: live recording threads' plus pooled ones.
  size_t log_count() const;

  /// Discards every event and thread name and frees the pooled logs;
  /// live threads keep their (emptied) logs. For tests and between runs:
  /// events recorded concurrently may survive or be lost.
  void Reset();

 private:
  static constexpr uint8_t kRecordBit = 1;
  static constexpr uint8_t kRetainBit = 2;
  static constexpr uint64_t kNotRetaining = ~uint64_t{0};

  /// 32 bytes: the tid sits in what would be padding.
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<int64_t> ts_us{0};
    std::atomic<int64_t> value{0};
    std::atomic<char> ph{0};
    std::atomic<uint32_t> tid{0};
  };
  struct Ring {
    Slot slots[kRingCapacity];
  };
  /// Events at positions [begin, end) of `ring` (slot = position % size).
  struct RetainedRing {
    std::unique_ptr<Ring> ring;
    uint64_t begin = 0;
    uint64_t end = 0;
  };
  /// `ring` changes only under log_mu_; its owner reads it freely.
  struct ThreadLog {
    std::unique_ptr<Ring> ring;
    std::atomic<uint64_t> head{0};  ///< next position; release-published
    /// Position of the first retained event in `ring`, or kNotRetaining.
    std::atomic<uint64_t> retain_begin{kNotRetaining};
    std::atomic<uint32_t> tid{0};      ///< owner's tid; 0 while pooled
    std::atomic<uint32_t> spilled{0};  ///< rings the owner retained
  };

  Tracer() = default;
  static void SetFlag(uint8_t bit, bool on);
  /// Gives the calling thread a pooled or new log; nullptr after the
  /// thread released its log at exit.
  ThreadLog* Claim();
  /// Thread exit: keeps the retained events and pools the log.
  void Release(ThreadLog* log);
  /// Moves the owner's ring to the retained list and starts a fresh one,
  /// which keeps retaining with `make_room` (fails past the budget).
  bool Spill(ThreadLog* log, bool make_room);
  void RetainRingLocked(ThreadLog* log) SY_REQUIRES(log_mu_);
  /// event_count() or held_count().
  int64_t Count(bool retained_only) const;
  static void AppendSlots(const Ring& ring, uint64_t begin, uint64_t end,
                          std::vector<TraceEvent>* out);
  /// Forgets the names of threads none of whose events are still held.
  void PruneNamesLocked() SY_REQUIRES(log_mu_);
  friend struct LogReleaser;

  static std::atomic<uint8_t> flags_;
  /// Guards the registry, the retained list and the names; never held
  /// while writing events. Leaf lock (docs/LOCK_ORDER.md).
  mutable sy::Mutex log_mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_ SY_GUARDED_BY(log_mu_);
  std::vector<RetainedRing> retained_ SY_GUARDED_BY(log_mu_);
  std::map<uint32_t, std::string> names_ SY_GUARDED_BY(log_mu_);
  uint32_t next_tid_ SY_GUARDED_BY(log_mu_) = 1;
  std::atomic<int64_t> dropped_{0};
};

/// RAII span: records a complete event from construction to destruction.
/// `name` must be a string literal (or otherwise outlive the tracer).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(Tracer::recording() ? name : nullptr),
        start_us_(name_ != nullptr ? Tracer::NowMicros() : 0) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (name_ != nullptr) {
      Tracer::Record(name_, 'X', start_us_, Tracer::NowMicros() - start_us_);
    }
  }

 private:
  const char* const name_;
  const int64_t start_us_;
};

#define SG_TRACE_CONCAT_INNER(a, b) a##b
#define SG_TRACE_CONCAT(a, b) SG_TRACE_CONCAT_INNER(a, b)

/// Traces the enclosing scope as a span named `name` (a string literal).
#define SG_TRACE_SPAN(name) \
  ::serigraph::TraceSpan SG_TRACE_CONCAT(sg_trace_span_, __COUNTER__)(name)

/// Records an already-measured interval (for spans that do not map to a
/// lexical scope, e.g. token hold times).
#define SG_TRACE_INTERVAL(name, start_us, dur_us) \
  ::serigraph::Tracer::Record((name), 'X', (start_us), (dur_us))

/// Records a counter sample on the calling thread's track.
#define SG_TRACE_COUNTER(name, value) \
  ::serigraph::Tracer::RecordCounter((name), (value))

}  // namespace serigraph

#endif  // SERIGRAPH_OBS_TRACE_H_
