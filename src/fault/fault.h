#ifndef SERIGRAPH_FAULT_FAULT_H_
#define SERIGRAPH_FAULT_FAULT_H_

/// Deterministic fault injection (docs/FAULT_TOLERANCE.md).
///
/// A FaultPlan is a list of events, each of which fires at a named injection
/// point (worker crash/hang), on the wire (drop/duplicate/delay), or inside
/// the checkpoint writer (ENOSPC / torn write). Plans are parsed from a small
/// line-based text format or generated from a seed, so every chaos run is
/// reproducible from `(plan text | seed)` alone.
///
/// The injector is a process-wide singleton, mirroring Tracer/Introspector:
/// exactly one engine run may arm it at a time. When disarmed the only cost
/// at an injection point is one relaxed atomic load (the SG_FAULT_POINT
/// macro short-circuits before taking any lock).

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace serigraph {

/// What an armed fault event does when it fires.
enum class FaultAction : uint8_t {
  kCrash = 0,      ///< worker abandons work at an injection point (thread death)
  kHang = 1,       ///< worker blocks at an injection point until recovery aborts
  kDrop = 2,       ///< wire message silently discarded (its link seq is consumed)
  kDuplicate = 3,  ///< wire message delivered twice with the same link seq
  kDelay = 4,      ///< wire message (and link, via the FIFO clamp) delayed
  kCkptFail = 5,   ///< WriteCheckpoint returns IoError (simulated ENOSPC)
  kCkptTorn = 6,   ///< WriteCheckpoint truncates the frame but reports success
};

const char* FaultActionName(FaultAction action);

/// One scheduled fault. `hit` is 1-based: the event fires on the hit-th
/// matching occurrence and stays live for `count` consecutive matches.
/// Match counters persist across recovery attempts, so a `hit=3 count=1`
/// crash fires exactly once per run, not once per attempt.
struct FaultEvent {
  FaultAction action = FaultAction::kCrash;
  std::string point;     ///< injection point name (crash/hang only)
  int worker = -1;       ///< crash/hang: restrict to this worker (-1 = any)
  int64_t hit = 1;       ///< fire on the hit-th match (1-based)
  int64_t count = 1;     ///< stay live for this many matches
  int64_t delay_us = 0;  ///< kDelay: extra latency applied to the message
  int src = -1;          ///< wire faults: restrict to this sender (-1 = any)
  int dst = -1;          ///< wire faults: restrict to this receiver (-1 = any)
  int kind = -1;         ///< wire faults: restrict to this MessageKind (-1 = any)

  std::string ToString() const;
};

/// Decision returned to Transport::Send for one outgoing message.
struct WireFaultDecision {
  bool drop = false;
  bool duplicate = false;
  int64_t extra_delay_us = 0;
};

/// Decision returned to WriteCheckpoint.
enum class CheckpointFault : uint8_t { kNone = 0, kFail = 1, kTorn = 2 };

/// A parsed or generated schedule of fault events.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  std::string ToString() const;

  /// Parses the line-based plan format (see docs/FAULT_TOLERANCE.md):
  ///   crash point=engine.pre_barrier worker=1 hit=3
  ///   hang point=cm.acquire worker=0 hit=5
  ///   drop kind=data src=0 dst=2 hit=3 count=1
  ///   dup kind=control hit=7 count=2
  ///   delay us=50000 hit=2 count=4
  ///   ckpt-fail hit=1 count=2
  ///   ckpt-torn hit=2
  /// Blank lines and `#` comments are ignored.
  static StatusOr<FaultPlan> Parse(const std::string& text);
  static StatusOr<FaultPlan> ParseFile(const std::string& path);

  /// Deterministic random plan: always at least one crash/hang at a random
  /// engine or sync injection point on a pinned worker, sometimes a wire
  /// fault on top. Same (seed, num_workers) -> same plan.
  static FaultPlan Random(uint64_t seed, int num_workers);
};

/// Bounded-retry policy with exponential backoff (checkpoint writes and the
/// engine recovery loop both use one).
struct RetryPolicy {
  int max_attempts = 3;           ///< total tries, including the first
  int64_t initial_backoff_ms = 2;
  double multiplier = 2.0;
  int64_t max_backoff_ms = 1000;

  /// Backoff to sleep after the (failures)-th failed attempt (0-based).
  int64_t BackoffMs(int failures) const;
};

/// Process-wide fault injector. Armed by the engine (or a test) with a
/// FaultPlan; all SG_FAULT_POINT / OnWire / OnCheckpointWrite probes consult
/// it. Thread-safe; match counters are updated under one internal mutex
/// (tier fault.injector, standalone — probes are only placed at sites where
/// no other serigraph lock is held).
class FaultInjector {
 public:
  /// Invoked (with no injector lock held) when a crash event fires.
  /// The engine marks the worker dead and notifies the watchdog.
  using CrashHandler = std::function<void(int worker, const char* point)>;

  static FaultInjector& Get();

  // mo: arm gate; armed sites recheck under mu_
  static bool armed() { return armed_.load(std::memory_order_relaxed); }

  /// Installs `plan` and starts matching. Any previous plan is discarded
  /// (its hung threads are released first).
  void Arm(const FaultPlan& plan);

  /// Stops matching, clears the plan and crash handler, releases hangs.
  void Disarm();

  void SetCrashHandler(CrashHandler handler);

  /// Probe for a crash/hang injection point; prefer the SG_FAULT_POINT
  /// macro. Returns true when the calling worker must abandon its current
  /// work (it "crashed", or it was hung and recovery released it).
  bool Hit(const char* point, int worker);

  /// Probe for one outgoing wire message.
  WireFaultDecision OnWire(int src, int dst, int kind);

  /// Probe for one checkpoint write.
  CheckpointFault OnCheckpointWrite();

  /// Unblocks every thread currently parked in a kHang event (they return
  /// `true` from Hit and abandon their work). Called by the engine when a
  /// failed attempt is being torn down.
  void ReleaseHangs();

  /// Total events fired since Arm (all kinds).
  int64_t events_fired() const;

  /// Human-readable log of fired events, in firing order.
  std::vector<std::string> fired_log() const;

 private:
  FaultInjector() = default;

  struct Slot {
    FaultEvent event;
    int64_t matches = 0;
  };

  /// Bumps the slot's match counter; true when it lands inside the firing
  /// window [hit, hit + count).
  bool MatchLocked(Slot& slot) SY_REQUIRES(mu_);
  void RecordFiredLocked(const FaultEvent& event, int worker)
      SY_REQUIRES(mu_);

  static std::atomic<bool> armed_;

  mutable sy::Mutex mu_;
  sy::CondVar hang_cv_;
  std::vector<Slot> slots_ SY_GUARDED_BY(mu_);
  uint64_t hang_epoch_ SY_GUARDED_BY(mu_) = 0;
  int64_t fired_ SY_GUARDED_BY(mu_) = 0;
  std::vector<std::string> fired_log_ SY_GUARDED_BY(mu_);
  CrashHandler crash_handler_ SY_GUARDED_BY(mu_);
};

/// Crash/hang probe: evaluates to true when the caller must abandon its
/// current unit of work. One relaxed load when disarmed.
///
/// Every fault point doubles as a serichk schedule point: under a
/// model-checking scheduler (common/schedule_hooks.h) the leading
/// SchedulePoint call lets the explorer preempt here, so the places
/// chosen as "interesting for fault injection" are also the places
/// interleavings branch. Another relaxed-load no-op otherwise.
#define SG_FAULT_POINT(point, worker)      \
  (::sy::SchedulePoint(point),             \
   ::serigraph::FaultInjector::armed() &&  \
       ::serigraph::FaultInjector::Get().Hit((point), (worker)))

}  // namespace serigraph

#endif  // SERIGRAPH_FAULT_FAULT_H_
