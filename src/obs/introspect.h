#ifndef SERIGRAPH_OBS_INTROSPECT_H_
#define SERIGRAPH_OBS_INTROSPECT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "graph/types.h"
#include "obs/waitfor.h"

namespace serigraph {

/// What a worker's compute side is doing right now, published via its
/// beacon. Blocked phases (kForkWait) are the ones the watchdog inspects
/// for wait-for edges; kBarrierWait/kFlushWait are the engine's normal
/// end-of-superstep synchronization.
enum class WorkerPhase : uint8_t {
  kIdle = 0,
  kCompute = 1,
  kForkWait = 2,
  kFlushWait = 3,
  kBarrierWait = 4,
};

const char* WorkerPhaseName(WorkerPhase phase);

/// Aggregate wait-time attribution for one contended resource
/// (philosopher id: a partition under partition-based locking, a vertex
/// under vertex-based locking / GAS).
struct ContentionEntry {
  int64_t resource = -1;
  int64_t count = 0;         ///< blocked acquires that waited on it
  int64_t total_wait_us = 0;
  int64_t max_wait_us = 0;
};

/// Wait-time attribution for one edge of the wait-for graph: acquiring
/// `waiter` was blocked on the fork shared with `blocker`.
struct EdgeContentionEntry {
  int64_t waiter = -1;
  int64_t blocker = -1;
  int64_t count = 0;
  int64_t total_wait_us = 0;
};

/// One coherent read of a worker's beacon (the watchdog's view). Fields
/// are sampled individually from relaxed atomics, so a snapshot can mix
/// states across a phase change — the watchdog tolerates that by
/// requiring persistence across samples before alarming.
struct BeaconSnapshot {
  static constexpr int kMaxWaitTargets = 16;

  WorkerPhase phase = WorkerPhase::kIdle;
  int superstep = 0;
  /// Tracer::NowMicros() when the current phase was entered.
  int64_t phase_since_us = 0;
  /// Monotonic per-worker progress counter: bumped on every vertex the
  /// frontier walk visits, completed fork acquisition, blocked-section
  /// exit, and superstep completion. The watchdog's only progress signal.
  uint64_t progress_epoch = 0;
  /// Nesting depth of ScopedBlocked sections (ack, fork, barrier waits):
  /// > 0 exempts the worker from the per-worker heartbeat timeout.
  int blocked = 0;
  /// Philosopher currently being acquired (-1 when not in kForkWait).
  int64_t acquiring = -1;
  /// Worker currently holding the global token (-1 for lock techniques).
  int64_t token_holder = -1;
  /// Transport inbox depth / buffered outgoing bytes; filled by the
  /// watchdog via the queue probe, 0 when no probe is registered.
  int64_t inbox_depth = 0;
  int64_t outbox_bytes = 0;
  /// Missing forks published at wait entry: the neighbor philosopher the
  /// fork is shared with and the worker that owns it. `wait_total` may
  /// exceed kMaxWaitTargets; only the first kMaxWaitTargets are listed.
  int wait_count = 0;
  int wait_total = 0;
  int64_t wait_resource[kMaxWaitTargets] = {};
  int32_t wait_owner[kMaxWaitTargets] = {};
};

/// Process-wide runtime introspection hub: per-worker state beacons, a
/// fork-contention profile, and the abort channel the watchdog uses to
/// convert confirmed stalls into clean run failures.
///
/// Same design contract as the Tracer (obs/trace.h): when disabled, every
/// hook is one relaxed atomic load and a branch; when enabled, beacon
/// updates are a handful of relaxed stores by the owning worker thread
/// (no locks), and only the contention profile takes a per-worker mutex —
/// on the already-blocked acquire path, never on uncontended acquires.
///
/// Lifecycle: an engine run calls Configure() (which clears all state
/// from the previous run), Enable(), and Disable() at teardown. Exactly
/// one run may use the introspector at a time.
class Introspector {
 public:
  static constexpr int kMaxWaitTargets = BeaconSnapshot::kMaxWaitTargets;

  struct WaitTarget {
    int64_t resource = -1;
    int32_t owner = -1;
  };

  static Introspector& Get();

  /// Fast global check, inlined into every hook call site.
  // mo: on/off gate; stale reads tolerated
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Sizes the beacon array and clears beacons, contention, and the abort
  /// flag. `resource_kind` labels philosopher ids in reports
  /// ("partition" or "vertex"). Must not race with hooks or the watchdog.
  void Configure(int num_workers, std::string resource_kind);

  // mo: on/off gate; stale reads tolerated
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  // mo: on/off gate; stale reads tolerated
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  int num_workers() const { return num_workers_; }
  const std::string& resource_kind() const { return resource_kind_; }

  // --- beacon updates (called from worker threads) --------------------

  void SetPhase(WorkerId w, WorkerPhase phase, int superstep);

  /// Worker `w` is entering a blocked fork acquisition of `resource`,
  /// missing `total` forks; the first `count` (<= kMaxWaitTargets) are
  /// published as wait-for edges.
  void BeginAcquire(WorkerId w, int64_t resource, const WaitTarget* targets,
                    int count, int total);

  /// The acquisition of `resource` finished (acquired=true) or was
  /// abandoned because of an abort (acquired=false): clears the wait
  /// edges, attributes `wait_us` to the contention profile, and counts
  /// progress.
  void EndAcquire(WorkerId w, int64_t resource, int64_t wait_us,
                  bool acquired);

  /// Bumps `w`'s progress epoch (vertex visited, superstep completed).
  void OnProgress(WorkerId w);

  /// Brackets a legitimate long wait (ack, fork acquisition, barrier);
  /// nestable. Use ScopedBlocked. Exit counts as progress.
  void EnterBlocked(WorkerId w);
  void ExitBlocked(WorkerId w);

  void SetTokenHolder(WorkerId w, int64_t holder);

  /// Direct contention attribution for engines that block on plain locks
  /// rather than ChandyMisraTable (the GAS engine's neighborhood locks).
  void RecordWait(WorkerId w, int64_t resource, int64_t wait_us);

  // --- watchdog-side reads --------------------------------------------

  BeaconSnapshot ReadBeacon(WorkerId w) const;
  /// ReadBeacon for every worker, indexed by worker id.
  std::vector<BeaconSnapshot> ReadBeacons() const;

  /// Assembles the instantaneous wait-for graph from all beacons
  /// currently in kForkWait.
  WaitForGraph BuildWaitForGraph() const;

  /// Top `k` resources by total attributed wait time.
  std::vector<ContentionEntry> ContentionTopK(int k) const;

  /// Top `k` wait-for-graph edges by total attributed wait time.
  std::vector<EdgeContentionEntry> EdgeContentionTopK(int k) const;

  // --- queue-depth probe ----------------------------------------------

  /// The engine registers a probe so the watchdog can sample transport
  /// inbox depth and buffered outbox bytes per worker. The probe runs on
  /// the watchdog thread; it must be cleared before the probed objects
  /// are destroyed.
  using QueueProbe =
      std::function<void(WorkerId w, int64_t* inbox_depth,
                         int64_t* outbox_bytes)>;
  void SetQueueProbe(QueueProbe probe);
  void ClearQueueProbe();
  /// Invokes the probe if registered; otherwise leaves outputs at 0.
  void ProbeQueues(WorkerId w, int64_t* inbox_depth,
                   int64_t* outbox_bytes) const;

  // --- abort channel ----------------------------------------------------

  /// Requests a clean abort of the current run (watchdog: confirmed
  /// stall/deadlock). Blocked acquires return without their forks, and
  /// the engine converts the flag into Status::Aborted at the next
  /// barrier. First caller wins; later reasons are dropped.
  void RequestAbort(const std::string& reason);
  bool abort_requested() const {
    return abort_requested_.load(std::memory_order_acquire);
  }
  std::string abort_reason() const;

 private:
  /// All fields are relaxed atomics written by the owning worker thread
  /// and read by the watchdog: torn multi-field reads are acceptable for
  /// monitoring and TSan-clean by construction (no seqlock games).
  struct Beacon {
    std::atomic<uint8_t> phase{0};
    std::atomic<int> superstep{0};
    std::atomic<int64_t> phase_since_us{0};
    std::atomic<uint64_t> progress_epoch{0};
    std::atomic<int> blocked{0};
    std::atomic<int64_t> acquiring{-1};
    std::atomic<int64_t> token_holder{-1};
    std::atomic<int> wait_count{0};
    std::atomic<int> wait_total{0};
    std::atomic<int64_t> wait_resource[kMaxWaitTargets];
    std::atomic<int32_t> wait_owner[kMaxWaitTargets];
  };

  struct ContentionCell {
    int64_t count = 0;
    int64_t total_wait_us = 0;
    int64_t max_wait_us = 0;
  };

  /// Sharded per worker: a shard is only written by its worker's compute
  /// threads, so the mutex is effectively uncontended (the watchdog takes
  /// it briefly to merge).
  struct ContentionShard {
    mutable sy::Mutex mu;
    std::unordered_map<int64_t, ContentionCell> by_resource SY_GUARDED_BY(mu);
    std::map<std::pair<int64_t, int64_t>, ContentionCell> by_edge
        SY_GUARDED_BY(mu);
  };

  Introspector() = default;

  static std::atomic<bool> enabled_;

  int num_workers_ = 0;
  std::string resource_kind_ = "resource";
  std::vector<std::unique_ptr<Beacon>> beacons_;
  std::vector<std::unique_ptr<ContentionShard>> contention_;

  mutable sy::Mutex probe_mu_;
  QueueProbe queue_probe_ SY_GUARDED_BY(probe_mu_);

  std::atomic<bool> abort_requested_{false};
  mutable sy::Mutex abort_mu_;
  std::string abort_reason_ SY_GUARDED_BY(abort_mu_);
};

/// RAII blocked-section marker for worker `w`; a no-op while the
/// introspector is disabled (decided once, at entry).
class ScopedBlocked {
 public:
  explicit ScopedBlocked(WorkerId w)
      : worker_(Introspector::enabled() ? w : -1) {
    if (worker_ >= 0) Introspector::Get().EnterBlocked(worker_);
  }
  ~ScopedBlocked() {
    if (worker_ >= 0) Introspector::Get().ExitBlocked(worker_);
  }

  ScopedBlocked(const ScopedBlocked&) = delete;
  ScopedBlocked& operator=(const ScopedBlocked&) = delete;

 private:
  WorkerId worker_;
};

/// Renders beacon snapshots (index = worker id) as the JSON array shared
/// by /statusz, incident bundles, and the watchdog JSONL.
std::string BeaconJson(const std::vector<BeaconSnapshot>& beacons);

}  // namespace serigraph

#endif  // SERIGRAPH_OBS_INTROSPECT_H_
