#ifndef SERIGRAPH_OBS_WATCHDOG_H_
#define SERIGRAPH_OBS_WATCHDOG_H_

#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/introspect.h"
#include "obs/waitfor.h"

namespace serigraph {

struct WatchdogOptions {
  /// Sampling period of every check. Each tick reads all beacons; with
  /// introspection it also assembles the wait-for graph and appends one
  /// JSONL snapshot (if jsonl_path is set). 10 ms false-positives
  /// deadlock confirmation under TSan.
  int period_ms = 25;
  /// A worker blocked longer than this with no global progress is a stall.
  int stall_ms = 2000;
  /// Convert a confirmed stall or deadlock into Introspector::RequestAbort
  /// so the engine fails the run cleanly instead of hanging.
  bool abort_on_stall = false;
  /// JSONL event-log destination, appended to (the engine truncates it
  /// once per Run, so a recovered run keeps every attempt's snapshots);
  /// empty disables streaming (snapshots are still taken for
  /// stall/deadlock detection and the final summary).
  std::string jsonl_path;
  /// Failure detection: a runnable worker (blocked == 0) whose progress
  /// epoch has not moved for this long is declared hung.
  int64_t heartbeat_timeout_ms = 2000;
  /// Failure detection: no worker, blocked or not, made progress for
  /// this long; the stalest is blamed. Catches hangs inside blocked
  /// sections and lost flush/ack markers.
  int64_t global_stall_timeout_ms = 10000;
};

struct FailureReport {
  int worker = -1;
  std::string reason;
};

/// End-of-run digest of what the watchdog saw, merged into the run report.
struct WatchdogSummary {
  int64_t snapshots = 0;
  int64_t stalls_flagged = 0;
  int64_t deadlocks_detected = 0;
  /// Human-readable stall/deadlock reports, in detection order.
  std::vector<std::string> incidents;
  /// Wait-for graph of the last sample taken (the Stop() sample).
  WaitForGraph last_graph;
  std::vector<ContentionEntry> top_contention;
  std::vector<EdgeContentionEntry> top_edges;
};

/// The run's one liveness monitor: a background sampler over the
/// Introspector's beacons serving two roles, each enabled separately.
///
/// Introspection (`introspect`): stall and deadlock detection, the JSONL
/// event log, and the end-of-run summary.
///
/// Failure detection (`on_failure` set, i.e. fault tolerance is on), for
/// the engine's recovery loop (docs/FAULT_TOLERANCE.md). Channels,
/// fastest first: ReportDeath (a crash handler names the dead worker),
/// ReportLoss (a link-sequence gap), ReportProtocolViolation, then the
/// sampled heartbeat and global-stall timeouts over each beacon's
/// progress epoch and blocked count. The first failure wins; reports
/// after Stop() are ignored.
///
/// Deadlock policy: Chandy-Misra's hygienic protocol is deadlock-free, so
/// a wait-for cycle observed in one sample is expected (forks are in
/// flight); a cycle is only *confirmed* — and reported loudly — when the
/// same worker cycle shows up in two consecutive samples with none of the
/// involved workers advancing their progress epoch in between. Stalls use
/// the same progress evidence: a worker blocked > stall_ms while the sum
/// of all progress epochs is frozen.
///
/// Start()/Stop() bracket an engine run; Stop() always takes a final
/// sample so even sub-period runs produce at least one snapshot.
class Watchdog {
 public:
  /// Invoked exactly once, on the first detected failure, with no
  /// watchdog lock held (it may take engine locks).
  using FailureCallback = std::function<void(const FailureReport&)>;

  explicit Watchdog(WatchdogOptions options, FailureCallback on_failure = {},
                    bool introspect = true)
      : options_(std::move(options)),
        on_failure_(std::move(on_failure)),
        introspect_(introspect) {}
  ~Watchdog() { Stop(); }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Starts the sampler thread. The Introspector must already be
  /// Configure()d and Enable()d. No-op if already running.
  void Start();

  /// Stops the sampler, takes the final sample, and freezes summary().
  /// Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Valid after Stop().
  const WatchdogSummary& summary() const { return summary_; }

  const WatchdogOptions& options() const { return options_; }

  bool detects_failures() const { return on_failure_ != nullptr; }

  /// Immediate failure: the worker is known dead (injected crash).
  void ReportDeath(int worker, const std::string& reason);
  /// Immediate failure: the transport saw a sequence gap on src->dst.
  void ReportLoss(int src, int dst, uint64_t expected, uint64_t got);
  /// Immediate failure: a protocol invariant broke in a way only a lost
  /// or corrupt message can produce (a fork request for a fork whose
  /// transfer vanished, an undecodable data batch).
  void ReportProtocolViolation(int worker, const std::string& reason);

 private:
  void Loop();
  /// One sampling tick; `final_sample` marks the Stop() sample in the log.
  void Sample(bool final_sample);
  void WriteSnapshotJson(const std::vector<BeaconSnapshot>& beacons,
                         const WaitForGraph& graph,
                         const std::vector<int>& cycle, int64_t t_us,
                         bool final_sample);
  void WriteIncidentJson(const std::string& type, const std::string& detail,
                         const WaitForGraph& graph, int64_t t_us);
  void ReportIncident(const std::string& type, const std::string& detail,
                      const WaitForGraph& graph, int64_t t_us);
  /// Heartbeat and global-stall timeouts over one tick's beacons.
  void CheckLiveness(const std::vector<BeaconSnapshot>& beacons,
                     int64_t t_us);
  /// First failure wins; later calls (and any call after Stop) are no-ops.
  void Fail(int worker, std::string reason);

  const WatchdogOptions options_;
  const FailureCallback on_failure_;
  const bool introspect_;
  std::atomic<bool> failed_{false};
  std::atomic<bool> stopped_{false};

  std::thread thread_;
  /// Atomic: running() may be polled from any thread while Start()/Stop()
  /// write it (was a plain bool; flagged by the annotation pass).
  std::atomic<bool> running_{false};
  sy::Mutex stop_mu_;
  sy::CondVar stop_cv_;
  bool stop_requested_ SY_GUARDED_BY(stop_mu_) = false;

  std::ofstream jsonl_;

  // Detection state (sampler thread only).
  std::vector<int> prev_cycle_;
  std::vector<uint64_t> prev_cycle_epochs_;
  uint64_t last_progress_sum_ = 0;
  int64_t last_progress_change_us_ = 0;
  bool stall_active_ = false;
  bool deadlock_reported_ = false;
  /// Per worker: last progress epoch seen and when it last changed.
  struct Liveness {
    uint64_t progress = 0;
    int64_t since_us = 0;
  };
  std::vector<Liveness> liveness_;

  WatchdogSummary summary_;
};

}  // namespace serigraph

#endif  // SERIGRAPH_OBS_WATCHDOG_H_
