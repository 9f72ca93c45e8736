// Fault-injection and live crash-recovery tests (docs/FAULT_TOLERANCE.md):
// plan parsing, the injector's deterministic firing windows, and — the
// core of it — engines that survive crashes, hangs, message loss, and
// checkpoint corruption mid-superstep and still land on the fault-free
// fixpoint, with the recorded history serializable across the recovery
// boundary.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "algos/coloring.h"
#include "algos/sssp.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "pregel/engine.h"
#include "verify/history.h"

namespace serigraph {
namespace {

// ---------------------------------------------------------------------------
// Plan parsing and generation.

TEST(FaultPlanTest, ParsesEveryActionAndRoundTrips) {
  const std::string text =
      "# chaos schedule\n"
      "crash point=engine.pre_barrier worker=1 hit=3\n"
      "hang point=cm.acquire worker=0 hit=5\n"
      "\n"
      "drop kind=control src=0 dst=2 hit=3 count=1\n"
      "dup hit=7 count=2\n"
      "delay us=50000 hit=2 count=4\n"
      "ckpt-fail hit=1 count=2\n"
      "ckpt-torn hit=2\n";
  auto plan = FaultPlan::Parse(text);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->events.size(), 7u);
  EXPECT_EQ(plan->events[0].action, FaultAction::kCrash);
  EXPECT_EQ(plan->events[0].point, "engine.pre_barrier");
  EXPECT_EQ(plan->events[0].worker, 1);
  EXPECT_EQ(plan->events[0].hit, 3);
  EXPECT_EQ(plan->events[1].action, FaultAction::kHang);
  EXPECT_EQ(plan->events[2].action, FaultAction::kDrop);
  EXPECT_EQ(plan->events[2].src, 0);
  EXPECT_EQ(plan->events[2].dst, 2);
  EXPECT_EQ(plan->events[3].action, FaultAction::kDuplicate);
  EXPECT_EQ(plan->events[3].count, 2);
  EXPECT_EQ(plan->events[4].action, FaultAction::kDelay);
  EXPECT_EQ(plan->events[4].delay_us, 50000);
  EXPECT_EQ(plan->events[5].action, FaultAction::kCkptFail);
  EXPECT_EQ(plan->events[6].action, FaultAction::kCkptTorn);

  // ToString() output reparses to the identical plan.
  auto again = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->ToString(), plan->ToString());
}

TEST(FaultPlanTest, RejectsMalformedInput) {
  EXPECT_FALSE(FaultPlan::Parse("explode everything").ok());
  EXPECT_FALSE(FaultPlan::Parse("crash hit=1").ok());  // crash needs a point
  EXPECT_FALSE(FaultPlan::Parse("crash point=x hit=zero").ok());
  EXPECT_FALSE(FaultPlan::Parse("drop bogus=1").ok());
  EXPECT_FALSE(FaultPlan::ParseFile("/nonexistent/plan.txt").ok());
}

TEST(FaultPlanTest, RandomIsDeterministicInSeed) {
  const FaultPlan a = FaultPlan::Random(42, 4);
  const FaultPlan b = FaultPlan::Random(42, 4);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_FALSE(a.empty());
  // Seeds decorrelate: at least two distinct plans among a handful.
  std::vector<std::string> texts;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    texts.push_back(FaultPlan::Random(seed, 4).ToString());
  }
  int distinct = 0;
  for (size_t i = 1; i < texts.size(); ++i) {
    if (texts[i] != texts[0]) ++distinct;
  }
  EXPECT_GT(distinct, 0);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 2;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 10;
  EXPECT_EQ(policy.BackoffMs(0), 2);
  EXPECT_EQ(policy.BackoffMs(1), 4);
  EXPECT_EQ(policy.BackoffMs(2), 8);
  EXPECT_EQ(policy.BackoffMs(3), 10);   // capped
  EXPECT_EQ(policy.BackoffMs(50), 10);  // stays capped
}

// ---------------------------------------------------------------------------
// Injector unit behavior (no engine).

TEST(FaultInjectorTest, DisarmedProbesAreNoOps) {
  ASSERT_FALSE(FaultInjector::armed());
  EXPECT_FALSE(SG_FAULT_POINT("engine.pre_barrier", 0));
  const WireFaultDecision wire = FaultInjector::Get().OnWire(0, 1, 0);
  EXPECT_FALSE(wire.drop);
  EXPECT_FALSE(wire.duplicate);
  EXPECT_EQ(FaultInjector::Get().OnCheckpointWrite(), CheckpointFault::kNone);
}

TEST(FaultInjectorTest, CrashFiresInsideHitWindowOnly) {
  FaultPlan plan;
  FaultEvent event;
  event.action = FaultAction::kCrash;
  event.point = "test.point";
  event.worker = 0;
  event.hit = 2;
  event.count = 2;
  plan.events.push_back(event);

  FaultInjector& injector = FaultInjector::Get();
  injector.Arm(plan);
  int crashed_worker = -1;
  std::string crashed_point;
  injector.SetCrashHandler([&](int worker, const char* point) {
    crashed_worker = worker;
    crashed_point = point;
  });

  EXPECT_FALSE(SG_FAULT_POINT("test.point", 1));  // wrong worker
  EXPECT_FALSE(SG_FAULT_POINT("other.point", 0)); // wrong point
  EXPECT_FALSE(SG_FAULT_POINT("test.point", 0));  // match 1 < hit
  EXPECT_TRUE(SG_FAULT_POINT("test.point", 0));   // match 2: fires
  EXPECT_EQ(crashed_worker, 0);
  EXPECT_EQ(crashed_point, "test.point");
  EXPECT_TRUE(SG_FAULT_POINT("test.point", 0));   // match 3: still live
  EXPECT_FALSE(SG_FAULT_POINT("test.point", 0));  // window exhausted
  EXPECT_EQ(injector.events_fired(), 2);
  EXPECT_EQ(injector.fired_log().size(), 2u);

  injector.Disarm();
  EXPECT_FALSE(FaultInjector::armed());
  EXPECT_FALSE(SG_FAULT_POINT("test.point", 0));
}

TEST(FaultInjectorTest, WireWindowCountsPerMatchingMessage) {
  FaultPlan plan;
  FaultEvent drop;
  drop.action = FaultAction::kDrop;
  drop.src = 0;
  drop.hit = 2;
  drop.count = 1;
  plan.events.push_back(drop);
  FaultInjector& injector = FaultInjector::Get();
  injector.Arm(plan);
  EXPECT_FALSE(injector.OnWire(1, 0, 0).drop);  // wrong src, no match
  EXPECT_FALSE(injector.OnWire(0, 1, 0).drop);  // match 1
  EXPECT_TRUE(injector.OnWire(0, 1, 0).drop);   // match 2: fires
  EXPECT_FALSE(injector.OnWire(0, 1, 0).drop);  // window over
  injector.Disarm();
}

// ---------------------------------------------------------------------------
// Engine-level recovery. Shared helpers.

Graph TestGraph() {
  // Seed chosen so SSSP from vertex 0 actually propagates for several
  // supersteps (some seeds leave the source without out-edges, which
  // would let every injection window expire unfired).
  auto g = Graph::FromEdgeList(ErdosRenyi(200, 800, 2));
  SG_CHECK(g.ok());
  return std::move(g).value();
}

EngineOptions FaultOptions(SyncMode mode) {
  EngineOptions opts;
  opts.sync_mode = mode;
  opts.num_workers = 3;
  opts.partitions_per_worker = 2;
  opts.checkpoint_every = 2;
  opts.checkpoint_dir = testing::TempDir();
  opts.fault.recover = true;
  opts.fault.recovery_backoff_ms = 1;
  // Keep detection fast so hang/stall tests do not dominate suite time.
  opts.watchdog.heartbeat_timeout_ms = 1500;
  opts.watchdog.global_stall_timeout_ms = 4000;
  opts.max_supersteps = 20000;
  return opts;
}

FaultEvent CrashAt(const std::string& point, int worker, int64_t hit) {
  FaultEvent event;
  event.action = FaultAction::kCrash;
  event.point = point;
  event.worker = worker;
  event.hit = hit;
  return event;
}

std::vector<int64_t> SsspBaseline(Graph& graph, SyncMode mode) {
  EngineOptions opts;
  opts.sync_mode = mode;
  opts.num_workers = 3;
  opts.partitions_per_worker = 2;
  opts.max_supersteps = 20000;
  Engine<Sssp> engine(&graph, opts);
  auto result = engine.Run(Sssp(0));
  SG_CHECK(result.ok());
  SG_CHECK(result->stats.converged);
  // Injection windows (hit <= 3) must fall inside the run.
  SG_CHECK_GT(result->stats.supersteps, 4);
  return result->values;
}

// Crash one worker at every engine injection point, under every
// synchronization technique; the run must detect the failure, restore
// from the last good checkpoint, and land on the fault-free fixpoint.
TEST(CrashRecoveryTest, EveryPointEveryTechniqueResumesToFixpoint) {
  Graph graph = TestGraph();
  const SyncMode kModes[] = {
      SyncMode::kSingleLayerToken,
      SyncMode::kDualLayerToken,
      SyncMode::kVertexLocking,
      SyncMode::kPartitionLocking,
  };
  for (SyncMode mode : kModes) {
    const std::vector<int64_t> expected = SsspBaseline(graph, mode);
    std::vector<FaultEvent> crashes = {
        CrashAt("engine.superstep_start", 1, 2),
        CrashAt("engine.post_compute", 1, 2),
        CrashAt("engine.pre_barrier", 1, 2),
        // The serial-section worker dies just before writing the frame.
        CrashAt("engine.pre_checkpoint", -1, 1),
    };
    // The technique-specific protocol points.
    if (mode == SyncMode::kSingleLayerToken ||
        mode == SyncMode::kDualLayerToken) {
      crashes.push_back(CrashAt("token.pass", -1, 2));
    } else {
      crashes.push_back(CrashAt("cm.acquire", -1, 3));
    }
    for (const FaultEvent& crash : crashes) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " point=" + crash.point);
      EngineOptions opts = FaultOptions(mode);
      opts.fault.plan.events.push_back(crash);
      Engine<Sssp> engine(&graph, opts);
      auto result = engine.Run(Sssp(0));
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_TRUE(result->stats.converged);
      EXPECT_EQ(result->values, expected);
      EXPECT_GE(result->stats.recovery_attempts, 1);
      EXPECT_GE(result->stats.Metric("fault.events_fired"), 1);
      EXPECT_GE(result->stats.Metric("recovery.worker_failures"), 1);
    }
  }
}

// A hang at each WorkerLoop fault point leaves the worker runnable (not
// inside an ack, fork or barrier wait), so the per-worker heartbeat must
// catch it well before the global stall timeout. pre_checkpoint hangs
// the barrier's serial-section worker, which has already left B2.
TEST(CrashRecoveryTest, HangedWorkerIsDetectedAndRecovered) {
  Graph graph = TestGraph();
  const std::vector<int64_t> expected =
      SsspBaseline(graph, SyncMode::kPartitionLocking);
  struct HangCase {
    const char* point;
    int worker;
  };
  const HangCase kCases[] = {
      {"engine.superstep_start", 1},
      {"engine.post_compute", 1},
      {"engine.pre_barrier", 1},
      {"engine.pre_checkpoint", -1},
  };
  for (const HangCase& c : kCases) {
    SCOPED_TRACE(std::string("point=") + c.point);
    EngineOptions opts = FaultOptions(SyncMode::kPartitionLocking);
    opts.watchdog.heartbeat_timeout_ms = 600;
    FaultEvent hang;
    hang.action = FaultAction::kHang;
    hang.point = c.point;
    hang.worker = c.worker;
    hang.hit = c.worker < 0 ? 1 : 2;
    opts.fault.plan.events.push_back(hang);
    Engine<Sssp> engine(&graph, opts);
    auto result = engine.Run(Sssp(0));
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->values, expected);
    EXPECT_GE(result->stats.recovery_attempts, 1);
    std::string failures;
    for (const std::string& event : result->stats.recovery_events) {
      if (event.rfind("failure detected: ", 0) == 0) failures += event + "\n";
    }
    EXPECT_NE(failures.find("unresponsive"), std::string::npos) << failures;
    EXPECT_EQ(failures.find("global stall"), std::string::npos) << failures;
  }
}

// The engine builds one watchdog per attempt; the JSONL must keep every
// attempt of a recovered run (truncated once per Run, appended to by each
// attempt), so it holds one final snapshot per attempt — and nothing
// from an earlier run.
TEST(CrashRecoveryTest, WatchdogJsonlKeepsEveryRecoveryAttempt) {
  Graph graph = TestGraph();
  EngineOptions opts = FaultOptions(SyncMode::kPartitionLocking);
  opts.introspect = true;
  opts.watchdog.heartbeat_timeout_ms = 600;
  opts.watchdog.jsonl_path = testing::TempDir() + "/recovery_watchdog.jsonl";
  {
    std::ofstream stale(opts.watchdog.jsonl_path, std::ios::trunc);
    for (int i = 0; i < 5; ++i) stale << "{\"final\":true}\n";
  }
  FaultEvent hang;
  hang.action = FaultAction::kHang;
  hang.point = "engine.post_compute";
  hang.worker = 1;
  hang.hit = 2;
  opts.fault.plan.events.push_back(hang);
  Engine<Sssp> engine(&graph, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GE(result->stats.recovery_attempts, 1);

  std::ifstream jsonl(opts.watchdog.jsonl_path);
  std::string line;
  int finals = 0;
  while (std::getline(jsonl, line)) {
    finals += line.find("\"final\":true") != std::string::npos;
  }
  EXPECT_GE(finals, 2);
  EXPECT_EQ(finals, result->stats.recovery_attempts + 1);
}

TEST(CrashRecoveryTest, CrashWithRecoveryDisabledAborts) {
  Graph graph = TestGraph();
  EngineOptions opts = FaultOptions(SyncMode::kVertexLocking);
  opts.fault.recover = false;
  opts.fault.plan.events.push_back(CrashAt("engine.superstep_start", 1, 2));
  Engine<Sssp> engine(&graph, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
}

TEST(CrashRecoveryTest, ExhaustedRetriesReportAborted) {
  Graph graph = TestGraph();
  EngineOptions opts = FaultOptions(SyncMode::kVertexLocking);
  opts.fault.max_recovery_attempts = 2;
  // One crash per attempt: initial + 2 recoveries, all poisoned.
  FaultEvent crash = CrashAt("engine.superstep_start", 1, 1);
  crash.count = 1000000;
  opts.fault.plan.events.push_back(crash);
  Engine<Sssp> engine(&graph, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_NE(result.status().message().find("exhausted"), std::string::npos)
      << result.status();
}

TEST(CrashRecoveryTest, RecoveryWithoutAnyCheckpointRestartsFromInitial) {
  Graph graph = TestGraph();
  const std::vector<int64_t> expected =
      SsspBaseline(graph, SyncMode::kDualLayerToken);
  EngineOptions opts = FaultOptions(SyncMode::kDualLayerToken);
  opts.checkpoint_every = 0;  // no frames ever written
  opts.fault.plan.events.push_back(CrashAt("engine.pre_barrier", 2, 2));
  Engine<Sssp> engine(&graph, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->values, expected);
  EXPECT_GE(result->stats.recovery_attempts, 1);
}

// ---------------------------------------------------------------------------
// Checkpoint-write faults (the previously-swallowed failure path).

TEST(CheckpointFaultTest, TransientWriteFailureIsRetried) {
  Graph graph = TestGraph();
  const std::vector<int64_t> expected =
      SsspBaseline(graph, SyncMode::kPartitionLocking);
  EngineOptions opts = FaultOptions(SyncMode::kPartitionLocking);
  FaultEvent fail;
  fail.action = FaultAction::kCkptFail;
  fail.hit = 1;
  fail.count = 2;  // first two write attempts fail; the retry succeeds
  opts.fault.plan.events.push_back(fail);
  Engine<Sssp> engine(&graph, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->values, expected);
  EXPECT_EQ(result->stats.Metric("checkpoint.retries"), 2);
  EXPECT_EQ(result->stats.Metric("checkpoint.failures"), 0);
  EXPECT_FALSE(engine.last_checkpoint_path().empty());
}

TEST(CheckpointFaultTest, PersistentWriteFailureDegradesGracefully) {
  Graph graph = TestGraph();
  const std::vector<int64_t> expected =
      SsspBaseline(graph, SyncMode::kPartitionLocking);
  EngineOptions opts = FaultOptions(SyncMode::kPartitionLocking);
  FaultEvent fail;
  fail.action = FaultAction::kCkptFail;
  fail.hit = 1;
  fail.count = 1000000;  // every attempt of every checkpoint fails
  opts.fault.plan.events.push_back(fail);
  Engine<Sssp> engine(&graph, opts);
  auto result = engine.Run(Sssp(0));
  // The run completes without checkpoints rather than failing outright.
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->values, expected);
  EXPECT_GE(result->stats.Metric("checkpoint.failures"), 1);
  EXPECT_TRUE(engine.last_checkpoint_path().empty());
  EXPECT_FALSE(result->stats.recovery_events.empty());
}

TEST(CheckpointFaultTest, TornFrameFallsBackToEarlierStateOnRecovery) {
  Graph graph = TestGraph();
  const std::vector<int64_t> expected =
      SsspBaseline(graph, SyncMode::kVertexLocking);
  EngineOptions opts = FaultOptions(SyncMode::kVertexLocking);
  FaultEvent torn;
  torn.action = FaultAction::kCkptTorn;
  torn.hit = 1;  // the first (and, by crash time, only) frame is torn
  opts.fault.plan.events.push_back(torn);
  opts.fault.plan.events.push_back(CrashAt("engine.superstep_start", 1, 3));
  Engine<Sssp> engine(&graph, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->values, expected);
  EXPECT_GE(result->stats.recovery_attempts, 1);
}

// ---------------------------------------------------------------------------
// Wire faults.

TEST(WireFaultTest, DroppedMessagesTriggerRecoveryToFixpoint) {
  Graph graph = TestGraph();
  const std::vector<int64_t> expected =
      SsspBaseline(graph, SyncMode::kPartitionLocking);
  EngineOptions opts = FaultOptions(SyncMode::kPartitionLocking);
  opts.watchdog.heartbeat_timeout_ms = 1000;
  opts.watchdog.global_stall_timeout_ms = 2500;
  FaultEvent drop;
  drop.action = FaultAction::kDrop;
  drop.hit = 5;
  drop.count = 2;
  opts.fault.plan.events.push_back(drop);
  Engine<Sssp> engine(&graph, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->values, expected);
  EXPECT_GE(result->stats.recovery_attempts, 1);
  EXPECT_GE(result->stats.Metric("net.fault_injected"), 1);
}

TEST(WireFaultTest, DuplicatedMessagesAreDedupedHarmlessly) {
  Graph graph = TestGraph();
  const std::vector<int64_t> expected =
      SsspBaseline(graph, SyncMode::kDualLayerToken);
  EngineOptions opts = FaultOptions(SyncMode::kDualLayerToken);
  FaultEvent dup;
  dup.action = FaultAction::kDuplicate;
  dup.hit = 1;
  dup.count = 20;
  opts.fault.plan.events.push_back(dup);
  Engine<Sssp> engine(&graph, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->values, expected);
  // Duplicates were delivered and dropped by the receiver, and no
  // recovery was needed: dedup makes them invisible to the protocol.
  EXPECT_GE(result->stats.Metric("net.dup_dropped"), 1);
  EXPECT_EQ(result->stats.recovery_attempts, 0);
}

TEST(WireFaultTest, DelaySpikesOnlySlowTheRunDown) {
  Graph graph = TestGraph();
  const std::vector<int64_t> expected =
      SsspBaseline(graph, SyncMode::kSingleLayerToken);
  EngineOptions opts = FaultOptions(SyncMode::kSingleLayerToken);
  FaultEvent delay;
  delay.action = FaultAction::kDelay;
  delay.delay_us = 20000;
  delay.hit = 3;
  delay.count = 5;
  opts.fault.plan.events.push_back(delay);
  Engine<Sssp> engine(&graph, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->values, expected);
  EXPECT_EQ(result->stats.recovery_attempts, 0);
}

// ---------------------------------------------------------------------------
// Supervisor calibration: a merely-slow worker is not a failure.

TEST(SupervisorTest, SlowWorkerIsNotAFalsePositive) {
  Graph graph = TestGraph();
  EngineOptions opts = FaultOptions(SyncMode::kPartitionLocking);
  opts.fault.plan.events.clear();           // no injected faults
  opts.superstep_overhead_us = 120000;      // 120 ms of dead time/superstep
  opts.watchdog.heartbeat_timeout_ms = 600;
  Engine<Sssp> engine(&graph, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.recovery_attempts, 0);
  EXPECT_EQ(result->stats.Metric("recovery.worker_failures"), 0);
}

// ---------------------------------------------------------------------------
// Serializability across the recovery boundary (the paper's guarantee
// must hold for the stitched pre-crash + post-restore history).

TEST(RecoverySerializabilityTest, HistoryStaysSerializableAcrossRestore) {
  auto g = Graph::FromEdgeList(ErdosRenyi(150, 600, 77));
  ASSERT_TRUE(g.ok());
  Graph graph = g->Undirected();

  const SyncMode kModes[] = {SyncMode::kPartitionLocking,
                             SyncMode::kSingleLayerToken};
  for (SyncMode mode : kModes) {
    SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)));
    EngineOptions opts = FaultOptions(mode);
    opts.checkpoint_every = 1;
    opts.record_history = true;
    opts.fault.plan.events.push_back(CrashAt("engine.post_compute", 1, 2));
    Engine<GreedyColoring> engine(&graph, opts);
    auto result = engine.Run(GreedyColoring());
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->stats.converged);
    EXPECT_GE(result->stats.recovery_attempts, 1);
    EXPECT_TRUE(IsProperColoring(graph, result->values));

    HistoryCheck check = CheckHistory(graph, result->history->TakeRecords());
    EXPECT_TRUE(check.c1_fresh_reads)
        << check.c1_violations << " C1 violations; first: "
        << (check.violation_samples.empty() ? "?"
                                            : check.violation_samples[0]);
    EXPECT_TRUE(check.c2_no_neighbor_overlap)
        << check.c2_violations << " C2 violations";
    EXPECT_TRUE(check.serializable);
    EXPECT_GT(check.num_transactions, 0);
  }
}

}  // namespace
}  // namespace serigraph
