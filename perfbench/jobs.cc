#include "jobs.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>

#include "algos/coloring.h"
#include "algos/pagerank.h"
#include "graph/generators.h"
#include "harness/runner.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "pregel/engine.h"

namespace serigraph::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// The q-quantile of `v`, interpolating between the closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t below = static_cast<size_t>(rank);
  if (below + 1 >= v.size()) return v.back();
  return v[below] + (rank - static_cast<double>(below)) *
                        (v[below + 1] - v[below]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Job times are reported as their lower quartile: a shared host only
/// ever adds time to a job (a stolen core, a late wake-up), so the
/// fastest quarter of a run's jobs is the part that measures the program.
double LowerQuartile(std::vector<double> v) {
  return Quantile(std::move(v), 0.25);
}

/// Set-up runs at least kMinSetupReps times and until kMinSetupSeconds
/// have gone by (at most kMaxSetupReps), so small graphs get a steady
/// median too.
constexpr int kMinSetupReps = 3;
constexpr double kMinSetupSeconds = 3.0;
constexpr int kMaxSetupReps = 15;
/// Fewest timed jobs per run, however long they take.
constexpr int kMinJobs = 3;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The machine's CPU ticks so far: {stolen by the host, all}. Zeros
/// where /proc/stat is not readable.
std::pair<double, double> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0.0, all = 0.0;
  for (int field = 0; field < 8 && stat; ++field) {
    double ticks = 0.0;
    if (!(stat >> ticks)) break;
    all += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, all};
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

EngineOptions JobOptions(const Workload& workload, JobKind kind,
                         const std::string& checkpoint_dir) {
  EngineOptions options;
  options.model = workload.model;
  options.sync_mode = workload.sync;
  options.num_workers = kWorkers;
  options.compute_threads_per_worker = kComputeThreads;
  options.push_pull = PushPullMode::kAuto;
  if (workload.simulated_latency) options.network = BenchNetwork();
  if (workload.checkpoint_every > 0) {
    options.checkpoint_every = workload.checkpoint_every;
    options.checkpoint_dir = checkpoint_dir;
  }
  options.introspect = kind == JobKind::kTraced;
  options.perf_counters = kind == JobKind::kTraced;
  options.record_history = kind == JobKind::kAudit;
  return options;
}

/// Runs `program` in a fresh engine; run_s covers construction, the run,
/// moving the answer out and the engine's teardown.
template <typename Program>
void Execute(const Inputs& inputs, const Program& program,
             EngineOptions options, JobResult* job,
             std::vector<typename Program::VertexValue>* values,
             std::shared_ptr<HistoryRecorder>* history) {
  const Clock::time_point start = Clock::now();
  {
    Engine<Program> engine(&inputs.graph, std::move(options));
    Status status = engine.UsePartitioning(inputs.partitioning);
    if (!status.ok()) {
      job->error = "UsePartitioning: " + status.ToString();
      return;
    }
    auto result = engine.Run(program);
    if (!result.ok()) {
      job->error = "Run: " + result.status().ToString();
      return;
    }
    job->stats = std::move(result->stats);
    *values = std::move(result->values);
    *history = std::move(result->history);
  }
  job->run_s = SecondsSince(start);
  job->compute_s = job->stats.computation_seconds;
  job->ok = true;
}

void AddSpan(std::vector<Metric>* out,
             const std::map<std::string, SpanTotals>& spans,
             const std::string& name) {
  auto it = spans.find(name);
  const SpanTotals totals = it == spans.end() ? SpanTotals{} : it->second;
  out->push_back({"span." + name + ".total_s", "s", totals.total_us / 1e6});
  out->push_back({"span." + name + ".self_s", "s", totals.self_us / 1e6});
}

const char* const kKindNames[] = {"timed", "traced", "audit"};

/// The spans the engine emits at layer boundaries, folded by the traced
/// job into span.<name>.total_s / .self_s.
const char* const kFoldedSpans[] = {
    "engine.compute",    "engine.barrier_wait", "engine.flush_acks",
    "engine.checkpoint", "sync.fork_acquire",   "cm.fork_wait",
    "cm.handover_flush", "sync.control",        "net.flush_batch",
    "net.inbox_drain",
};

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> w(3);
    // CPU-bound BSP path: dense accumulator store, binned scatter, pull
    // gather. No sync technique, no simulated latency.
    w[0].name = "pagerank_bsp";
    w[0].algorithm = Algorithm::kPageRank;
    w[0].model = ComputationModel::kBsp;
    w[0].sync = SyncMode::kNone;
    w[0].vertices = 40000;
    w[0].avg_degree = 25;
    w[0].gamma = 2.4;
    w[0].pagerank_tolerance = kPageRankTolerance;
    // Fork protocol and control traffic dominate; the store barely runs.
    w[1].name = "coloring_vertex_lock";
    w[1].algorithm = Algorithm::kColoring;
    w[1].model = ComputationModel::kAsync;
    w[1].sync = SyncMode::kVertexLocking;
    w[1].undirected = true;
    w[1].vertices = 2000;
    w[1].avg_degree = 24;
    w[1].gamma = 2.1;
    w[1].simulated_latency = true;
    w[1].audit_scale = 1.0;
    // The paper's contribution on its headline algorithm, with
    // checkpoints: eager AP appends plus C1 handover flushes.
    w[2].name = "pagerank_partition_lock";
    w[2].algorithm = Algorithm::kPageRank;
    w[2].model = ComputationModel::kAsync;
    w[2].sync = SyncMode::kPartitionLocking;
    w[2].vertices = 16000;
    w[2].avg_degree = 24;
    w[2].gamma = 2.1;
    w[2].simulated_latency = true;
    w[2].checkpoint_every = 3;
    w[2].pagerank_tolerance = kPageRankTolerance;
    // Every PageRank vertex runs ~40 transactions here; recording and
    // checking them took ~4 GB at 32k vertices, so the audit runs the
    // same configuration on a quarter of the graph (4k vertices).
    w[2].audit_scale = 0.25;
    return w;
  }();
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Workload Scaled(Workload workload, double scale) {
  workload.vertices = std::max<VertexId>(
      64, static_cast<VertexId>(std::llround(workload.vertices * scale)));
  return workload;
}

Inputs MakeInputs(const Workload& workload, uint64_t seed) {
  Inputs inputs;
  const double cpu_start = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  Clock::time_point start = Clock::now();
  EdgeList edges = PowerLawChungLu(workload.vertices, workload.avg_degree,
                                   workload.gamma, seed);
  StatusOr<Graph> graph = Graph::FromEdgeList(edges);
  SG_CHECK_OK(graph.status());
  inputs.graph = workload.undirected ? graph->Undirected() : std::move(*graph);
  inputs.generate_s = SecondsSince(start);

  start = Clock::now();
  inputs.partitioning = Partitioning::Hash(inputs.graph.num_vertices(),
                                           kWorkers, kWorkers, seed);
  inputs.partition_s = SecondsSince(start);
  inputs.setup_cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
  return inputs;
}

Oracle BuildOracle(const Workload& workload, const Graph& graph) {
  Oracle oracle;
  const Clock::time_point start = Clock::now();
  if (workload.algorithm == Algorithm::kPageRank) {
    // Converge the power iteration well below the job's own threshold.
    oracle.reference_ranks =
        ReferencePageRank(graph, workload.pagerank_tolerance / 100.0);
  }
  oracle.build_s = SecondsSince(start);
  return oracle;
}

bool CheckAnswer(const Workload& workload, const Graph& graph,
                 const Oracle& oracle, const JobResult& job,
                 std::string* why) {
  if (workload.algorithm == Algorithm::kPageRank) {
    if (job.ranks.size() != static_cast<size_t>(graph.num_vertices())) {
      *why = "PageRank answer has the wrong vertex count";
      return false;
    }
    const double diff = MaxAbsDifference(job.ranks, oracle.reference_ranks);
    if (!(diff < kPageRankSlack)) {
      *why = "PageRank differs from the reference by " + std::to_string(diff);
      return false;
    }
    return true;
  }
  if (job.colors.size() != static_cast<size_t>(graph.num_vertices()) ||
      !IsProperColoring(graph, job.colors)) {
    *why = "coloring is not proper";
    return false;
  }
  return true;
}

JobResult RunJob(const Workload& workload, const Inputs& inputs,
                 const Oracle& oracle, JobKind kind,
                 const std::string& scratch_dir) {
  JobResult job;
  const std::string checkpoint_dir = scratch_dir + "/checkpoints";
  if (workload.checkpoint_every > 0) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir, ec);
    if (ec) {
      job.error = "cannot create " + checkpoint_dir + ": " + ec.message();
      return job;
    }
  }
  EngineOptions options = JobOptions(workload, kind, checkpoint_dir);
  std::shared_ptr<HistoryRecorder> history;
  if (workload.algorithm == Algorithm::kPageRank) {
    Execute(inputs, PageRank(workload.pagerank_tolerance), std::move(options),
            &job, &job.ranks, &history);
  } else {
    Execute(inputs, GreedyColoring(), std::move(options), &job, &job.colors,
            &history);
  }
  if (workload.checkpoint_every > 0) {
    std::error_code ec;
    std::filesystem::remove_all(checkpoint_dir, ec);
  }
  if (!job.ok) return job;

  job.ok = false;
  if (!job.stats.converged) {
    job.error = "did not converge in " +
                std::to_string(job.stats.supersteps) + " supersteps";
    return job;
  }
  if (job.stats.Metric("checkpoint.failures") > 0) {
    job.error = "checkpoint writes failed";
    return job;
  }
  const Clock::time_point check_start = Clock::now();
  const bool answer_ok =
      CheckAnswer(workload, inputs.graph, oracle, job, &job.error);
  job.check_s = SecondsSince(check_start);
  if (!answer_ok) return job;

  if (kind == JobKind::kAudit) {
    if (history == nullptr) {
      job.error = "audit job recorded no history";
      return job;
    }
    const Clock::time_point audit_start = Clock::now();
    job.history = CheckHistory(inputs.graph, history->TakeRecords());
    job.history_check_s = SecondsSince(audit_start);
    if (!job.history.ok()) {
      job.error = "1SR audit failed: " +
                  std::to_string(job.history.c1_violations) + " C1, " +
                  std::to_string(job.history.c2_violations) + " C2 violations" +
                  (job.history.serializable ? "" : ", not serializable");
      return job;
    }
  }
  job.ok = true;
  return job;
}

bool FoldChromeTrace(std::string_view json,
                     std::map<std::string, SpanTotals>* out) {
  struct Span {
    int64_t start;
    int64_t end;
    int name;
  };
  std::vector<std::string> names;
  std::map<std::string, int, std::less<>> name_ids;
  std::map<int64_t, std::vector<Span>> by_thread;

  const auto read_int = [&json](std::string_view key, size_t from,
                                size_t limit, int64_t* value) {
    const size_t at = json.find(key, from);
    if (at == std::string_view::npos || at >= limit) return false;
    const char* first = json.data() + at + key.size();
    return std::from_chars(first, json.data() + limit, *value).ec ==
           std::errc();
  };

  if (!json.starts_with("{\"traceEvents\":[") ||
      !json.ends_with("],\"displayTimeUnit\":\"ms\"}")) {
    return false;
  }
  constexpr std::string_view kName = "{\"name\":\"";
  constexpr std::string_view kPhase = "\",\"ph\":\"";
  size_t pos = 0;
  while ((pos = json.find(kName, pos)) != std::string_view::npos) {
    const size_t name_begin = pos + kName.size();
    const size_t name_end = json.find('"', name_begin);
    const size_t event_end = json.find('}', name_begin);
    if (name_end == std::string_view::npos ||
        event_end == std::string_view::npos) {
      return false;
    }
    pos = event_end;
    if (json.substr(name_end, kPhase.size()) != kPhase) return false;
    if (json[name_end + kPhase.size()] != 'X') continue;
    int64_t tid = 0, ts = 0, dur = 0;
    if (!read_int("\"tid\":", name_end, event_end, &tid) ||
        !read_int("\"ts\":", name_end, event_end, &ts) ||
        !read_int("\"dur\":", name_end, event_end, &dur)) {
      return false;
    }
    const std::string_view name = json.substr(name_begin, name_end - name_begin);
    auto it = name_ids.find(name);
    if (it == name_ids.end()) {
      it = name_ids.emplace(std::string(name), static_cast<int>(names.size()))
               .first;
      names.emplace_back(name);
    }
    by_thread[tid].push_back({ts, ts + dur, it->second});
  }

  std::vector<SpanTotals> totals(names.size());
  for (auto& [tid, spans] : by_thread) {
    // Parents before the children they contain: earlier start first,
    // and of two spans starting together the longer one.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    std::vector<size_t> open;  // indices of enclosing spans
    std::vector<int64_t> child_us(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
      // Pop spans that ended before this one (a zero-length span at a
      // parent's end still counts as its child).
      while (!open.empty() && spans[open.back()].end <= spans[i].start &&
             spans[open.back()].end < spans[i].end) {
        open.pop_back();
      }
      if (!open.empty()) {
        const Span& parent = spans[open.back()];
        child_us[open.back()] +=
            std::min(spans[i].end, parent.end) - spans[i].start;
      }
      open.push_back(i);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = totals[static_cast<size_t>(spans[i].name)];
      const int64_t dur = spans[i].end - spans[i].start;
      t.count += 1;
      t.total_us += dur;
      t.self_us += std::max<int64_t>(0, dur - child_us[i]);
    }
  }
  for (size_t i = 0; i < names.size(); ++i) (*out)[names[i]] = totals[i];
  return true;
}

Report RunWorkload(const Workload& workload, const Options& options) {
  Report report;
  const auto record = [&report](const JobResult& job) {
    ++report.attempted;
    if (!job.ok) {
      ++report.failed;
      if (report.errors.size() < 8) report.errors.push_back(job.error);
    }
  };

  // Set-up, several times: setup_s is the median of its CPU time.
  std::vector<double> setup_s, generate_s, partition_s;
  Inputs inputs;
  const Clock::time_point setup_start = Clock::now();
  for (int rep = 0; rep < kMinSetupReps ||
                    (rep < kMaxSetupReps &&
                     SecondsSince(setup_start) < kMinSetupSeconds);
       ++rep) {
    inputs = Inputs{};  // free the previous graph before building the next
    inputs = MakeInputs(workload, options.seed);
    generate_s.push_back(inputs.generate_s);
    partition_s.push_back(inputs.partition_s);
    setup_s.push_back(inputs.setup_cpu_s);
  }
  const Oracle oracle = BuildOracle(workload, inputs.graph);

  const auto run = [&](JobKind kind) {
    JobResult job =
        RunJob(workload, inputs, oracle, kind, options.scratch_dir);
    record(job);
    // One line per job on stderr, for reading a run's noise by eye.
    std::fprintf(stderr, "perfbench: %s job: compute_s=%.4f run_s=%.4f%s\n",
                 kKindNames[static_cast<int>(kind)], job.compute_s, job.run_s,
                 job.ok ? "" : " FAILED");
    job.ranks.clear();
    job.ranks.shrink_to_fit();
    job.colors.clear();
    job.colors.shrink_to_fit();
    return job;
  };

  // One untimed warm-up job lets allocator pools and lazy state settle.
  run(JobKind::kTimed);
  std::vector<JobResult> timed;
  const auto [steal_start, ticks_start] = CpuTicks();
  const Clock::time_point loop_start = Clock::now();
  int jobs = 0;
  while (jobs < kMinJobs || SecondsSince(loop_start) < options.seconds) {
    JobResult job = run(JobKind::kTimed);
    ++jobs;
    if (job.ok) timed.push_back(std::move(job));
  }
  const double peak_rss_mb = PeakRssMb();
  // Time the host took from this virtual machine, for reading a noisy
  // run; it is not a metric of the program.
  const auto [steal_end, ticks_end] = CpuTicks();
  std::fprintf(stderr, "perfbench: host steal over the timed jobs: %.1f%%\n",
               100.0 * Ratio(steal_end - steal_start, ticks_end - ticks_start));

  std::vector<double> compute_s, run_s, check_s;
  for (const JobResult& job : timed) {
    compute_s.push_back(job.compute_s);
    run_s.push_back(job.run_s);
    check_s.push_back(job.check_s);
  }
  const double median_compute_s = Median(compute_s);

  if (!options.trace) {
    report.metrics = {
        {"compute_s", "s", LowerQuartile(compute_s)},
        {"run_s", "s", LowerQuartile(run_s)},
        {"setup_s", "s", Median(setup_s)},
        {"peak_rss_mb", "MB", peak_rss_mb},
    };
    return report;
  }

  // Per-layer numbers from RunStats come from the timed job whose
  // compute time is the median (production configuration).
  static const JobResult kNoJob;
  const JobResult* median_job = &kNoJob;
  if (!timed.empty()) {
    std::vector<const JobResult*> by_compute;
    for (const JobResult& job : timed) by_compute.push_back(&job);
    const auto mid = by_compute.begin() + by_compute.size() / 2;
    std::nth_element(by_compute.begin(), mid, by_compute.end(),
                     [](const JobResult* a, const JobResult* b) {
                       return a->compute_s < b->compute_s;
                     });
    median_job = *mid;
  }
  const RunStats& stats = median_job->stats;
  const auto metric = [&stats](const char* name) {
    return static_cast<double>(stats.Metric(name));
  };
  const double busy_s =
      Total(stats.timeline, &SuperstepSample::compute_us) / 1e6;
  const double barrier_s =
      Total(stats.timeline, &SuperstepSample::barrier_wait_us) / 1e6;
  const double flush_s =
      Total(stats.timeline, &SuperstepSample::flush_wait_us) / 1e6;
  const double fork_s =
      Total(stats.timeline, &SuperstepSample::fork_wait_us) / 1e6;
  const double worker_s = median_job->compute_s * kWorkers;
  double density_sum = 0.0;
  int density_rows = 0;
  for (const SuperstepSample& sample : stats.timeline) {
    if (sample.worker != 0) continue;
    density_sum += static_cast<double>(sample.frontier_density_milli);
    ++density_rows;
  }

  // The traced job: tracer, introspection and perf counters on. Spans are
  // folded in memory; only the per-name summary leaves this function.
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable();
  const JobResult traced = run(JobKind::kTraced);
  tracer.Disable();
  const int64_t trace_events = tracer.event_count();
  const int64_t trace_dropped = tracer.dropped_count();
  std::map<std::string, SpanTotals> spans;
  {
    const std::string json = tracer.ToChromeTraceJson();
    tracer.Reset();
    if (!FoldChromeTrace(json, &spans)) {
      ++report.failed;
      report.errors.push_back("traced job: trace JSON did not fold");
    }
  }
  const auto span_s = [&spans](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_us / 1e6;
  };

  JobResult audit;
  if (workload.audit_scale == 1.0) {
    audit = run(JobKind::kAudit);
  } else if (workload.audit_scale > 0.0) {
    const Workload audited = Scaled(workload, workload.audit_scale);
    const Inputs audit_inputs = MakeInputs(audited, options.seed);
    audit = RunJob(audited, audit_inputs,
                   BuildOracle(audited, audit_inputs.graph), JobKind::kAudit,
                   options.scratch_dir);
    record(audit);
  }

  const double executions = metric("pregel.vertex_executions");
  const double fork_transfers = metric("sync.fork_transfers");
  const double data_batches = metric("net.data_batches");
  const double remote_messages =
      metric("pregel.messages_sent") - metric("pregel.local_sends");

  report.metrics = {
      {"fail_ratio", "ratio",
       Ratio(static_cast<double>(report.failed),
             static_cast<double>(report.attempted))},
      {"graph.generate_s", "s", Median(generate_s)},
      {"graph.partition_s", "s", Median(partition_s)},
      {"pregel.supersteps", "count", static_cast<double>(stats.supersteps)},
      {"pregel.vertex_executions", "count", executions},
      {"pregel.messages_sent", "count", metric("pregel.messages_sent")},
      {"pregel.compute_busy_s", "s", busy_s},
      {"pregel.barrier_wait_s", "s", barrier_s},
      {"pregel.flush_wait_s", "s", flush_s},
      // fork_wait_us is spent inside compute_us (forks are acquired per
      // execution), so it is not a bucket of its own here.
      {"pregel.unattributed_share", "ratio",
       Ratio(worker_s - (busy_s + barrier_s + flush_s), worker_s)},
      {"pregel.pull_supersteps", "count", metric("engine.pull_supersteps")},
      {"pregel.frontier_density_milli", "milli",
       Ratio(density_sum, density_rows)},
      {"store.swap_us_sum", "us", metric("store.swap_us.sum")},
      {"store.append_ns_p50", "ns", metric("store.append_ns.p50")},
      {"store.bin_flushes", "count", metric("store.bin_flushes")},
      {"store.max_chain_len", "count",
       static_cast<double>(traced.stats.Metric("store.max_chain_len"))},
      {"store.arena_chunks", "count",
       static_cast<double>(traced.stats.Metric("store.arena_chunks"))},
      {"checkpoint.bytes", "bytes", metric("checkpoint.bytes")},
      {"checkpoint.write_s", "s", span_s("engine.checkpoint")},
      {"sync.fork_wait_s", "s", fork_s},
      {"sync.fork_wait_us_p95", "us", metric("sync.fork_wait_us.p95")},
      {"sync.fork_requests", "count", metric("sync.fork_requests")},
      {"sync.fork_transfers", "count", fork_transfers},
      {"sync.fork_transfers_cross_worker", "count",
       metric("sync.fork_transfers_cross_worker")},
      {"sync.handover_flushes", "count", metric("sync.handover_flushes")},
      {"sync.transfers_per_execution", "ratio",
       Ratio(fork_transfers, executions)},
      {"net.wire_messages", "count", metric("net.wire_messages")},
      {"net.wire_bytes", "bytes", metric("net.wire_bytes")},
      {"net.data_batches", "count", data_batches},
      {"net.control_messages", "count", metric("net.control_messages")},
      {"net.messages_per_batch", "ratio", Ratio(remote_messages, data_batches)},
      {"net.peak_inbox_depth", "count", metric("net.peak_inbox_depth")},
      {"net.flush_batch_s", "s", span_s("net.flush_batch")},
      {"net.inbox_drain_s", "s", span_s("net.inbox_drain")},
      {"verify.record_compute_s", "s", audit.compute_s},
      {"verify.check_s", "s", audit.history_check_s},
      {"verify.transactions", "count",
       static_cast<double>(audit.history.num_transactions)},
      {"obs.trace_overhead", "ratio",
       Ratio(traced.compute_s, median_compute_s) - 1.0},
      {"obs.trace_events", "count", static_cast<double>(trace_events)},
      {"obs.trace_dropped", "count", static_cast<double>(trace_dropped)},
      {"algos.reference_s", "s", oracle.build_s + Median(check_s)},
  };
  for (const char* span : kFoldedSpans) AddSpan(&report.metrics, spans, span);
  return report;
}

}  // namespace serigraph::perfbench
