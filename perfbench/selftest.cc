// Self-test of the benchmark itself (not of the engine):
//   * a tiny pass of every workload in both trace modes: no failed job,
//     every metric finite, and the zeros README.md predicts hold;
//   * negative controls: a job checked against a perturbed PageRank
//     reference must fail, and a conflicting color must fail the coloring
//     check;
//   * span folding: totals and self times of a hand-written trace.
// Exits non-zero if any expectation failed. run.py --selftest runs it,
// then checks the tiny passes' metric names against BENCHMARK.json.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "jobs.h"

using namespace serigraph;
using namespace serigraph::perfbench;

namespace {

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

constexpr double kTinyScale = 0.05;

std::map<std::string, double> ByName(const Report& report) {
  std::map<std::string, double> values;
  for (const Metric& m : report.metrics) {
    Expect(values.emplace(m.name, m.value).second, "duplicate metric " + m.name);
    Expect(std::isfinite(m.value), "metric " + m.name + " is not finite");
    Expect(!m.unit.empty(), "metric " + m.name + " has no unit");
  }
  return values;
}

void TinyPasses(const std::string& scratch) {
  for (const Workload& full : Workloads()) {
    const Workload workload = Scaled(full, kTinyScale);
    Options options;
    options.seed = 7;
    options.seconds = 0;
    options.scratch_dir = scratch;
    for (bool trace : {false, true}) {
      options.trace = trace;
      const Report report = RunWorkload(workload, options);
      const std::string tag =
          workload.name + (trace ? " (traced)" : " (timed)");
      Expect(report.attempted >= 4, tag + ": fewer than four jobs ran");
      Expect(report.failed == 0, tag + ": a job failed" +
                                     (report.errors.empty()
                                          ? std::string()
                                          : ": " + report.errors[0]));
      std::map<std::string, double> m = ByName(report);
      if (!trace) {
        for (const char* name :
             {"compute_s", "run_s", "setup_s", "peak_rss_mb"}) {
          Expect(m.count(name) == 1 && m[name] > 0,
                 tag + ": " + name + " missing or not positive");
        }
        continue;
      }
      Expect(m["fail_ratio"] == 0, tag + ": fail_ratio is not 0");
      Expect(m["obs.trace_events"] > 0, tag + ": the trace is empty");
      Expect(m["obs.trace_dropped"] == 0, tag + ": the trace dropped events");
      const bool bsp = workload.model == ComputationModel::kBsp;
      if (bsp) {
        for (const auto& [name, value] : m) {
          if (name.rfind("sync.", 0) == 0) {
            Expect(value == 0, tag + ": " + name + " is not 0 under BSP");
          }
        }
        Expect(m["pregel.pull_supersteps"] > 0, tag + ": never pulled");
      } else {
        Expect(m["pregel.pull_supersteps"] == 0, tag + ": pulled under AP");
        Expect(m["sync.fork_transfers"] > 0, tag + ": no fork moved");
      }
      Expect((m["checkpoint.bytes"] > 0) == (workload.checkpoint_every > 0),
             tag + ": checkpoint.bytes does not match the workload");
      Expect((m["verify.transactions"] > 0) == (workload.audit_scale > 0),
             tag + ": audit ran where it should not, or not where it should");
    }
  }
}

void NegativeControls(const std::string& scratch) {
  // A perturbed reference makes a correct PageRank job fail.
  const Workload pagerank = Scaled(*FindWorkload("pagerank_bsp"), kTinyScale);
  const Inputs pr_inputs = MakeInputs(pagerank, 3);
  Oracle oracle = BuildOracle(pagerank, pr_inputs.graph);
  const JobResult good =
      RunJob(pagerank, pr_inputs, oracle, JobKind::kTimed, scratch);
  Expect(good.ok, "pagerank control job failed: " + good.error);
  oracle.reference_ranks[oracle.reference_ranks.size() / 2] +=
      2 * kPageRankSlack;
  const JobResult bad =
      RunJob(pagerank, pr_inputs, oracle, JobKind::kTimed, scratch);
  Expect(!bad.ok, "a job checked against a perturbed rank passed");

  // A conflicting color fails the coloring check.
  const Workload coloring =
      Scaled(*FindWorkload("coloring_vertex_lock"), kTinyScale);
  const Inputs co_inputs = MakeInputs(coloring, 3);
  const Oracle no_oracle = BuildOracle(coloring, co_inputs.graph);
  JobResult colored =
      RunJob(coloring, co_inputs, no_oracle, JobKind::kTimed, scratch);
  Expect(colored.ok, "coloring control job failed: " + colored.error);
  std::string why;
  Expect(CheckAnswer(coloring, co_inputs.graph, no_oracle, colored, &why),
         "a proper coloring failed the check: " + why);
  for (VertexId v = 0; v < co_inputs.graph.num_vertices(); ++v) {
    if (co_inputs.graph.OutDegree(v) == 0) continue;
    const VertexId u = co_inputs.graph.OutNeighbors(v)[0];
    colored.colors[static_cast<size_t>(v)] =
        colored.colors[static_cast<size_t>(u)];
    break;
  }
  Expect(!CheckAnswer(coloring, co_inputs.graph, no_oracle, colored, &why),
         "a coloring with a conflicting edge passed the check");
}

void SpanFolding() {
  // Thread 1: a [0,100] contains b [10,30] (which contains c [12,20]) and
  // b [40,50]; thread 2: a [0,7] alone.
  const std::string trace =
      "{\"traceEvents\":["
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,"
      "\"args\":{\"name\":\"worker-0\"}},"
      "{\"name\":\"c\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":12,\"dur\":8},"
      "{\"name\":\"b\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":10,\"dur\":20},"
      "{\"name\":\"f\",\"ph\":\"s\",\"cat\":\"flow\",\"pid\":0,\"tid\":1,"
      "\"ts\":11,\"id\":5},"
      "{\"name\":\"b\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":40,\"dur\":10},"
      "{\"name\":\"a\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":0,\"dur\":100},"
      "{\"name\":\"a\",\"ph\":\"X\",\"pid\":0,\"tid\":2,\"ts\":0,\"dur\":7}"
      "],\"displayTimeUnit\":\"ms\"}";
  std::map<std::string, SpanTotals> spans;
  Expect(FoldChromeTrace(trace, &spans), "a well-formed trace did not fold");
  Expect(spans["a"].count == 2 && spans["a"].total_us == 107 &&
             spans["a"].self_us == 77,
         "span a: wrong totals");
  Expect(spans["b"].count == 2 && spans["b"].total_us == 30 &&
             spans["b"].self_us == 22,
         "span b: wrong totals");
  Expect(spans["c"].count == 1 && spans["c"].self_us == 8,
         "span c: wrong totals");
  Expect(spans.count("f") == 0, "a flow event was folded as a span");
  std::map<std::string, SpanTotals> ignored;
  Expect(!FoldChromeTrace("{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\"}",
                          &ignored),
         "a truncated trace folded");
}

}  // namespace

int main(int argc, char** argv) {
  // Checkpoints of the tiny passes go here (default: ./selftest-scratch).
  const std::string scratch = argc > 1 ? argv[1] : "selftest-scratch";
  std::filesystem::create_directories(scratch);
  SpanFolding();
  NegativeControls(scratch);
  TinyPasses(scratch);
  std::filesystem::remove_all(scratch);
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
