// perfbench: runs one SeriGraph benchmark workload and prints, as the
// last line of standard output, one JSON object:
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. run.py builds this binary and invokes it; by hand:
//
//   perfbench --workload pagerank_bsp --seed 1 --seconds 10 --trace 0
//             [--scratch DIR] [--scale X]
//   perfbench --env     (environment fingerprint, for README.md)

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "jobs.h"

using namespace serigraph;
using namespace serigraph::perfbench;

namespace {

int Usage(const char* error) {
  std::fprintf(stderr, "perfbench: %s\n", error);
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR] [--scale X]\n"
               "       perfbench --env\nworkloads:");
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

void PrintEnvironment() {
  const BenchEnvironment env = CaptureBenchEnvironment();
  std::printf(
      "{\"cpu_model\": \"%s\", \"cores\": %d, \"governor\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"sanitizers\": \"%s\", "
      "\"perf_hw\": %s, \"perf_fallback\": \"%s\"}\n",
      env.cpu_model.c_str(), env.cores, env.governor.c_str(),
      env.compiler.c_str(), env.build_type.c_str(), env.sanitizers.c_str(),
      env.perf_hw ? "true" : "false", env.perf_fallback.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  double scale = 1.0;
  Options options;
  options.scratch_dir = ".";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--env") {
      PrintEnvironment();
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else if (!ParseDouble(value, &number) || number < 0) {
      return Usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      options.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = number;
      have_seconds = true;
    } else if (flag == "--trace") {
      options.trace = number != 0;
      have_trace = true;
    } else if (flag == "--scale") {
      scale = number;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  const Report report =
      RunWorkload(Scaled(*workload, scale), options);
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: %s: failed job: %s\n",
                 workload->name.c_str(), error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.failed == 0 && report.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    // A non-finite value prints as null, which run.py rejects.
    char value[64] = "null";
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    }
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
