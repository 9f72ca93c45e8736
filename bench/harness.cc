#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/perfcounters.h"

namespace serigraph {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// First "model name" line of /proc/cpuinfo, or "unknown".
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    return line.substr(start);
  }
  return "unknown";
}

std::string CpuGovernor() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string governor;
  if (in >> governor && !governor.empty()) return governor;
  return "unknown";
}

std::string CompilerVersion() {
#if defined(__clang__)
  return std::string("clang ") + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

#if defined(__has_feature)
#define SERIGRAPH_HAS_FEATURE(x) __has_feature(x)
#else
#define SERIGRAPH_HAS_FEATURE(x) 0
#endif

std::string SanitizerList() {
  // Each active sanitizer appends ",name"; the leading comma is dropped.
  std::string out;
#if defined(__SANITIZE_ADDRESS__) || SERIGRAPH_HAS_FEATURE(address_sanitizer)
  out += ",address";
#endif
#if defined(__SANITIZE_THREAD__) || SERIGRAPH_HAS_FEATURE(thread_sanitizer)
  out += ",thread";
#endif
#if SERIGRAPH_HAS_FEATURE(undefined_behavior_sanitizer)
  out += ",undefined";
#endif
  return out.empty() ? "none" : out.substr(1);
}

void AppendCell(std::ostringstream& os, const BenchCell& cell) {
  os << "    {\"name\": \"" << JsonEscape(cell.name) << "\", \"unit\": \""
     << JsonEscape(cell.unit) << "\", \"median\": " << cell.median
     << ", \"min\": " << cell.min << ", \"max\": " << cell.max
     << ", \"reps\": " << cell.reps;
  if (cell.peak_rss_kb > 0) os << ", \"peak_rss_kb\": " << cell.peak_rss_kb;
  if (!cell.counters.empty()) {
    os << ", \"counters\": {";
    bool first = true;
    for (const auto& [key, value] : cell.counters) {
      if (!first) os << ", ";
      first = false;
      os << "\"" << JsonEscape(key) << "\": " << value;
    }
    os << "}";
  }
  os << "}";
}

}  // namespace

BenchEnvironment CaptureBenchEnvironment() {
  BenchEnvironment env;
  env.cpu_model = CpuModel();
  env.cores = static_cast<int>(std::thread::hardware_concurrency());
  env.governor = CpuGovernor();
  env.compiler = CompilerVersion();
#ifdef NDEBUG
  env.build_type = "release";
#else
  env.build_type = "debug";
#endif
  env.sanitizers = SanitizerList();
  // Real probe, not a capability guess: opens a counter group on this
  // thread exactly the way the engine will, so seccomp filters and
  // perf_event_paranoid settings are reflected.
  PerfCounterGroup probe((PerfCounterConfig()));
  env.perf_hw = probe.hw_available();
  env.perf_fallback = probe.fallback_reason();
  return env;
}

std::string BenchReport::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema_version\": " << kSchemaVersion << ",\n";
  os << "  \"generator\": \"serigraph-bench\",\n";
  os << "  \"environment\": {\n";
  os << "    \"cpu_model\": \"" << JsonEscape(env.cpu_model) << "\",\n";
  os << "    \"cores\": " << env.cores << ",\n";
  os << "    \"governor\": \"" << JsonEscape(env.governor) << "\",\n";
  os << "    \"compiler\": \"" << JsonEscape(env.compiler) << "\",\n";
  os << "    \"build_type\": \"" << JsonEscape(env.build_type) << "\",\n";
  os << "    \"sanitizers\": \"" << JsonEscape(env.sanitizers) << "\",\n";
  os << "    \"perf_hw\": " << (env.perf_hw ? "true" : "false") << ",\n";
  os << "    \"perf_fallback\": \"" << JsonEscape(env.perf_fallback)
     << "\"\n";
  os << "  },\n";
  os << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    AppendCell(os, cells[i]);
    if (i + 1 < cells.size()) os << ",";
    os << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

bool BenchReport::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << ToJson();
  out.flush();
  if (!out) {
    std::fprintf(stderr, "bench: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

double MedianOf(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  args.storage.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i > 0 && arg.rfind("--json=", 0) == 0) {
      args.json_path = arg.substr(7);
    } else if (i > 0 && arg == "--perf-counters") {
      args.perf_counters = true;
    } else if (i > 0 && arg.rfind("--trace-out=", 0) == 0) {
      args.trace_out = arg.substr(12);
    } else if (i > 0 && arg.rfind("--reps=", 0) == 0) {
      args.reps = std::atoi(arg.c_str() + 7);
    } else if (i > 0 && (arg == "--help" || arg == "-h")) {
      args.help = true;
      args.storage.push_back(arg);  // let the bench library print its own
    } else {
      args.storage.push_back(arg);
    }
  }
  args.passthrough.reserve(args.storage.size() + 1);
  for (std::string& s : args.storage) args.passthrough.push_back(s.data());
  args.passthrough.push_back(nullptr);
  return args;
}

}  // namespace serigraph
