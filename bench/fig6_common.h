#ifndef SERIGRAPH_BENCH_FIG6_COMMON_H_
#define SERIGRAPH_BENCH_FIG6_COMMON_H_

// Shared driver for the paper's Figure 6 reproduction benches: one
// algorithm, the dataset stand-ins x {16, 32} workers x the three
// technique/system combinations evaluated in Section 7:
//   * dual-layer token passing  (Giraph async)
//   * partition-based locking   (Giraph async)   <- the contribution
//   * vertex-based locking      (GraphLab async stand-in)
// Computation time is the paper's metric (superstep loop only). Every
// run is validated by the caller-supplied checker.
//
// Every grid binary also speaks the shared bench flags (bench/harness.h):
//   --json=FILE       write a schema-versioned BENCH.json of all cells
//   --reps=N          repeat each cell N times, report the median
//   --perf-counters   per-superstep HW counters + RSS (docs/PROFILING.md)
//   --trace-out=FILE  Chrome trace-event JSON of the last runs

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "harness/datasets.h"
#include "harness/runner.h"
#include "harness/table.h"
#include "obs/introspect.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace serigraph {

struct Fig6Cell {
  std::string dataset;
  int workers = 0;
  SyncMode sync = SyncMode::kNone;
  RunStats stats;
  bool valid = false;
  /// computation_seconds of every repetition (>= 1 entries).
  std::vector<double> rep_seconds;
};

/// Stable BENCH.json cell-name prefix for a grid title: lowercased, with
/// non-alphanumeric runs collapsed to '_' ("Figure 6(b): PageRank" ->
/// "figure_6_b_pagerank"). The join key for bench_compare.py.
inline std::string Fig6Slug(const std::string& title) {
  std::string slug;
  bool pending_sep = false;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      if (pending_sep && !slug.empty()) slug += '_';
      pending_sep = false;
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      pending_sep = true;
    }
  }
  return slug;
}

/// Runs `run(graph, config)` over the full evaluation grid and prints the
/// figure's table. `run` returns (stats, valid). Returns a process exit
/// code; pass main()'s argc/argv so the shared bench flags work.
inline int RunFig6Grid(
    int argc, char** argv, const std::string& title,
    const std::string& paper_expectation, bool undirected,
    const std::function<std::pair<RunStats, bool>(const Graph&,
                                                  const EngineOptions&)>& run) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  // Grid binaries take only the shared flags; anything left over (beyond
  // argv[0] and the trailing nullptr) is a typo worth failing on.
  for (size_t i = 1; i + 1 < args.passthrough.size(); ++i) {
    std::fprintf(stderr, "unknown argument: %s\n", args.passthrough[i]);
    args.help = true;
  }
  if (args.help) {
    std::printf(
        "%s\n"
        "  --json=FILE       write BENCH.json (schema v%d) of all cells\n"
        "  --reps=N          repeat each cell N times, report the median\n"
        "  --perf-counters   per-superstep perf counters + RSS\n"
        "  --trace-out=FILE  Chrome trace-event JSON\n",
        title.c_str(), BenchReport::kSchemaVersion);
    return args.help && argc > 1 ? 2 : 0;
  }
  if (!args.trace_out.empty()) Tracer::Get().Enable();
  const int reps = std::max(1, args.reps);
  const std::string slug = Fig6Slug(title);
  BenchReport report;

  PrintHeader(std::cout, title);
  std::printf("paper expectation: %s\n", paper_expectation.c_str());
  std::printf("(synthetic stand-ins; absolute times are not comparable to "
              "the paper's EC2 cluster,\n shapes and ratios are — see "
              "EXPERIMENTS.md)\n\n");

  const SyncMode kModes[] = {SyncMode::kDualLayerToken,
                             SyncMode::kPartitionLocking,
                             SyncMode::kVertexLocking};
  TablePrinter table({"dataset", "workers", "technique", "time", "supersteps",
                      "ctrl msgs", "wire MB", "valid", "vs partition",
                      "fork/compute"});
  std::vector<SuperstepSample> last_timeline;
  std::string last_timeline_label;
  for (const DatasetSpec& spec : StandInSpecs()) {
    if (spec.name == "AR'") continue;  // like the paper's main text
    Graph graph =
        undirected ? MakeUndirectedDataset(spec) : MakeDataset(spec);
    for (int workers : {16, 32}) {
      double partition_time = 0.0;
      std::vector<Fig6Cell> cells;
      std::vector<ContentionEntry> last_contention;
      std::string last_contention_kind;
      for (SyncMode sync : kModes) {
        Fig6Cell cell;
        cell.dataset = spec.name;
        cell.workers = workers;
        cell.sync = sync;
        cell.valid = true;
        for (int rep = 0; rep < reps; ++rep) {
          EngineOptions config;
          config.sync_mode = sync;
          config.num_workers = workers;
          config.network = BenchNetwork();
          // Introspection on for every cell (uniform overhead: enabling
          // it only for some techniques would bias the comparison).
          config.introspect = true;
          config.perf_counters = args.perf_counters;
          auto [stats, valid] = run(graph, config);
          cell.rep_seconds.push_back(stats.computation_seconds);
          cell.stats = std::move(stats);
          cell.valid = cell.valid && valid;
        }
        if (sync == SyncMode::kPartitionLocking) {
          partition_time = MedianOf(cell.rep_seconds);
          last_timeline = cell.stats.timeline;
          last_timeline_label = spec.name + ", " +
                                std::to_string(workers) + " workers, " +
                                SyncModeName(sync);
          last_contention = cell.stats.contention;
          last_contention_kind = cell.stats.resource_kind;
        }
        cells.push_back(std::move(cell));
      }
      // Contention top-K for the contribution technique: which resources
      // the fork waits concentrated on in this configuration.
      if (!last_contention.empty()) {
        std::printf("hottest %ss (%s, %d workers, %s):",
                    last_contention_kind.c_str(), spec.name.c_str(), workers,
                    SyncModeName(SyncMode::kPartitionLocking));
        int shown = 0;
        for (const auto& e : last_contention) {
          if (++shown > 5) break;
          std::printf("  %lld(%lldus/%lld)", (long long)e.resource,
                      (long long)e.total_wait_us, (long long)e.count);
        }
        std::printf("\n");
      }
      for (const Fig6Cell& cell : cells) {
        const double median_seconds = MedianOf(cell.rep_seconds);
        // Where did the time go? Fork-wait share approximates the
        // synchronization overhead of the locking techniques (Section 7.3).
        const int64_t compute_us =
            Total(cell.stats.timeline, &SuperstepSample::compute_us);
        const int64_t fork_us =
            Total(cell.stats.timeline, &SuperstepSample::fork_wait_us);
        char fork_share[32];
        std::snprintf(fork_share, sizeof(fork_share), "%.1f%%",
                      compute_us > 0
                          ? 100.0 * static_cast<double>(fork_us) /
                                static_cast<double>(compute_us)
                          : 0.0);
        table.AddRow(
            {cell.dataset, std::to_string(cell.workers),
             SyncModeName(cell.sync), TablePrinter::Seconds(median_seconds),
             std::to_string(cell.stats.supersteps),
             TablePrinter::Count(cell.stats.Metric("net.control_messages")),
             std::to_string(cell.stats.Metric("net.wire_bytes") / 1048576) +
                 " MB",
             cell.valid ? "yes" : "NO",
             TablePrinter::Ratio(median_seconds / partition_time),
             fork_share});

        BenchCell bench_cell;
        bench_cell.name = slug + "/" + cell.dataset + "/" +
                          std::to_string(cell.workers) + "w/" +
                          SyncModeName(cell.sync);
        bench_cell.unit = "s";
        bench_cell.median = median_seconds;
        bench_cell.min = *std::min_element(cell.rep_seconds.begin(),
                                           cell.rep_seconds.end());
        bench_cell.max = *std::max_element(cell.rep_seconds.begin(),
                                           cell.rep_seconds.end());
        bench_cell.reps = static_cast<int>(cell.rep_seconds.size());
        bench_cell.counters["supersteps"] = cell.stats.supersteps;
        bench_cell.counters["net.wire_bytes"] =
            cell.stats.Metric("net.wire_bytes");
        bench_cell.counters["net.control_messages"] =
            cell.stats.Metric("net.control_messages");
        if (args.perf_counters) {
          for (const char* key :
               {"perf.cycles", "perf.instructions", "perf.llc_loads",
                "perf.llc_misses", "perf.task_clock_ms",
                "perf.ctx_switches"}) {
            bench_cell.counters[key] = cell.stats.Metric(key);
          }
          bench_cell.peak_rss_kb = cell.stats.peak_rss_kb;
        }
        report.Add(std::move(bench_cell));
      }
    }
  }
  table.Print(std::cout);
  std::printf("fork/compute: fork-acquire wait as a share of compute time "
              "(both summed over workers;\n waits are per compute thread, "
              "so >100%% means threads mostly blocked on forks)\n");

  // One per-superstep breakdown per grid, for the contribution technique's
  // last configuration: shows how phase costs evolve over the run.
  if (!last_timeline.empty()) {
    std::printf("\nper-superstep timeline (%s):\n",
                last_timeline_label.c_str());
    PrintTimeline(std::cout, last_timeline);
  }

  int exit_code = 0;
  if (!args.json_path.empty()) {
    report.env = CaptureBenchEnvironment();
    if (report.WriteJson(args.json_path)) {
      std::printf("\nbench report written to %s (%zu cells)\n",
                  args.json_path.c_str(), report.cells.size());
    } else {
      exit_code = 1;
    }
  }
  if (!args.trace_out.empty()) {
    Status s = Tracer::Get().WriteChromeTrace(args.trace_out);
    if (s.ok()) {
      std::printf("trace written to %s (%lld events)\n",
                  args.trace_out.c_str(),
                  (long long)Tracer::Get().event_count());
    } else {
      std::fprintf(stderr, "trace-out: %s\n", s.ToString().c_str());
      exit_code = 1;
    }
  }
  return exit_code;
}

/// Flagless overload for callers that do not forward main() arguments.
inline void RunFig6Grid(
    const std::string& title, const std::string& paper_expectation,
    bool undirected,
    const std::function<std::pair<RunStats, bool>(const Graph&,
                                                  const EngineOptions&)>& run) {
  RunFig6Grid(0, nullptr, title, paper_expectation, undirected, run);
}

}  // namespace serigraph

#endif  // SERIGRAPH_BENCH_FIG6_COMMON_H_
