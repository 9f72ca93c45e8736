// Sections 4.1 / 5.4 ablation: message batching. Partition-based locking
// can batch an entire partition's remote replica updates before a fork
// handover; vertex-based locking must flush tiny batches at every
// m-boundary vertex. We isolate the effect by sweeping the buffer-cache
// capacity under partition-based locking.

#include <iostream>

#include "algos/pagerank.h"
#include "graph/stats.h"
#include "harness/datasets.h"
#include "harness/runner.h"
#include "harness/table.h"

using namespace serigraph;

int main() {
  PrintHeader(std::cout,
              "Sections 4.1/5.4 ablation: message batching "
              "(PageRank on OR', partition-based locking, 16 workers)");
  Graph graph = MakeDataset(FindSpec("OR'"));

  TablePrinter table({"batch bytes", "data batches", "avg batch KB",
                      "wire MB", "time"});
  for (int64_t batch : {int64_t{1}, int64_t{512}, int64_t{4} * 1024,
                        int64_t{64} * 1024, int64_t{1024} * 1024}) {
    EngineOptions config;
    config.sync_mode = SyncMode::kPartitionLocking;
    config.num_workers = 16;
    config.network = BenchNetwork();
    config.message_batch_bytes = batch;
    RunStats stats = RunProgram(graph, PageRank(0.01), config);
    const int64_t batches = stats.Metric("net.data_batches");
    const int64_t bytes = stats.Metric("net.wire_bytes");
    char avg[32];
    std::snprintf(avg, sizeof(avg), "%.1f",
                  batches > 0 ? static_cast<double>(bytes) /
                                    static_cast<double>(batches) / 1024.0
                              : 0.0);
    table.AddRow({batch == 1 ? "1 (no batching)" : HumanCount(batch),
                  TablePrinter::Count(batches), avg,
                  std::to_string(bytes / 1048576) + " MB",
                  TablePrinter::Seconds(stats.computation_seconds)});
  }
  table.Print(std::cout);
  std::cout << "\npaper: batching remote replica updates is a key reason "
               "coarse-grained locking\nbeats vertex-based locking "
               "(Section 5.4).\n";
  return 0;
}
