// Microbenchmarks for the simulated transport: send/receive throughput
// and the cost of encoding message batches, isolating the substrate the
// synchronization techniques run on.

#include <benchmark/benchmark.h>

#include <thread>

#include "common/metrics.h"
#include "common/serialize.h"
#include "net/transport.h"
#include "pregel/message_codec.h"

namespace serigraph {
namespace {

void BM_TransportSendReceive(benchmark::State& state) {
  MetricRegistry metrics;
  Transport transport(2, NetworkOptions{}, &metrics);
  const int64_t payload_size = state.range(0);
  for (auto _ : state) {
    WireMessage msg;
    msg.src = 0;
    msg.dst = 1;
    msg.kind = MessageKind::kDataBatch;
    msg.payload.assign(payload_size, 0xab);
    transport.Send(std::move(msg));
    auto received = transport.TryReceive(1);
    benchmark::DoNotOptimize(received);
  }
  state.SetBytesProcessed(state.iterations() * (payload_size + 32));
}
BENCHMARK(BM_TransportSendReceive)->Arg(64)->Arg(4096)->Arg(65536);

void BM_TransportCrossThread(benchmark::State& state) {
  MetricRegistry metrics;
  Transport transport(2, NetworkOptions{}, &metrics);
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (auto msg = transport.Receive(1)) {
      benchmark::DoNotOptimize(msg);
    }
  });
  for (auto _ : state) {
    WireMessage msg;
    msg.src = 0;
    msg.dst = 1;
    msg.kind = MessageKind::kControl;
    transport.Send(std::move(msg));
  }
  done.store(true);
  transport.Shutdown();
  consumer.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransportCrossThread);

// One data batch through the engine's record codec (pregel/message_codec.h):
// encode `count` records, then decode them with the receiver's checks.
void BM_BatchEncodeDecode(benchmark::State& state) {
  const int64_t count = state.range(0);
  for (auto _ : state) {
    BufferWriter writer;
    for (int64_t i = 0; i < count; ++i) {
      EncodeDataRecord(writer, static_cast<VertexId>(i),
                       static_cast<double>(i));
    }
    std::vector<uint8_t> bytes = writer.Release();
    const Status status = DecodeDataBatch<double>(
        bytes, static_cast<VertexId>(count),
        [](VertexId) { return PartitionId{0}; },
        [](PartitionId, VertexId, double&& value) {
          benchmark::DoNotOptimize(value);
        });
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_BatchEncodeDecode)->Arg(100)->Arg(10000);

}  // namespace
}  // namespace serigraph

#include "micro_main.h"
