// Engine robustness on degenerate inputs: empty graphs, isolated
// vertices, more workers than vertices, graphs with a single vertex,
// checkpointing under asynchronous serializable execution, and malformed
// wire data batches.

#include <gtest/gtest.h>

#include <cstdio>

#include "algos/coloring.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "graph/generators.h"
#include "pregel/engine.h"
#include "pregel/message_codec.h"

namespace serigraph {
namespace {

Graph Make(const EdgeList& el) {
  auto g = Graph::FromEdgeList(el);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

TEST(EngineEdgeCasesTest, EmptyGraphTerminatesImmediately) {
  Graph g = Make({0, {}});
  for (SyncMode sync : {SyncMode::kNone, SyncMode::kPartitionLocking}) {
    EngineOptions opts;
    opts.sync_mode = sync;
    opts.num_workers = 3;
    Engine<Sssp> engine(&g, opts);
    auto result = engine.Run(Sssp(0));
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->values.empty());
  }
}

TEST(EngineEdgeCasesTest, SingleVertexGraph) {
  Graph g = Make({1, {}});
  EngineOptions opts;
  opts.num_workers = 2;  // more workers than vertices
  Engine<Sssp> engine(&g, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->values, (std::vector<int64_t>{0}));
}

TEST(EngineEdgeCasesTest, IsolatedVerticesHaltWithoutTrouble) {
  // 10 vertices, only 0-1 connected; the rest never receive anything.
  EdgeList el{10, {{0, 1}, {1, 0}}};
  Graph g = Make(el);
  // kNone is excluded from the proper-coloring assertion: without a
  // technique the two connected vertices may race and pick the same
  // color — the exact failure the paper motivates with.
  for (SyncMode sync :
       {SyncMode::kSingleLayerToken, SyncMode::kDualLayerToken,
        SyncMode::kVertexLocking, SyncMode::kPartitionLocking}) {
    EngineOptions opts;
    opts.sync_mode = sync;
    opts.num_workers = 4;
    Engine<GreedyColoring> engine(&g, opts);
    auto result = engine.Run(GreedyColoring());
    ASSERT_TRUE(result.ok()) << SyncModeName(sync);
    EXPECT_TRUE(result->stats.converged) << SyncModeName(sync);
    EXPECT_TRUE(IsProperColoring(g, result->values)) << SyncModeName(sync);
    // Isolated vertices all take color 0.
    for (VertexId v = 2; v < 10; ++v) EXPECT_EQ(result->values[v], 0);
  }
}

TEST(EngineEdgeCasesTest, ManyMoreWorkersThanVertices) {
  Graph g = Make(Ring(6)).Undirected();
  EngineOptions opts;
  opts.sync_mode = SyncMode::kPartitionLocking;
  opts.num_workers = 12;
  Engine<GreedyColoring> engine(&g, opts);
  auto result = engine.Run(GreedyColoring());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(IsProperColoring(g, result->values));
}

TEST(EngineEdgeCasesTest, SourceOutsideComponent) {
  // Two components; SSSP from component A leaves B at infinity.
  EdgeList el = Ring(10);
  EdgeList other = Ring(10);
  for (Edge& e : other.edges) {
    e.src += 10;
    e.dst += 10;
  }
  el.edges.insert(el.edges.end(), other.edges.begin(), other.edges.end());
  el.num_vertices = 20;
  Graph g = Make(el);
  EngineOptions opts;
  opts.num_workers = 2;
  Engine<Sssp> engine(&g, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_TRUE(result.ok());
  for (VertexId v = 10; v < 20; ++v) {
    EXPECT_EQ(result->values[v], kInfiniteDistance);
  }
}

TEST(EngineEdgeCasesTest, ZeroLatencyAndHighLatencyAgree) {
  Graph g = Make(ErdosRenyi(120, 500, 2));
  auto reference = ReferenceSssp(g, 0);
  for (int64_t latency_us : {0, 2000}) {
    EngineOptions opts;
    opts.num_workers = 3;
    opts.network.one_way_latency_us = latency_us;
    Engine<Sssp> engine(&g, opts);
    auto result = engine.Run(Sssp(0));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->values, reference) << "latency=" << latency_us;
  }
}

TEST(EngineEdgeCasesTest, TinyMessageBatchesStillCorrect) {
  Graph g = Make(ErdosRenyi(150, 700, 6));
  EngineOptions opts;
  opts.num_workers = 4;
  opts.message_batch_bytes = 1;  // flush every single message
  Engine<Sssp> engine(&g, opts);
  auto result = engine.Run(Sssp(0));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->values, ReferenceSssp(g, 0));
}

TEST(EngineEdgeCasesTest, CheckpointUnderAsyncPartitionLocking) {
  // Checkpoint/restore with pending messages in the stores: PageRank
  // under AP + partition locking checkpoints every superstep; a restore
  // from the last checkpoint must converge to (approximately) the same
  // fixpoint.
  Graph g = Make(PowerLawChungLu(300, 8, 2.3, 12));
  EngineOptions opts;
  opts.sync_mode = SyncMode::kPartitionLocking;
  opts.num_workers = 2;
  opts.checkpoint_every = 2;
  opts.checkpoint_dir = testing::TempDir();
  Engine<PageRank> writer(&g, opts);
  auto first = writer.Run(PageRank(1e-3));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->stats.converged);
  ASSERT_FALSE(writer.last_checkpoint_path().empty());

  EngineOptions restore;
  restore.sync_mode = SyncMode::kPartitionLocking;
  restore.num_workers = 2;
  restore.restore_path = writer.last_checkpoint_path();
  Engine<PageRank> restored(&g, restore);
  auto resumed = restored.Run(PageRank(1e-3));
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->stats.converged);
  EXPECT_LT(MaxAbsDifference(resumed->values, first->values), 0.05);
  std::remove(writer.last_checkpoint_path().c_str());
}

// --- wire data-batch decode -----------------------------------------

// One record as the engine's send path encodes it.
void AppendRecord(BufferWriter& w, uint64_t dst, int64_t message) {
  w.WriteVarint(dst);
  w.WriteVarint(3);  // src
  w.WriteVarint(0);  // version
  MessageCodec<int64_t>::Encode(w, message);
}

struct DecodedBatch {
  Status status;
  std::vector<std::pair<VertexId, int64_t>> records;
};

// Decodes for a receiver in a 10-vertex graph that owns vertices 0..4
// (all in partition 1).
DecodedBatch Decode(const std::vector<uint8_t>& payload) {
  DecodedBatch out;
  out.status = DecodeDataBatch<int64_t>(
      payload, 10,
      [](VertexId v) { return v < 5 ? PartitionId{1} : kInvalidPartition; },
      [&](PartitionId p, VertexId dst, VertexId src, uint64_t version,
          int64_t&& message) {
        EXPECT_EQ(p, 1);
        EXPECT_EQ(src, 3);
        EXPECT_EQ(version, 0u);
        out.records.emplace_back(dst, message);
      });
  return out;
}

TEST(WireDecodeTest, WellFormedBatchDecodesEveryRecord) {
  BufferWriter w;
  AppendRecord(w, 0, -1);
  AppendRecord(w, 4, 1LL << 40);
  const DecodedBatch batch = Decode(w.data());
  ASSERT_TRUE(batch.status.ok()) << batch.status;
  ASSERT_EQ(batch.records.size(), 2u);
  EXPECT_EQ(batch.records[1], std::make_pair(VertexId{4}, int64_t{1} << 40));
}

TEST(WireDecodeTest, RejectsTruncatedVarint) {
  BufferWriter w;
  AppendRecord(w, 1, 5);
  w.WriteU8(0x80);  // continuation bit, then the payload ends
  const DecodedBatch batch = Decode(w.data());
  EXPECT_EQ(batch.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(batch.status.message().find("truncated varint"),
            std::string::npos)
      << batch.status;
}

TEST(WireDecodeTest, RejectsTruncatedMessage) {
  BufferWriter w;
  AppendRecord(w, 1, 5);
  std::vector<uint8_t> payload = w.data();
  payload.pop_back();  // last record loses a message byte
  const DecodedBatch batch = Decode(payload);
  EXPECT_EQ(batch.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(batch.status.message().find("truncated message"),
            std::string::npos)
      << batch.status;
}

TEST(WireDecodeTest, RejectsOutOfRangeAndUnownedDst) {
  for (uint64_t dst : {uint64_t{10}, uint64_t{1} << 62, ~uint64_t{0}}) {
    BufferWriter w;
    AppendRecord(w, dst, 5);
    const DecodedBatch batch = Decode(w.data());
    EXPECT_EQ(batch.status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(batch.status.message().find("out of range"), std::string::npos)
        << batch.status;
    EXPECT_TRUE(batch.records.empty());
  }
  BufferWriter w;
  AppendRecord(w, 7, 5);  // in range, but another worker's vertex
  const DecodedBatch batch = Decode(w.data());
  EXPECT_EQ(batch.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(batch.status.message().find("not owned"), std::string::npos)
      << batch.status;
}

}  // namespace
}  // namespace serigraph
