#ifndef SERIGRAPH_PREGEL_MESSAGE_CODEC_H_
#define SERIGRAPH_PREGEL_MESSAGE_CODEC_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "graph/types.h"

namespace serigraph {

/// Wire codec for vertex-to-vertex message payloads. The default handles
/// any trivially copyable type by writing its object representation;
/// programs with richer message types specialize MessageCodec<M>.
template <typename M>
struct MessageCodec {
  static_assert(std::is_trivially_copyable_v<M>,
                "specialize MessageCodec<M> for non-trivial message types");

  static void Encode(BufferWriter& writer, const M& message) {
    writer.AppendRaw(&message, sizeof(M));
  }
  static bool Decode(BufferReader& reader, M* message) {
    return reader.ReadRaw(message, sizeof(M));
  }
};

/// Decodes one data-batch payload: records of varint dst, varint src,
/// varint version, then the codec's message bytes. `route(dst)` returns
/// dst's partition, or kInvalidPartition when the receiving worker does
/// not own it; each record then goes to
/// fn(partition, dst, src, version, message). A
/// truncated record, a dst >= num_vertices, or an unowned dst stops the
/// decode with InvalidArgument; records before it were already passed to
/// fn, so the caller must discard them.
template <typename M, typename Route, typename Fn>
Status DecodeDataBatch(const std::vector<uint8_t>& payload,
                       VertexId num_vertices, Route&& route, Fn&& fn) {
  BufferReader reader(payload);
  while (!reader.AtEnd()) {
    const size_t start = reader.position();
    const auto malformed = [start](const std::string& what) {
      return Status::InvalidArgument("data batch: " + what +
                                     " in record at byte " +
                                     std::to_string(start));
    };
    uint64_t dst = 0, src = 0, version = 0;
    if (!reader.ReadVarint(&dst) || !reader.ReadVarint(&src) ||
        !reader.ReadVarint(&version)) {
      return malformed("truncated varint");
    }
    M message{};
    if (!MessageCodec<M>::Decode(reader, &message)) {
      return malformed("truncated message");
    }
    if (dst >= static_cast<uint64_t>(num_vertices)) {
      return malformed("dst " + std::to_string(dst) + " out of range");
    }
    const PartitionId p = route(static_cast<VertexId>(dst));
    if (p == kInvalidPartition) {
      return malformed("dst " + std::to_string(dst) +
                       " not owned by this worker");
    }
    fn(p, static_cast<VertexId>(dst), static_cast<VertexId>(src), version,
       std::move(message));
  }
  return Status::OK();
}

}  // namespace serigraph

#endif  // SERIGRAPH_PREGEL_MESSAGE_CODEC_H_
