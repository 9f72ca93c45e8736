#ifndef SERIGRAPH_NET_MESSAGE_H_
#define SERIGRAPH_NET_MESSAGE_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace serigraph {

/// Coarse category of a wire message. The transport treats all kinds
/// identically; workers dispatch on kind.
enum class MessageKind : uint8_t {
  kDataBatch = 0,   ///< batch of vertex->vertex data messages (payload)
  kControl = 1,     ///< sync-technique traffic: tokens, forks, requests
  kFlushMarker = 2, ///< sent after a flush; receiver acks when processed
  kAck = 3,         ///< acknowledgement of a flush marker
  kLoading = 4,     ///< input-loading traffic (dependency exchange)
};

/// Provenance of one vertex-to-vertex message for the history recorder
/// (verify/history.h): `src`'s write at `version` is addressed to `dst`.
struct MessageProvenance {
  VertexId src = kInvalidVertex;
  VertexId dst = kInvalidVertex;
  uint64_t version = 0;
};

/// One message on the simulated network. Control messages use the small
/// integer operand fields; data batches carry a serialized payload.
/// `bytes_on_wire` approximates the encoded size (header + payload).
struct WireMessage {
  WorkerId src = kInvalidWorker;
  WorkerId dst = kInvalidWorker;
  MessageKind kind = MessageKind::kControl;
  /// Subtype within the kind, interpreted by the receiver (e.g. which
  /// control verb: token grant, fork request, fork transfer, ...).
  uint32_t tag = 0;
  /// Small operands (philosopher ids, superstep numbers, ack ids, ...).
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
  /// Causality tag: nonzero ids pair the send with the receive as a flow
  /// arrow in the Chrome trace ("ph":"s"/"f"), so a fork request/grant or
  /// vertex batch can be followed across workers. Assigned by the
  /// transport when tracing is enabled; 0 means untagged.
  uint64_t span = 0;
  /// Per-(src,dst) link sequence number, assigned by the transport on
  /// send (1-based, strictly increasing per link). The receiver drops
  /// messages whose sequence it has already delivered (duplicate
  /// tolerance) and reports gaps (message loss) to the loss callback.
  uint64_t link_seq = 0;
  std::vector<uint8_t> payload;
  /// Data batches with a history recorder attached: the provenance of
  /// every message folded into `payload` (one entry per send, so a
  /// sender-combined record contributes several). Verification metadata
  /// carried out of band: empty, with no allocation, on unrecorded runs,
  /// and not counted by BytesOnWire.
  std::vector<MessageProvenance> provenance;

  /// Approximate wire size: fixed header plus payload.
  int64_t BytesOnWire() const {
    return 32 + static_cast<int64_t>(payload.size());
  }
};

/// Growable power-of-two ring buffer of WireMessages: the transport's
/// zero-delay fast-path inbox. Plain FIFO — total per-inbox arrival
/// order, which subsumes the per-(src,dst) ordering guarantee — with no
/// per-message heap node (the priority-queue path pays one) and memory
/// reused across pushes. Not thread-safe; the owner locks around it.
class MessageRing {
 public:
  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }

  void Push(WireMessage msg) {
    if (count_ == buf_.size()) Grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(msg);
    ++count_;
  }

  WireMessage Pop() {
    WireMessage msg = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
    return msg;
  }

 private:
  void Grow() {
    const size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<WireMessage> grown(cap);
    for (size_t i = 0; i < count_; ++i) {
      grown[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_.swap(grown);
    head_ = 0;
  }

  std::vector<WireMessage> buf_;
  size_t head_ = 0;
  size_t count_ = 0;
};

}  // namespace serigraph

#endif  // SERIGRAPH_NET_MESSAGE_H_
