#ifndef SERIGRAPH_COMMON_SERIALIZE_H_
#define SERIGRAPH_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace serigraph {

/// Append-only binary encoder. Giraph keeps vertex/edge/message objects in
/// serialized form to avoid GC pressure; SeriGraph mirrors that design for
/// wire messages and checkpoints so that per-message byte counts (reported
/// by the transport) reflect realistic encoded sizes.
class BufferWriter {
 public:
  BufferWriter() = default;

  void WriteU8(uint8_t v) { buf_.push_back(v); }
  void WriteU32(uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { AppendRaw(&v, sizeof(v)); }

  /// LEB128 variable-length unsigned integer (1-10 bytes).
  void WriteVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  /// Zig-zag signed varint.
  void WriteSignedVarint(int64_t v) {
    WriteVarint((static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63));
  }

  /// Length-prefixed byte string.
  void WriteString(const std::string& s) {
    WriteVarint(s.size());
    AppendRaw(s.data(), s.size());
  }

  void AppendRaw(const void* data, size_t n) {
    if (n == 0) return;
    const size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, data, n);
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }
  void Clear() { buf_.clear(); }

  /// Takes ownership of `buf` and continues appending after its current
  /// contents — lets a flusher encode more records onto an already-built
  /// payload without copying it.
  void Adopt(std::vector<uint8_t> buf) { buf_ = std::move(buf); }

 private:
  std::vector<uint8_t> buf_;
};

/// Sequential binary decoder over a borrowed byte range. All Read* methods
/// return false (and leave the output untouched) on underflow; callers turn
/// that into Status::IoError.
class BufferReader {
 public:
  BufferReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit BufferReader(const std::vector<uint8_t>& buf)
      : BufferReader(buf.data(), buf.size()) {}

  bool ReadU8(uint8_t* out) { return ReadRaw(out, sizeof(*out)); }
  bool ReadU32(uint32_t* out) { return ReadRaw(out, sizeof(*out)); }
  bool ReadU64(uint64_t* out) { return ReadRaw(out, sizeof(*out)); }
  bool ReadI64(int64_t* out) { return ReadRaw(out, sizeof(*out)); }
  bool ReadDouble(double* out) { return ReadRaw(out, sizeof(*out)); }

  bool ReadVarint(uint64_t* out) {
    uint64_t result = 0;
    int shift = 0;
    while (pos_ < size_ && shift < 64) {
      uint8_t byte = data_[pos_++];
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = result;
        return true;
      }
      shift += 7;
    }
    return false;
  }

  bool ReadSignedVarint(int64_t* out) {
    uint64_t raw;
    if (!ReadVarint(&raw)) return false;
    *out = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
    return true;
  }

  bool ReadString(std::string* out) {
    uint64_t n;
    if (!ReadVarint(&n) || n > Remaining()) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

  bool ReadRaw(void* out, size_t n) {
    if (n > Remaining()) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  size_t Remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace serigraph

#endif  // SERIGRAPH_COMMON_SERIALIZE_H_
