// Structured error for malformed trace input.
//
// Corrupt or truncated storage is an *input condition*, not a programming
// error: every byte of an OSNT file may have rotted, been cut short, or come
// from a hostile filesystem. Readers therefore throw TraceReadError — with
// the byte offset and, where known, the chunk — instead of asserting, and
// the CLI turns it into a clean diagnostic with a nonzero exit. Records that
// decode cleanly can still be damaged (an exit without its entry, an
// interval cut off by truncation); the analysis throws the same error for
// them. OSN_ASSERT remains reserved for invariants of our own code (writer
// discipline).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace osn::trace {

class TraceReadError : public std::runtime_error {
 public:
  static constexpr std::int64_t kNoChunk = -1;

  TraceReadError(const std::string& message, std::uint64_t byte_offset,
                 std::int64_t chunk_id = kNoChunk)
      : std::runtime_error(format(message, byte_offset, chunk_id)),
        byte_offset_(byte_offset),
        chunk_id_(chunk_id) {}

  /// A problem found in decoded records (the analysis's entry/exit
  /// pairing), where no file offset applies: byte_offset() is 0.
  explicit TraceReadError(const std::string& message)
      : std::runtime_error(message), byte_offset_(0), chunk_id_(kNoChunk) {}

  /// Offset (within the buffer/file being parsed) where the problem surfaced.
  std::uint64_t byte_offset() const { return byte_offset_; }
  /// Chunk being decoded when the problem surfaced; kNoChunk outside chunks.
  std::int64_t chunk_id() const { return chunk_id_; }

 private:
  static std::string format(const std::string& message, std::uint64_t byte_offset,
                            std::int64_t chunk_id) {
    std::string out = message + " (byte " + std::to_string(byte_offset);
    if (chunk_id != kNoChunk) out += ", chunk " + std::to_string(chunk_id);
    out += ")";
    return out;
  }

  std::uint64_t byte_offset_;
  std::int64_t chunk_id_;
};

}  // namespace osn::trace
