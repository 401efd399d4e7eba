// LEB128 varints, the one integer encoding the whole system shares.
//
// The OSNT trace format encodes every on-disk integer as a LEB128 varint
// (src/trace/trace_io.hpp); the OSNB wire protocol reuses
// the exact same encoding for frame lengths and envelope fields so a reader
// of one format already knows the other. This header is the common home:
// byte-level append/decode with no error-handling policy attached. The
// trace layer wraps decode failures in TraceReadError (malformed input in a
// file is exceptional); the net layer maps kNeedMore to "wait for more
// bytes" (a truncated varint on a socket is the normal case, not an error).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace osn {

/// Longest LEB128 encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Writes v as a LEB128 varint at p (7 payload bits per byte, LSB first,
/// high bit = continuation) and returns one past the last byte written. The
/// caller provides room for kMaxVarintBytes. The one encoder: every append
/// below and the trace writer's record encode go through it.
inline std::uint8_t* varint_encode(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(0x80 | (v & 0x7F));
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Appends v as a LEB128 varint.
inline void varint_append(std::string& out, std::uint64_t v) {
  std::uint8_t buf[kMaxVarintBytes];
  out.append(reinterpret_cast<const char*>(buf),
             static_cast<std::size_t>(varint_encode(buf, v) - buf));
}

inline void varint_append(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t buf[kMaxVarintBytes];
  out.insert(out.end(), buf, varint_encode(buf, v));
}

enum class VarintStatus : std::uint8_t {
  kOk,        ///< decoded; pos advanced past the varint
  kNeedMore,  ///< buffer ends mid-varint; pos unchanged
  kMalformed, ///< more than 10 continuation bytes (cannot fit in 64 bits)
};

/// Decodes a LEB128 varint at data[pos]. Advances pos only on kOk, so a
/// streaming caller can retry the same position once more bytes arrive.
inline VarintStatus varint_decode(const std::uint8_t* data, std::size_t size,
                                  std::size_t& pos, std::uint64_t& out) {
  std::uint64_t value = 0;
  std::size_t p = pos;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (p >= size) return VarintStatus::kNeedMore;
    const std::uint8_t byte = data[p++];
    if (shift == 63 && (byte & 0x7E) != 0)
      return VarintStatus::kMalformed;  // payload bits past bit 63
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      out = value;
      pos = p;
      return VarintStatus::kOk;
    }
  }
  return VarintStatus::kMalformed;  // 10 continuation bytes: > 64 bits
}

inline VarintStatus varint_decode(const std::string& buf, std::size_t& pos,
                                  std::uint64_t& out) {
  return varint_decode(reinterpret_cast<const std::uint8_t*>(buf.data()),
                       buf.size(), pos, out);
}

}  // namespace osn
