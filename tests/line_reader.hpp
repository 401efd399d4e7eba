// Reads newline-framed replies off a raw TcpStream through the line codec,
// for tests that speak the JSON wire without a serve::Client.
#pragma once

#include <optional>
#include <string>

#include "common/clock.hpp"
#include "common/socket.hpp"
#include "net/codec.hpp"
#include "net/event_loop.hpp"

namespace osn::testing {

/// The next line from `s`, without its '\n'. Bytes past it stay in `buf`
/// for the next call. nullopt when the deadline passes or the peer closes
/// (then `s.ok()` is false).
inline std::optional<std::string> recv_line(TcpStream& s, std::string& buf,
                                            Deadline deadline) {
  const net::Codec& line = net::codec_for(net::CodecKind::kLine);
  std::string frame;
  std::string error;
  for (;;) {
    switch (line.decode(buf, net::kMaxFrameBytes, frame, error)) {
      case net::Codec::Result::kFrame:
        return frame;
      case net::Codec::Result::kError:
        return std::nullopt;
      case net::Codec::Result::kNeedMore:
        if (!s.recv_chunk(buf, deadline)) return std::nullopt;
        break;
    }
  }
}

}  // namespace osn::testing
