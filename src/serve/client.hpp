// Client side of the osn-served protocol: connect, send one request, read
// one response. Speaks either wire — line-delimited JSON (the default) or
// the OSNB binary framing, selected at construction (a binary client leads
// with the OSNB preamble so the server's codec detection routes it). Both
// wires take one path: frame with the wire's net::Codec, send, then
// receive until that codec yields one response frame.
// Transport failures are surfaced as synthetic failed Responses (error
// "transport") so callers handle one shape.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/clock.hpp"
#include "common/socket.hpp"
#include "serve/protocol.hpp"

namespace osn::serve {

/// Which framing the client puts on the wire.
enum class Wire : std::uint8_t { kJson, kBinary };

const char* wire_name(Wire wire);

class Client {
 public:
  /// Connects to an osn-served instance. Check ok() before calling. A
  /// kBinary client sends the OSNB preamble as part of its first request.
  Client(const std::string& host, std::uint16_t port,
         Deadline deadline = Deadline::never(), Wire wire = Wire::kJson);

  bool ok() const { return stream_.ok(); }
  const std::string& connect_error() const { return connect_error_; }
  Wire wire() const { return wire_; }

  /// One round-trip. Any transport problem (send failure, EOF, deadline,
  /// unparseable response) comes back as a failed Response with error
  /// "transport". A call that ran out of time closes the client: its reply
  /// may still arrive and must not answer a later call.
  Response call(const Request& req, Deadline deadline = Deadline::never());

  /// Raw-frame variant (tests exercising protocol errors directly): sends
  /// `line` as one frame of the client's wire, unchecked.
  Response call_line(const std::string& line, std::uint64_t id,
                     Deadline deadline = Deadline::never());

 private:
  /// The one round trip behind call() and call_line().
  Response exchange(std::string_view frame, std::uint64_t id, Deadline deadline);

  TcpStream stream_;
  std::string connect_error_;
  Wire wire_ = Wire::kJson;
  bool sent_preamble_ = false;
  std::string rbuf_;  ///< received, not yet framed
};

/// Largest response frame a Client accepts. A response carries a whole
/// rendered document, so the cap must fit the biggest one the planner
/// renders: a chart or timeseries grid of query::kMaxBuckets buckets, tens
/// of MB. 256 MiB leaves room for that and still bounds what a misbehaving
/// peer can make the client buffer.
inline constexpr std::size_t kMaxResponseBytes = 256u << 20;

/// errc-style code for client-side transport failures (never sent on the
/// wire by a server).
inline constexpr const char* kTransportError = "transport";

}  // namespace osn::serve
