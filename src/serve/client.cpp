#include "serve/client.hpp"

#include "net/codec.hpp"

namespace osn::serve {

const char* wire_name(Wire wire) {
  return wire == Wire::kBinary ? "binary" : "json";
}

Client::Client(const std::string& host, std::uint16_t port, Deadline deadline,
               Wire wire)
    : wire_(wire) {
  stream_ = TcpStream::connect(host, port, deadline, &connect_error_);
}

Response Client::call(const Request& req, Deadline deadline) {
  return exchange(wire_ == Wire::kBinary ? request_to_osnb(req) : req.to_line(), req.id,
                  deadline);
}

Response Client::call_line(const std::string& line, std::uint64_t id,
                           Deadline deadline) {
  return exchange(line, id, deadline);
}

Response Client::exchange(std::string_view frame, std::uint64_t id, Deadline deadline) {
  if (!stream_.ok())
    return Response::failure(id, kTransportError,
                             connect_error_.empty() ? "not connected" : connect_error_);
  const bool binary = wire_ == Wire::kBinary;
  const net::Codec& codec =
      net::codec_for(binary ? net::CodecKind::kOsnb : net::CodecKind::kLine);
  std::string wire;
  if (binary && !sent_preamble_) {
    // Piggy-back the codec-selection preamble on the first request: one
    // write, and the server's detection consumes it before framing.
    wire.assign(net::kOsnbPreamble, net::kOsnbPreambleLen);
    sent_preamble_ = true;
  }
  wire += codec.encode(frame);
  if (!stream_.send_all(wire, deadline))
    return Response::failure(id, kTransportError, "send failed");

  std::string reply;
  std::string frame_error;
  for (;;) {
    switch (codec.decode(rbuf_, kMaxResponseBytes, reply, frame_error)) {
      case net::Codec::Result::kFrame: {
        std::optional<Response> resp =
            binary ? parse_response_osnb(reply) : parse_response(reply);
        if (!resp) return Response::failure(id, kTransportError, "unparseable response");
        return *resp;
      }
      case net::Codec::Result::kError:
        return Response::failure(id, kTransportError,
                                 "bad response framing: " + frame_error);
      case net::Codec::Result::kNeedMore:
        if (!stream_.recv_chunk(rbuf_, deadline)) {
          // A late reply would answer the next call: close, so that call
          // reports "not connected" instead of a stale response.
          const bool late = stream_.ok();
          stream_.close();
          return Response::failure(id, kTransportError,
                                   late ? "no response before the deadline"
                                        : "connection closed before response");
        }
        break;
    }
  }
}

}  // namespace osn::serve
