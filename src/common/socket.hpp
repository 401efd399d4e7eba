// Minimal TCP building blocks for the trace-query service.
//
// The serve stack needs three things from the OS: a listener the event loop
// accepts from without blocking, a client connect bounded by a deadline, and
// deadline-bounded send-all / receive-some on a connected stream (clients
// frame what they receive with a net::Codec). These wrappers cover exactly
// that — blocking sockets driven by poll(2), every wait bounded by a
// common::Deadline — and nothing else. IPv4 only; the daemon binds loopback
// by default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/clock.hpp"

namespace osn {

// ---------------------------------------------------------------------------
// Raw-fd helpers: the single home of the EINTR / partial-transfer / SIGPIPE
// discipline. Everything in the repo that touches a socket fd — the blocking
// TcpStream below, the src/net/ event loop — goes through these instead of
// re-rolling ::send/::recv loops per call site (osn_lint's `raw-socket` rule
// enforces that).
// ---------------------------------------------------------------------------
namespace sockio {

enum class Status : std::uint8_t {
  kOk,          ///< transferred >= 1 byte
  kWouldBlock,  ///< non-blocking fd has no space/data right now
  kEof,         ///< orderly peer shutdown (reads only)
  kError,       ///< fatal transport error; errno holds the reason
};

/// One ::send with MSG_NOSIGNAL (a dead peer must yield EPIPE, never
/// SIGPIPE — daemons cannot rely on callers installing SIG_IGN), retrying
/// EINTR. Partial writes are normal: `done` reports bytes accepted.
Status write_some(int fd, const char* data, std::size_t len, std::size_t& done);

/// One ::recv, retrying EINTR. `done` reports bytes received on kOk.
Status read_some(int fd, char* buf, std::size_t cap, std::size_t& done);

/// Writes all of [data, data+len) to a *blocking* fd, polling for POLLOUT
/// up to the deadline between partial writes. False on error/deadline/HUP.
bool write_all(int fd, const char* data, std::size_t len, Deadline deadline);

bool set_nonblocking(int fd);
/// The protocol is small request frames per round trip; Nagle only adds
/// latency. Applied to every accepted/connected socket.
void set_tcp_nodelay(int fd);

}  // namespace sockio

/// A connected TCP stream (move-only RAII over the file descriptor).
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream();

  TcpStream(TcpStream&& other) noexcept;
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Connects to host:port, giving up when the deadline passes (a host that
  /// drops SYNs fails with "connect: timed out" instead of blocking for the
  /// kernel's SYN retries). Returns a closed stream (!ok()) on failure; the
  /// reason lands in `error` when provided.
  static TcpStream connect(const std::string& host, std::uint16_t port,
                           Deadline deadline = Deadline::never(),
                           std::string* error = nullptr);

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Writes all of `data`, waiting (poll) up to the deadline. False on
  /// error/deadline; the stream is closed on failure.
  bool send_all(const std::string& data, Deadline deadline = Deadline::never());

  /// Appends at least one received byte to `out` (callers frame their own
  /// reads with a net::Codec). Waits up to the deadline; false on EOF,
  /// error, or deadline — the stream is closed on EOF/error, so ok()
  /// distinguishes "no bytes yet" from "peer gone".
  bool recv_chunk(std::string& out, Deadline deadline = Deadline::never());

 private:
  int fd_ = -1;
};

/// A listening TCP socket.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens on host:port (port 0 = kernel-assigned). Returns a
  /// closed listener (!ok()) on failure; reason in `error` when provided.
  static TcpListener listen(const std::string& host, std::uint16_t port,
                            int backlog = 64, std::string* error = nullptr);

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// The bound port (resolved after listen, so port 0 reports the real one).
  std::uint16_t port() const { return port_; }
  void close();

  /// Non-blocking accept for readiness-driven callers (the src/net/ event
  /// loop): returns a stream only if a connection is already queued. The
  /// accepted socket has TCP_NODELAY set but stays blocking; callers that
  /// multiplex it flip it with sockio::set_nonblocking.
  std::optional<TcpStream> accept_now();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace osn
