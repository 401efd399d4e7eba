#include "common/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <utility>

namespace osn {

namespace {

/// Smallest read recv_chunk asks for, whatever the socket reports queued.
constexpr int kMinRecvBytes = 16 * 1024;

void set_error(std::string* error, const char* what) {
  if (error != nullptr) *error = std::string(what) + ": " + std::strerror(errno);
}

/// Waits up to the deadline for `events` on fd. Returns the poll revents
/// (0 once the deadline passes, < 0 on error).
int poll_fd(int fd, short events, Deadline deadline) {
  for (;;) {
    const DurNs left = deadline.remaining();
    if (left == 0) return 0;
    // Round up so a wait shorter than 1 ms does not spin at timeout 0.
    const int timeout_ms =
        deadline.never_expires()
            ? -1
            : static_cast<int>(std::min<DurNs>(left / kNsPerMs + 1, INT_MAX));
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc > 0) return pfd.revents;
  }
}

bool parse_addr(const std::string& host, std::uint16_t port, sockaddr_in& addr) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

}  // namespace

// ---------------------------------------------------------------------------
// sockio
// ---------------------------------------------------------------------------

namespace sockio {

Status write_some(int fd, const char* data, std::size_t len, std::size_t& done) {
  done = 0;
  for (;;) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n >= 0) {
      done = static_cast<std::size_t>(n);
      return Status::kOk;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::kWouldBlock;
    return Status::kError;
  }
}

Status read_some(int fd, char* buf, std::size_t cap, std::size_t& done) {
  done = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, cap, 0);
    if (n > 0) {
      done = static_cast<std::size_t>(n);
      return Status::kOk;
    }
    if (n == 0) return Status::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::kWouldBlock;
    return Status::kError;
  }
}

bool write_all(int fd, const char* data, std::size_t len, Deadline deadline) {
  std::size_t total = 0;
  while (total < len) {
    const int revents = poll_fd(fd, POLLOUT, deadline);
    if (revents <= 0 || (revents & (POLLERR | POLLHUP)) != 0) return false;
    std::size_t n = 0;
    const Status st = write_some(fd, data + total, len - total, n);
    if (st == Status::kError) return false;
    total += n;  // kWouldBlock: lost the race to a full buffer; re-poll
  }
  return true;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace sockio

// ---------------------------------------------------------------------------
// TcpStream
// ---------------------------------------------------------------------------

TcpStream::~TcpStream() { close(); }

TcpStream::TcpStream(TcpStream&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void TcpStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port,
                             Deadline deadline, std::string* error) {
  sockaddr_in addr;
  if (!parse_addr(host, port, addr)) {
    if (error != nullptr) *error = "bad IPv4 address: " + host;
    return TcpStream();
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    set_error(error, "socket");
    return TcpStream();
  }
  TcpStream stream(fd);  // closes the fd on every failure below
  // Connect without blocking so the deadline bounds the handshake (a host
  // that drops SYNs would otherwise hold the caller for the kernel's SYN
  // retries), then hand the stream back in blocking mode.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  bool ok = flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
  if (ok && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ok = errno == EINPROGRESS || errno == EINTR;
    if (ok) {
      const int revents = poll_fd(fd, POLLOUT, deadline);
      int so_error = revents == 0 ? ETIMEDOUT : 0;
      socklen_t len = sizeof(so_error);
      ok = revents > 0 && ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) == 0 &&
           so_error == 0;
      if (so_error != 0) errno = so_error;
    }
  }
  if (!ok || ::fcntl(fd, F_SETFL, flags) != 0) {
    set_error(error, "connect");
    return TcpStream();
  }
  sockio::set_tcp_nodelay(fd);
  return stream;
}

bool TcpStream::send_all(const std::string& data, Deadline deadline) {
  if (!sockio::write_all(fd_, data.data(), data.size(), deadline)) {
    close();
    return false;
  }
  return true;
}

bool TcpStream::recv_chunk(std::string& out, Deadline deadline) {
  for (;;) {
    const int revents = poll_fd(fd_, POLLIN, deadline);
    if (revents == 0) return false;  // deadline passed; the stream stays open
    if (revents < 0) {
      close();
      return false;
    }
    // Take everything already queued in one read, not a fixed slice: a
    // caller that re-frames its whole buffer after each call (a line codec
    // scanning for '\n') then pays once per burst, not once per slice.
    int queued = 0;
    if (::ioctl(fd_, FIONREAD, &queued) != 0 || queued < kMinRecvBytes) queued = kMinRecvBytes;
    const std::size_t had = out.size();
    out.resize(had + static_cast<std::size_t>(queued));
    std::size_t n = 0;
    const sockio::Status st = sockio::read_some(fd_, out.data() + had, out.size() - had, n);
    out.resize(had + n);
    if (st == sockio::Status::kEof || st == sockio::Status::kError) {
      close();  // orderly EOF closes too, so callers can tell it from a timeout
      return false;
    }
    if (st == sockio::Status::kOk) return true;
  }
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

TcpListener::~TcpListener() { close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), port_(std::exchange(other.port_, 0)) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  port_ = 0;
}

TcpListener TcpListener::listen(const std::string& host, std::uint16_t port,
                                int backlog, std::string* error) {
  sockaddr_in addr;
  if (!parse_addr(host, port, addr)) {
    if (error != nullptr) *error = "bad IPv4 address: " + host;
    return TcpListener();
  }
  TcpListener out;
  out.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (out.fd_ < 0) {
    set_error(error, "socket");
    return TcpListener();
  }
  const int one = 1;
  ::setsockopt(out.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(out.fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_error(error, "bind");
    out.close();
    return TcpListener();
  }
  if (::listen(out.fd_, backlog) != 0) {
    set_error(error, "listen");
    out.close();
    return TcpListener();
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(out.fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    out.port_ = ntohs(bound.sin_port);
  return out;
}

std::optional<TcpStream> TcpListener::accept_now() {
  for (;;) {
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      sockio::set_tcp_nodelay(fd);
      return TcpStream(fd);
    }
    if (errno == EINTR) continue;
    return std::nullopt;  // EAGAIN (nothing queued) or a transient accept error
  }
}

}  // namespace osn
