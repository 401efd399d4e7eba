// osn-served: the trace-query daemon, as a session layer over src/net/.
//
// The server is three layers now, and this file is only the top one:
//
//   net::EventLoop   readiness core — epoll (or poll) loop owning the
//                    listener, every connection's buffers and state machine,
//                    the idle sweep, and write back-pressure. One thread, no
//                    protocol knowledge.
//   net::Codec       framing — newline-delimited (the JSON wire unchanged
//                    since PR 5, byte for byte) or OSNB length-prefixed
//                    binary, auto-detected from a connection's first bytes.
//   serve::Server    sessions — this class. It implements net::Handler:
//                    admission control per dispatched batch, decoding
//                    request frames, running them on the worker pool via the
//                    shared query engine, encoding responses (and the drain
//                    goodbye) in the connection's wire, metrics.
//
// Concurrency shape: the loop thread parks a dispatched connection's reads
// while exactly one worker owns its current frame batch, so an idle client
// never pins a worker and a pipelining client never occupies two. Workers
// never touch sockets — responses post back to the loop, which owns every
// write (and the slow-reader close when a peer stops reading them).
//
// Admission control gates *dispatched work*, not sockets: any number of
// idle connections may sit on the loop (they cost one poller registration
// each), but at most `max_inflight` connections may hold a worker batch at
// once. Past that, a request batch is refused with `overloaded` — rendered
// in the connection's own codec, so binary clients get a binary refusal —
// and the connection stays open to try again later.
//
// Shutdown is a graceful drain in two phases: drain() stops accepting and
// says `shutting_down` to idle clients; in-flight batches finish on the
// pool, their connections get the same goodbye, and stop() bounds the final
// flush before joining the loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/clock.hpp"
#include "common/socket.hpp"
#include "common/thread_pool.hpp"
#include "net/event_loop.hpp"
#include "query/engine.hpp"
#include "serve/catalog.hpp"
#include "serve/metrics.hpp"
#include "serve/query.hpp"

namespace osn::serve {

struct ServerOptions {
  std::string dir;                ///< catalog directory of .osnt files
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;         ///< 0 = kernel-assigned (see Server::port())
  std::size_t workers = 4;
  /// Connections served concurrently (holding a worker batch) before the
  /// server sheds with `overloaded`. Idle connections are free and don't
  /// count; a connection carries at most one in-flight batch, so this also
  /// bounds the pool's backlog.
  std::size_t max_inflight = 32;
  std::uint64_t result_cache_bytes = 64ull << 20;
  std::uint64_t model_cache_bytes = 256ull << 20;
  /// Per-request budget when the request carries no deadline_ms (0 = none).
  DurNs default_deadline = 0;
  /// Close connections idle longer than this (0 = keep them forever).
  DurNs idle_timeout = 0;
  /// Force the portable poll(2) readiness backend instead of epoll.
  bool use_poll_backend = false;
  /// Monitor hooks for the `monitor_status`/`alerts` ops (osn-monitord
  /// wires its Monitor's renderers in; empty means "no monitor attached").
  std::function<std::string()> monitor_status;
  std::function<std::string()> monitor_alerts;
};

class Server : private net::Handler {
 public:
  explicit Server(ServerOptions options);
  ~Server() override;  ///< stops if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the event loop + worker pool. False (with
  /// the reason in `error`) when the address cannot be bound.
  bool start(std::string* error = nullptr);

  /// Graceful drain: stop accepting, notify idle clients, wait for
  /// in-flight requests, flush, join all threads. Idempotent.
  void stop();

  /// The bound port (valid after start(); resolves port 0).
  std::uint16_t port() const { return loop_ ? loop_->port() : 0; }
  /// Writes port() to `path` (nothing when `path` is empty): the readiness
  /// signal scripts wait on, so call it only after start() succeeded. False,
  /// after printing `error: cannot write PATH`, when the file cannot be made.
  bool write_port_file(const std::string& path) const;
  /// The readiness backend actually in use ("epoll" or "poll").
  const char* backend() const { return loop_ ? loop_->backend() : "?"; }

  ServerMetrics& metrics() { return metrics_; }
  TraceCatalog& catalog() { return *catalog_; }
  const ServerOptions& options() const { return options_; }
  /// Live connection gauges (what the `metrics` op reports as "net").
  NetGauges net_gauges() const;

 private:
  // net::Handler — all invoked on the loop thread.
  void on_accept(std::uint64_t id) override;
  void on_frames(std::uint64_t id, net::CodecKind kind,
                 std::vector<std::string> frames) override;
  std::string goodbye_frame(net::CodecKind kind) override;

  /// Decodes + executes one request frame; returns the encoded response
  /// frame payload, or nullopt for frames that get no response (empty
  /// keep-alive lines on the JSON wire).
  std::optional<std::string> serve_frame(net::CodecKind kind,
                                         const std::string& frame);

  ServerOptions options_;
  std::unique_ptr<TraceCatalog> catalog_;
  query::Engine engine_;
  ServerMetrics metrics_;
  QueryContext ctx_;

  std::unique_ptr<net::EventLoop> loop_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> inflight_{0};  ///< connections holding a worker batch
  std::atomic<std::uint64_t> wire_requests_json_{0};
  std::atomic<std::uint64_t> wire_requests_osnb_{0};
};

}  // namespace osn::serve
