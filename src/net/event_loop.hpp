// The readiness core: one thread, one poller, every connection.
//
// An EventLoop owns the listening socket, every Connection, and a
// cross-thread wakeup. It multiplexes all of them through one
// level-triggered poller (epoll by default, poll(2) backend for
// portability), so ten thousand idle clients cost ten thousand registered
// fds and zero worker threads. Protocol logic lives in a Handler the
// session layer implements; this file knows frames, not requests — the
// lint layering rule (src/net/ includes no serve/query/trace headers)
// keeps that structural.
//
// Threading contract:
//  * run thread        — everything that touches a Connection or the poller.
//  * any thread        — send(), finish(), close(), stop(), stats(): these
//                        enqueue a closure and signal the wakeup; the loop
//                        applies it. drain() does the same but blocks until
//                        the loop acknowledges, so "no more on_frames()" is
//                        a post-condition.
//  * Handler callbacks — invoked on the run thread. on_frames() typically
//                        submits to a worker pool and returns immediately;
//                        the worker answers via send()+finish().
//
// Dispatch discipline: when a connection yields complete frames it moves to
// kDispatched and its read interest is dropped — pipelined requests beyond
// the already-buffered ones wait in the kernel socket buffer, giving
// natural TCP back-pressure, and one connection can never occupy more than
// one worker. finish() re-runs framing on leftover buffered bytes before
// re-arming readability, so pipelined frames the poller cannot see are
// still served promptly. Every connection is accepted; refusing work under
// load is the Handler's call, made per dispatched batch.
//
// The only timed work is the idle sweep (LoopOptions::idle_timeout): the
// loop's poll timeout is the time to the next sweep, or infinite without one.
//
// Shutdown: drain() stops accepting and tells idle connections goodbye (a
// Handler-rendered frame in each connection's own codec); dispatched
// connections finish their in-flight batch, get the same goodbye from
// finish(), and flush. stop() then bounds the final flush by
// kStopFlushBudget and joins.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/clock.hpp"
#include "common/socket.hpp"
#include "net/codec.hpp"
#include "net/connection.hpp"
#include "net/poller.hpp"
#include "net/wakeup.hpp"

namespace osn::net {

/// Largest single frame (and unframed receive backlog) a connection may
/// send; past it the connection is closed as a framing violation. Requests
/// are a few hundred bytes, so 1 MiB only ever stops a hostile peer.
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

/// Pending-write cap per connection: a peer that leaves this much unread
/// while more responses queue up is a slow reader and is closed rather
/// than buffered without bound. A single response larger than the cap is
/// still sent whole (Connection::queue_write).
inline constexpr std::size_t kWriteQueueMax = 8u << 20;

class Handler {
 public:
  virtual ~Handler() = default;

  /// A connection was accepted.
  virtual void on_accept(std::uint64_t id) = 0;

  /// A batch of complete frames from one connection (now kDispatched; its
  /// reads are parked). The handler must eventually call EventLoop::send()
  /// for each response and then EventLoop::finish(id) — or close(id).
  virtual void on_frames(std::uint64_t id, CodecKind kind,
                         std::vector<std::string> frames) = 0;

  /// Renders the drain goodbye as one frame payload for `kind` (the loop
  /// wraps it in wire framing itself).
  virtual std::string goodbye_frame(CodecKind kind) = 0;
};

struct LoopOptions {
  /// Close connections idle in kReading longer than this (0 = never).
  DurNs idle_timeout = 0;
  /// Use the poll(2) backend even where epoll exists (portability tests).
  bool use_poll = false;
};

/// Monotonic counters and gauges, readable from any thread. Gauges are
/// written only by the run thread; readers see a consistent-enough snapshot
/// for metrics and soak assertions.
struct LoopStats {
  std::uint64_t accepted = 0;          ///< connections ever accepted
  std::uint64_t closed = 0;            ///< connections ever closed
  std::uint64_t open = 0;              ///< gauge: currently registered
  std::uint64_t reading = 0;           ///< gauge: idle/awaiting a request
  std::uint64_t dispatched = 0;        ///< gauge: a worker owns a batch
  std::uint64_t draining = 0;          ///< gauge: flushing final bytes
  std::uint64_t frames_in = 0;         ///< complete request frames decoded
  std::uint64_t frames_out = 0;        ///< response frames queued
  std::uint64_t slow_reader_closes = 0;
  std::uint64_t idle_timeouts = 0;
  std::uint64_t codec_errors = 0;      ///< framing violations that closed a conn
  std::uint64_t write_queue_hwm = 0;   ///< max pending bytes on any connection
};

class EventLoop {
 public:
  EventLoop(LoopOptions options, Handler* handler);
  ~EventLoop();  ///< stops if still running

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Takes ownership of a bound listener and starts the run thread.
  bool start(TcpListener listener, std::string* error = nullptr);

  /// Stops accepting and says goodbye to idle connections. Dispatched
  /// connections keep running until their workers finish. Idempotent,
  /// callable from any thread. *Blocks* until the run thread acknowledges:
  /// after drain() returns, Handler::on_frames() will never fire again, so
  /// the caller may tear down whatever on_frames() dispatches to.
  void drain();

  /// drain() + wait for queued work, flush bounded by kStopFlushBudget,
  /// join the run thread. Idempotent. Callers that route worker responses
  /// through this loop must join their workers *between* drain() and
  /// stop() so every response still finds a live loop.
  void stop();

  std::uint16_t port() const { return port_; }
  const char* backend() const { return backend_; }

  // -- worker-facing API (any thread) ---------------------------------------

  /// Queues one response frame (payload; the connection's codec frames it).
  /// Dropped silently if the connection is gone.
  void send(std::uint64_t id, std::string frame);

  /// The worker is done with the dispatched batch: leftover buffered frames
  /// are re-examined, then the connection resumes reading (or gets the
  /// drain goodbye when the loop is draining).
  void finish(std::uint64_t id);

  /// Force-closes a connection after flushing anything already queued.
  void close(std::uint64_t id);

  LoopStats stats() const;

 private:
  /// Runs a closure on the loop thread.
  void post(std::function<void()> fn);

  void run();
  void do_accept();
  void on_readable(Connection& conn);
  void on_writable(Connection& conn);
  /// Frame extraction + dispatch for one connection.
  void pump_frames(Connection& conn);
  void do_finish(std::uint64_t id);
  /// Queue the goodbye frame and move to kDraining (close once flushed).
  void send_goodbye(Connection& conn);
  void queue_frame(Connection& conn, std::string_view frame_payload);
  void close_conn(std::uint64_t id);
  void close_conn(Connection& conn);
  void update_interest(Connection& conn);
  void enter_drain();
  /// Closes connections idle past options_.idle_timeout, when a sweep is due.
  void sweep_idle();
  DurNs idle_sweep_period() const;
  int next_timeout_ms() const;
  void set_gauge_delta(ConnState state, std::int64_t delta);

  LoopOptions options_;
  Handler* handler_;
  TcpListener listener_;
  std::uint16_t port_ = 0;
  const char* backend_ = "?";
  std::unique_ptr<Poller> poller_;
  Wakeup wakeup_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  // Run-thread state.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_id_ = 2;  ///< 0 and 1 are the wakeup/listener poller keys
  bool draining_ = false;
  bool quitting_ = false;
  Deadline quit_flush_deadline_;
  TimeNs next_idle_sweep_ = 0;

  // Cross-thread mailbox.
  mutable std::mutex posted_mu_;
  std::vector<std::function<void()>> posted_ OSN_GUARDED_BY(posted_mu_);
  bool mailbox_closed_ OSN_GUARDED_BY(posted_mu_) = false;  ///< run thread exited

  // Stats: counters bumped with relaxed atomics; see LoopStats.
  struct AtomicStats {
    std::atomic<std::uint64_t> accepted{0}, closed{0}, open{0}, reading{0},
        dispatched{0}, draining{0}, frames_in{0}, frames_out{0},
        slow_reader_closes{0}, idle_timeouts{0}, codec_errors{0},
        write_queue_hwm{0};
  } stats_;
};

}  // namespace osn::net
