#include "net/event_loop.hpp"

#include <future>
#include <utility>

namespace osn::net {

namespace {

// Poller keys for the two fds that are not connections. Connection ids
// start above them so a key maps unambiguously.
constexpr std::uint64_t kWakeupKey = 0;
constexpr std::uint64_t kListenerKey = 1;

/// Per-pass read budget for one connection (fairness under firehose).
constexpr std::size_t kReadBudget = 256 * 1024;
/// Bound on flushing still-queued bytes at stop().
constexpr DurNs kStopFlushBudget = kNsPerSec;

constexpr int kQuitPollSliceMs = 20;

int ns_to_poll_ms(DurNs ns) {
  // Round up so a sweep due in 0.4ms does not busy-spin at timeout 0.
  const DurNs ms = ns / kNsPerMs + (ns % kNsPerMs != 0 ? 1 : 0);
  constexpr DurNs kMaxMs = 60ull * 60ull * 1000ull;
  return static_cast<int>(ms < kMaxMs ? ms : kMaxMs);
}

}  // namespace

EventLoop::EventLoop(LoopOptions options, Handler* handler)
    : options_(options), handler_(handler) {}

EventLoop::~EventLoop() { stop(); }

bool EventLoop::start(TcpListener listener, std::string* error) {
  if (!listener.ok()) {
    if (error != nullptr) *error = "event loop needs a bound listener";
    return false;
  }
  listener_ = std::move(listener);
  port_ = listener_.port();
  if (!sockio::set_nonblocking(listener_.fd())) {
    if (error != nullptr) *error = "cannot make listener non-blocking";
    return false;
  }
  poller_ = make_poller(options_.use_poll);
  if (poller_ == nullptr) {
    if (error != nullptr) *error = "no poller backend available";
    return false;
  }
  backend_ = poller_->name();
  if (!wakeup_.open()) {
    if (error != nullptr) *error = "cannot create loop wakeup fd";
    return false;
  }
  if (!poller_->watch(wakeup_.fd(), kInterestRead, kWakeupKey) ||
      !poller_->watch(listener_.fd(), kInterestRead, kListenerKey)) {
    if (error != nullptr) *error = "cannot register loop fds with poller";
    return false;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&EventLoop::run, this);
  return true;
}

void EventLoop::drain() {
  if (std::this_thread::get_id() == thread_.get_id()) {
    enter_drain();  // already on the run thread; nothing to wait for
    return;
  }
  if (!thread_.joinable()) return;  // never started (or already joined)
  // Block until the run thread has acknowledged the drain: after that it
  // will never dispatch another Handler::on_frames(), so the caller may
  // safely tear down whatever on_frames() submits to (the worker pool).
  std::promise<void> acked;
  std::future<void> done = acked.get_future();
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    if (mailbox_closed_) return;  // run thread exited: no dispatch can happen
    posted_.push_back([this, &acked] {
      enter_drain();
      acked.set_value();
    });
  }
  wakeup_.signal();
  done.wait();
}

void EventLoop::stop() {
  bool expected = false;
  if (stop_requested_.compare_exchange_strong(expected, true)) {
    post([this] {
      enter_drain();
      quitting_ = true;
      quit_flush_deadline_ = Deadline::after(kStopFlushBudget);
      // Any connection a worker still nominally owns is orphaned by the
      // stop() contract (workers join between drain and stop) — say goodbye
      // so it drains with everyone else instead of pinning the loop.
      std::vector<std::uint64_t> ids;
      ids.reserve(conns_.size());
      for (auto& [id, conn] : conns_)
        if (conn->state() != ConnState::kDraining) ids.push_back(id);
      for (std::uint64_t id : ids) {
        auto it = conns_.find(id);
        if (it != conns_.end()) send_goodbye(*it->second);
      }
    });
  }
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void EventLoop::send(std::uint64_t id, std::string frame) {
  post([this, id, frame = std::move(frame)]() mutable {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    queue_frame(*it->second, frame);
  });
}

void EventLoop::finish(std::uint64_t id) {
  post([this, id] { do_finish(id); });
}

void EventLoop::close(std::uint64_t id) {
  post([this, id] {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Connection& conn = *it->second;
    if (conn.wants_write()) {
      // Flush what is queued, then close from on_writable.
      set_gauge_delta(conn.state(), -1);
      conn.set_state(ConnState::kDraining);
      set_gauge_delta(ConnState::kDraining, +1);
      update_interest(conn);
    } else {
      close_conn(conn);
    }
  });
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    posted_.push_back(std::move(fn));
  }
  wakeup_.signal();
}

LoopStats EventLoop::stats() const {
  LoopStats out;
  out.accepted = stats_.accepted.load(std::memory_order_relaxed);
  out.closed = stats_.closed.load(std::memory_order_relaxed);
  out.open = stats_.open.load(std::memory_order_relaxed);
  out.reading = stats_.reading.load(std::memory_order_relaxed);
  out.dispatched = stats_.dispatched.load(std::memory_order_relaxed);
  out.draining = stats_.draining.load(std::memory_order_relaxed);
  out.frames_in = stats_.frames_in.load(std::memory_order_relaxed);
  out.frames_out = stats_.frames_out.load(std::memory_order_relaxed);
  out.slow_reader_closes =
      stats_.slow_reader_closes.load(std::memory_order_relaxed);
  out.idle_timeouts = stats_.idle_timeouts.load(std::memory_order_relaxed);
  out.codec_errors = stats_.codec_errors.load(std::memory_order_relaxed);
  out.write_queue_hwm = stats_.write_queue_hwm.load(std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------------------
// Run thread.
// ---------------------------------------------------------------------------

void EventLoop::run() {
  std::vector<Ready> ready;
  std::vector<std::function<void()>> tasks;
  while (true) {
    ready.clear();
    if (!poller_->wait(next_timeout_ms(), ready)) break;  // backend died

    wakeup_.drain();

    // Cross-thread mailbox first: worker responses and finish() transitions
    // should apply before this pass's readiness verdicts are interpreted.
    tasks.clear();
    {
      std::lock_guard<std::mutex> lock(posted_mu_);
      tasks.swap(posted_);
    }
    for (auto& fn : tasks) fn();

    for (const Ready& ev : ready) {
      if (ev.key == kWakeupKey) continue;  // drained above
      if (ev.key == kListenerKey) {
        if (!draining_) do_accept();
        continue;
      }
      auto it = conns_.find(ev.key);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Connection& conn = *it->second;
      if (ev.error) {
        close_conn(conn);
        continue;
      }
      if (ev.writable) {
        on_writable(conn);
        if (conns_.find(ev.key) == conns_.end()) continue;
      }
      if (ev.readable) on_readable(conn);
    }

    sweep_idle();

    if (quitting_) {
      if (conns_.empty()) break;
      if (quit_flush_deadline_.expired()) {
        std::vector<std::uint64_t> ids;
        ids.reserve(conns_.size());
        for (auto& [id, conn] : conns_) ids.push_back(id);
        for (std::uint64_t id : ids) close_conn(id);
        break;
      }
    }
  }
  // Run whatever the mailbox still holds (on this thread, as always) so a
  // closure someone is blocked on — drain()'s acknowledgement — cannot be
  // stranded if the loop exits first (poller death, flush deadline). The
  // closed flag makes post-after-exit well-defined: drain() sees it and
  // returns instead of waiting on a closure nobody will run.
  tasks.clear();
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    mailbox_closed_ = true;
    tasks.swap(posted_);
  }
  for (auto& fn : tasks) fn();
}

void EventLoop::do_accept() {
  while (auto stream = listener_.accept_now()) {
    if (!sockio::set_nonblocking(stream->fd())) continue;  // drop, cannot serve
    const std::uint64_t id = next_id_++;
    auto conn = std::make_unique<Connection>(id, std::move(*stream));
    conn->touch(monotonic_now_ns());
    if (!poller_->watch(conn->fd(), kInterestRead, id)) continue;
    conns_.emplace(id, std::move(conn));
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.open.fetch_add(1, std::memory_order_relaxed);
    set_gauge_delta(ConnState::kReading, +1);
    handler_->on_accept(id);
  }
}

void EventLoop::on_readable(Connection& conn) {
  const Connection::IoStatus st = conn.fill(kReadBudget);
  conn.touch(monotonic_now_ns());
  if (st != Connection::IoStatus::kOk) {
    close_conn(conn);
    return;
  }
  if (conn.state() == ConnState::kDraining) {
    conn.discard_buffered();  // goodbye already queued; input is noise now
    return;
  }
  if (conn.state() == ConnState::kReading) pump_frames(conn);
}

void EventLoop::on_writable(Connection& conn) {
  if (conn.flush() != Connection::IoStatus::kOk) {
    close_conn(conn);
    return;
  }
  if (!conn.wants_write()) {
    if (conn.state() == ConnState::kDraining) {
      close_conn(conn);
      return;
    }
    update_interest(conn);
  }
}

void EventLoop::pump_frames(Connection& conn) {
  if (!conn.detect()) return;  // still a proper prefix of the OSNB preamble

  std::vector<std::string> batch;
  std::string frame;
  std::string error;
  while (true) {
    const Codec::Result r = conn.next_frame(kMaxFrameBytes, frame, error);
    if (r == Codec::Result::kNeedMore) break;
    if (r == Codec::Result::kError) {
      stats_.codec_errors.fetch_add(1, std::memory_order_relaxed);
      close_conn(conn);
      return;
    }
    stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
    batch.push_back(std::move(frame));
  }

  if (batch.empty()) return;
  if (draining_) {
    // Frames that raced the drain notice: the goodbye is already on the
    // wire (or about to be); do not start new work.
    return;
  }
  set_gauge_delta(conn.state(), -1);
  conn.set_state(ConnState::kDispatched);
  set_gauge_delta(ConnState::kDispatched, +1);
  update_interest(conn);  // park reads while a worker owns the batch
  handler_->on_frames(conn.id(), conn.codec_kind(), std::move(batch));
}

void EventLoop::do_finish(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  if (conn.state() != ConnState::kDispatched) return;
  if (draining_) {
    send_goodbye(conn);
    return;
  }
  set_gauge_delta(ConnState::kDispatched, -1);
  conn.set_state(ConnState::kReading);
  set_gauge_delta(ConnState::kReading, +1);
  conn.touch(monotonic_now_ns());
  // Pipelined frames already sitting in the receive buffer are invisible to
  // the poller; re-run framing before re-arming readability.
  pump_frames(conn);
  auto again = conns_.find(id);
  if (again != conns_.end() && again->second->state() == ConnState::kReading)
    update_interest(*again->second);
}

void EventLoop::send_goodbye(Connection& conn) {
  const std::string payload = handler_->goodbye_frame(conn.codec_kind());
  const std::uint64_t id = conn.id();
  set_gauge_delta(conn.state(), -1);
  conn.set_state(ConnState::kDraining);
  set_gauge_delta(ConnState::kDraining, +1);
  queue_frame(conn, payload);  // may close the conn (flush error / slow reader)
  auto it = conns_.find(id);   // so `conn` may dangle here: look it up by id
  if (it != conns_.end() && !it->second->wants_write()) close_conn(*it->second);
}

void EventLoop::queue_frame(Connection& conn, std::string_view frame_payload) {
  const Codec& codec =
      conn.codec() != nullptr ? *conn.codec() : codec_for(CodecKind::kLine);
  const std::string wire = codec.encode(frame_payload);
  if (!conn.queue_write(wire, kWriteQueueMax)) {
    stats_.slow_reader_closes.fetch_add(1, std::memory_order_relaxed);
    close_conn(conn);
    return;
  }
  stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
  const std::size_t hwm = conn.write_queue_hwm();
  if (hwm > stats_.write_queue_hwm.load(std::memory_order_relaxed))
    stats_.write_queue_hwm.store(hwm, std::memory_order_relaxed);
  if (conn.flush() != Connection::IoStatus::kOk) {
    close_conn(conn);
    return;
  }
  if (conn.state() == ConnState::kDraining && !conn.wants_write()) return;
  update_interest(conn);
}

void EventLoop::close_conn(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it != conns_.end()) close_conn(*it->second);
}

void EventLoop::close_conn(Connection& conn) {
  poller_->forget(conn.fd());
  set_gauge_delta(conn.state(), -1);
  stats_.open.fetch_sub(1, std::memory_order_relaxed);
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
  conns_.erase(conn.id());  // `conn` is dangling past this line
}

void EventLoop::update_interest(Connection& conn) {
  unsigned interest = 0;
  switch (conn.state()) {
    case ConnState::kReading:
      interest = kInterestRead;
      break;
    case ConnState::kDispatched:
      interest = 0;  // kernel socket buffer back-pressures pipelined peers
      break;
    case ConnState::kDraining:
      interest = kInterestRead;  // only to notice the peer hanging up
      break;
  }
  if (conn.wants_write()) interest |= kInterestWrite;
  poller_->rearm(conn.fd(), interest);
}

void EventLoop::enter_drain() {
  if (draining_) return;
  draining_ = true;
  if (listener_.ok()) {
    poller_->forget(listener_.fd());
    listener_.close();
  }
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (auto& [id, conn] : conns_)
    if (conn->state() == ConnState::kReading) ids.push_back(id);
  for (std::uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it != conns_.end()) send_goodbye(*it->second);
  }
  // Dispatched connections get their goodbye from finish().
}

void EventLoop::sweep_idle() {
  if (options_.idle_timeout == 0) return;
  const TimeNs now = monotonic_now_ns();
  if (now < next_idle_sweep_) return;
  if (next_idle_sweep_ != 0) {  // the first pass only schedules a sweep
    std::vector<std::uint64_t> expired;
    for (auto& [id, conn] : conns_) {
      if (conn->state() != ConnState::kReading) continue;
      if (now - conn->last_activity() >= options_.idle_timeout) expired.push_back(id);
    }
    for (std::uint64_t id : expired) {
      stats_.idle_timeouts.fetch_add(1, std::memory_order_relaxed);
      close_conn(id);
    }
  }
  next_idle_sweep_ = now + idle_sweep_period();
}

DurNs EventLoop::idle_sweep_period() const {
  // Sweeping is O(connections); a quarter of the timeout keeps the error
  // bound at 25% without hammering large idle fleets.
  const DurNs quarter = options_.idle_timeout / 4;
  return quarter > 10 * kNsPerMs ? quarter : 10 * kNsPerMs;
}

int EventLoop::next_timeout_ms() const {
  if (quitting_) {
    const int left = ns_to_poll_ms(quit_flush_deadline_.remaining());
    return left < kQuitPollSliceMs ? left : kQuitPollSliceMs;
  }
  if (options_.idle_timeout == 0) return -1;
  if (next_idle_sweep_ == 0) return ns_to_poll_ms(idle_sweep_period());
  const TimeNs now = monotonic_now_ns();
  return ns_to_poll_ms(next_idle_sweep_ > now ? next_idle_sweep_ - now : 0);
}

void EventLoop::set_gauge_delta(ConnState state, std::int64_t delta) {
  const std::uint64_t d = static_cast<std::uint64_t>(delta);
  switch (state) {
    case ConnState::kReading:
      stats_.reading.fetch_add(d, std::memory_order_relaxed);
      break;
    case ConnState::kDispatched:
      stats_.dispatched.fetch_add(d, std::memory_order_relaxed);
      break;
    case ConnState::kDraining:
      stats_.draining.fetch_add(d, std::memory_order_relaxed);
      break;
  }
}

}  // namespace osn::net
