// EventLoop tests against a toy echo protocol, run over BOTH readiness
// backends (epoll and the poll(2) fallback) via the value-parameterized
// fixture. The handler echoes each frame back with an "echo:" prefix —
// enough protocol to exercise accept, dispatch, pipelining, idle reaping,
// drain goodbyes, and the worker-facing thread contract without dragging
// in the serve layer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/socket.hpp"
#include "net/codec.hpp"
#include "net/event_loop.hpp"
#include "line_reader.hpp"

namespace osn::net {
namespace {

using osn::testing::recv_line;

/// Echoes every frame back ("echo:" + payload) from a worker thread,
/// mimicking how the serve layer answers via send()+finish() off the run
/// thread. Workers are tracked so tests can honor the documented shutdown
/// contract: join them between drain() and stop().
class EchoHandler : public Handler {
 public:
  void attach(EventLoop* loop) { loop_ = loop; }

  void on_accept(std::uint64_t) override { accepted_++; }

  void on_frames(std::uint64_t id, CodecKind, std::vector<std::string> frames) override {
    EventLoop* loop = loop_;
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers_.emplace_back([loop, id, frames = std::move(frames)] {
      for (const std::string& f : frames) loop->send(id, "echo:" + f);
      loop->finish(id);
    });
  }

  std::string goodbye_frame(CodecKind) override { return "ctl:shutting_down"; }

  /// Joins every worker spawned so far (looping: a batch dispatched
  /// concurrently with drain can still add one).
  void join_workers() {
    for (;;) {
      std::vector<std::thread> batch;
      {
        std::lock_guard<std::mutex> lock(workers_mu_);
        batch.swap(workers_);
      }
      if (batch.empty()) return;
      for (std::thread& t : batch) t.join();
    }
  }

  std::atomic<std::size_t> accepted_{0};

 private:
  EventLoop* loop_ = nullptr;
  std::mutex workers_mu_;
  std::vector<std::thread> workers_;
};

/// Param: use the poll(2) backend instead of epoll.
class EventLoopTest : public ::testing::TestWithParam<bool> {
 protected:
  void start(LoopOptions options = {}) {
    options.use_poll = GetParam();
    handler_ = std::make_unique<EchoHandler>();
    loop_ = std::make_unique<EventLoop>(options, handler_.get());
    handler_->attach(loop_.get());
    std::string error;
    TcpListener listener = TcpListener::listen("127.0.0.1", 0, 64, &error);
    ASSERT_TRUE(listener.ok()) << error;
    ASSERT_TRUE(loop_->start(std::move(listener), &error)) << error;
  }

  void TearDown() override {
    if (!loop_) return;
    // The documented shutdown order: drain, join workers (their responses
    // must still find a live loop), then stop.
    loop_->drain();
    handler_->join_workers();
    loop_->stop();
  }

  TcpStream connect() {
    std::string error;
    TcpStream s = TcpStream::connect("127.0.0.1", loop_->port(),
                                     Deadline::after(5 * kNsPerSec), &error);
    EXPECT_TRUE(s.ok()) << error;
    return s;
  }

  /// The next echoed line on the fixture's one client stream.
  std::optional<std::string> next_line(TcpStream& s, Deadline deadline) {
    return recv_line(s, rbuf_, deadline);
  }

  std::unique_ptr<EchoHandler> handler_;
  std::unique_ptr<EventLoop> loop_;
  std::string rbuf_;  ///< bytes received past the last line
};

TEST_P(EventLoopTest, ReportsItsBackend) {
  start();
  EXPECT_STREQ(loop_->backend(), GetParam() ? "poll" : "epoll");
}

TEST_P(EventLoopTest, EchoesOneLineFrame) {
  start();
  TcpStream s = connect();
  const Deadline deadline = Deadline::after(5 * kNsPerSec);
  ASSERT_TRUE(s.send_all("hello\n", deadline));
  std::optional<std::string> reply = next_line(s, deadline);
  ASSERT_TRUE(reply);
  EXPECT_EQ(*reply, "echo:hello");
}

TEST_P(EventLoopTest, EchoesOsnbFramesAfterPreamble) {
  start();
  TcpStream s = connect();
  const Deadline deadline = Deadline::after(5 * kNsPerSec);
  const Codec& osnb = codec_for(CodecKind::kOsnb);
  std::string wire(kOsnbPreamble, kOsnbPreambleLen);
  wire += osnb.encode("ping");
  ASSERT_TRUE(s.send_all(wire, deadline));
  std::string rbuf;
  std::string frame;
  std::string error;
  while (osnb.decode(rbuf, 1 << 20, frame, error) != Codec::Result::kFrame)
    ASSERT_TRUE(s.recv_chunk(rbuf, deadline));
  EXPECT_EQ(frame, "echo:ping");
}

TEST_P(EventLoopTest, ServesPipelinedFramesSentAsOneWrite) {
  // All three frames land in one TCP segment; the loop must serve the ones
  // buffered past the dispatched batch without another readiness event.
  start();
  TcpStream s = connect();
  const Deadline deadline = Deadline::after(5 * kNsPerSec);
  ASSERT_TRUE(s.send_all("a\nb\nc\n", deadline));
  for (const char* want : {"echo:a", "echo:b", "echo:c"}) {
    std::optional<std::string> reply = next_line(s, deadline);
    ASSERT_TRUE(reply);
    EXPECT_EQ(*reply, want);
  }
  const LoopStats stats = loop_->stats();
  EXPECT_EQ(stats.frames_in, 3u);
  EXPECT_EQ(stats.frames_out, 3u);
}

TEST_P(EventLoopTest, ManySequentialRoundTripsOnOneConnection) {
  start();
  TcpStream s = connect();
  const Deadline deadline = Deadline::after(10 * kNsPerSec);
  for (int i = 0; i < 50; ++i) {
    const std::string msg = "msg" + std::to_string(i);
    ASSERT_TRUE(s.send_all(msg + "\n", deadline));
    std::optional<std::string> reply = next_line(s, deadline);
    ASSERT_TRUE(reply);
    EXPECT_EQ(*reply, "echo:" + msg);
  }
}

TEST_P(EventLoopTest, FramingViolationClosesTheConnection) {
  start();
  TcpStream s = connect();
  const Deadline deadline = Deadline::after(5 * kNsPerSec);
  // One byte past the frame limit, no '\n'.
  ASSERT_TRUE(s.send_all(std::string(kMaxFrameBytes + 1, 'x'), deadline));
  EXPECT_FALSE(next_line(s, deadline));
  EXPECT_FALSE(s.ok()) << "server must close on framing violation";
  // Poll until the loop registers the close (it races the client's read).
  const Deadline settle = Deadline::after(5 * kNsPerSec);
  while (loop_->stats().codec_errors == 0 && !settle.expired())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(loop_->stats().codec_errors, 1u);
}

TEST_P(EventLoopTest, IdleConnectionsAreReaped) {
  LoopOptions options;
  options.idle_timeout = 50 * kNsPerMs;
  start(options);
  TcpStream s = connect();
  const Deadline deadline = Deadline::after(10 * kNsPerSec);
  EXPECT_FALSE(next_line(s, deadline)) << "reaper should close the idle conn";
  const Deadline settle = Deadline::after(5 * kNsPerSec);
  while (loop_->stats().idle_timeouts == 0 && !settle.expired())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(loop_->stats().idle_timeouts, 1u);
}

TEST_P(EventLoopTest, DrainSendsGoodbyeToIdleConnections) {
  start();
  TcpStream s = connect();
  const Deadline deadline = Deadline::after(5 * kNsPerSec);
  // Round-trip once so the connection is fully registered and idle.
  ASSERT_TRUE(s.send_all("hi\n", deadline));
  ASSERT_TRUE(next_line(s, deadline));
  loop_->drain();
  std::optional<std::string> reply = next_line(s, deadline);
  ASSERT_TRUE(reply);
  EXPECT_EQ(*reply, "ctl:shutting_down");
  EXPECT_FALSE(next_line(s, deadline)) << "goodbye is followed by close";
}

TEST_P(EventLoopTest, StatsTrackConnectionLifecycle) {
  start();
  {
    TcpStream s = connect();
    const Deadline deadline = Deadline::after(5 * kNsPerSec);
    ASSERT_TRUE(s.send_all("hi\n", deadline));
    ASSERT_TRUE(next_line(s, deadline));
    const LoopStats mid = loop_->stats();
    EXPECT_EQ(mid.accepted, 1u);
    EXPECT_EQ(mid.open, 1u);
    EXPECT_EQ(handler_->accepted_.load(), 1u);
    EXPECT_GE(mid.write_queue_hwm, std::string("echo:hi").size());
  }
  // The loop notices the close on its own thread: wait for it.
  const Deadline settle = Deadline::after(5 * kNsPerSec);
  while (loop_->stats().closed == 0 && !settle.expired())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const LoopStats after = loop_->stats();
  EXPECT_EQ(after.closed, 1u);
  EXPECT_EQ(after.open, 0u);
}

TEST_P(EventLoopTest, StopWithNoConnectionsIsPrompt) {
  start();
  loop_->stop();
  loop_.reset();  // TearDown would double-stop; exercise idempotence anyway
}

INSTANTIATE_TEST_SUITE_P(Backends, EventLoopTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "Poll" : "Epoll";
                         });

}  // namespace
}  // namespace osn::net
