// Open-loop request generator for the serve workloads.
//
// One generator thread drives a handful of connections to an in-process
// serve::Server, each speaking one wire (line JSON or OSNB). Requests are
// issued at their scheduled due times whether or not earlier ones have
// answered, and every latency is taken from the due time, so a stalled
// server shows up as latency instead of silently slowing the offered load
// (no coordinated omission). How late the generator itself issued each
// request is recorded separately: a run whose generator fell behind its
// schedule is not a valid latency measurement.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace osn::bench {

struct Scheduled {
  TimeNs due = 0;           ///< absolute monotonic time to issue at
  std::size_t conn = 0;     ///< connection index
  serve::Request request;   ///< id is assigned by the generator
  std::uint32_t tag = 0;    ///< caller's classification (plan index, ...)
};

struct Completion {
  std::size_t index = 0;    ///< position in the schedule
  TimeNs due = 0;
  TimeNs sent = 0;          ///< when the generator issued it
  TimeNs done = 0;          ///< when the complete response frame had arrived
  bool answered = false;    ///< a response arrived (ok or error)
  bool ok = false;
  std::string error;        ///< errc code when !ok
  std::string payload;      ///< response document when ok
  serve::Wire wire = serve::Wire::kJson;
  std::string trace;        ///< the trace the request named, as issued

  double latency_ms() const { return static_cast<double>(done - due) / 1e6; }
  double rtt_ms() const { return static_cast<double>(done - sent) / 1e6; }
  double lag_ms() const { return static_cast<double>(sent - due) / 1e6; }
};

class LoadGen {
 public:
  /// Opens one connection per entry of `wires` to 127.0.0.1:port.
  LoadGen(std::uint16_t port, const std::vector<serve::Wire>& wires);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  bool ok() const { return ok_; }
  std::size_t connections() const { return conns_.size(); }

  using Sink = std::function<void(const Completion&)>;

  struct RunOptions {
    /// Wait for outstanding responses until then; requests still
    /// unanswered come back with answered == false.
    TimeNs drain_until = 0;
    /// When set, stop issuing as soon as it reads true; the rest of the
    /// schedule stays unsent (sent == 0) and is not an attempted operation.
    const std::atomic<bool>* stop = nullptr;
    /// Completes a request at its issue time (e.g. naming the newest
    /// segment of a live store), on the generator thread.
    std::function<void(serve::Request&)> prepare;
  };

  /// Issues `schedule` (sorted by due time) open-loop, then waits for the
  /// outstanding responses. Afterwards every schedule entry is passed to
  /// `sink` in order, with its parsed document.
  void run(const std::vector<Scheduled>& schedule, const RunOptions& opts, const Sink& sink);

 private:
  struct Conn;
  std::vector<Conn*> conns_;
  bool ok_ = false;
  std::uint64_t next_id_ = 1;
};

}  // namespace osn::bench
