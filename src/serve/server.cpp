#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace osn::serve {

namespace {

/// One response as the frame payload of the connection's wire.
std::string encode_response(net::CodecKind kind, const Response& resp) {
  return kind == net::CodecKind::kOsnb ? response_to_osnb(resp) : resp.to_line();
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      catalog_(std::make_unique<TraceCatalog>(options_.dir)),
      engine_(query::EngineOptions{options_.result_cache_bytes,
                                   options_.model_cache_bytes}) {
  ctx_.catalog = catalog_.get();
  ctx_.engine = &engine_;
  ctx_.metrics = &metrics_;
  ctx_.draining = &draining_;
  ctx_.net_gauges = [this] { return net_gauges(); };
  ctx_.monitor_status = options_.monitor_status;
  ctx_.monitor_alerts = options_.monitor_alerts;
}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  // A deep backlog: connection fleets (dashboards, the churn bench) connect
  // in bursts far faster than one accept pass. The kernel clamps to
  // net.core.somaxconn anyway.
  TcpListener listener = TcpListener::listen(options_.host, options_.port,
                                             /*backlog=*/1024, error);
  if (!listener.ok()) return false;
  net::LoopOptions loop_options;
  loop_options.idle_timeout = options_.idle_timeout;
  loop_options.use_poll = options_.use_poll_backend;
  // A fresh loop per start: the loop's stop latch is one-shot by design.
  // The cast happens here, in class scope, because Handler is a private base.
  loop_ = std::make_unique<net::EventLoop>(loop_options,
                                           static_cast<net::Handler*>(this));
  pool_ = std::make_unique<ThreadPool>(std::max<std::size_t>(options_.workers, 1));
  inflight_.store(0, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  if (!loop_->start(std::move(listener), error)) {
    pool_.reset();
    loop_.reset();
    return false;
  }
  running_.store(true, std::memory_order_release);
  return true;
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Phase 1: no new connections or dispatches; idle clients hear
  // `shutting_down` instead of seeing EOF. In-request ping stalls watch the
  // draining flag, so in-flight work finishes promptly. drain() blocks until
  // the loop acknowledges, so no on_frames() can race the pool teardown.
  draining_.store(true, std::memory_order_release);
  loop_->drain();
  // Phase 2: the pool destructor runs every already-submitted batch to
  // completion; each posts its responses and finish() to the still-running
  // loop, which answers with the drain goodbye and flushes.
  pool_.reset();
  // Phase 3: bounded flush of whatever is still queued, then join.
  loop_->stop();
}

NetGauges Server::net_gauges() const {
  return NetGauges{{loop_ ? loop_->stats() : net::LoopStats{}},
                   loop_ ? loop_->backend() : "?",
                   wire_requests_json_.load(std::memory_order_relaxed),
                   wire_requests_osnb_.load(std::memory_order_relaxed)};
}

void Server::on_accept(std::uint64_t) {
  // Sockets are always welcome: an idle connection costs one poller
  // registration, nothing more. Admission control happens per dispatched
  // batch in on_frames(), so 10k parked dashboards can't starve anyone.
  metrics_.count_connection();
}

std::string Server::goodbye_frame(net::CodecKind kind) {
  return encode_response(kind, Response::failure(0, errc::kShuttingDown, "server draining"));
}

void Server::on_frames(std::uint64_t id, net::CodecKind kind,
                       std::vector<std::string> frames) {
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) >= options_.max_inflight) {
    // At capacity: refuse this batch with an explicit error (an invisible
    // queue would just convert overload into latency) but keep the
    // connection — the client may retry once the burst passes.
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    metrics_.count_shed();
    const std::string refusal = encode_response(
        kind, Response::failure(0, errc::kOverloaded, "server at capacity"));
    for (const std::string& frame : frames)
      if (!(kind == net::CodecKind::kLine && frame.empty()))
        loop_->send(id, refusal);
    loop_->finish(id);
    return;
  }
  try {
    pool_->submit([this, id, kind, frames = std::move(frames)] {
      try {
        for (const std::string& frame : frames) {
          std::optional<std::string> resp = serve_frame(kind, frame);
          if (resp.has_value()) loop_->send(id, std::move(*resp));
        }
        loop_->finish(id);
      } catch (...) {
        // A worker throwing mid-batch (say, bad_alloc composing a response)
        // must not strand the connection in kDispatched forever.
        loop_->close(id);
      }
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
    });
  } catch (...) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    loop_->close(id);  // couldn't even enqueue
  }
}

std::optional<std::string> Server::serve_frame(net::CodecKind kind,
                                               const std::string& frame) {
  if (kind == net::CodecKind::kLine && frame.empty())
    return std::nullopt;  // blank keep-alive line, never answered

  (kind == net::CodecKind::kOsnb ? wire_requests_osnb_ : wire_requests_json_)
      .fetch_add(1, std::memory_order_relaxed);

  const TimeNs t_start = monotonic_now_ns();
  std::string parse_error;
  const std::optional<Request> req =
      kind == net::CodecKind::kOsnb ? parse_request_osnb(frame, parse_error)
                                    : parse_request(frame, parse_error);
  Response resp;
  if (!req.has_value()) {
    metrics_.count_bad_line();
    metrics_.count_error();
    resp = Response::failure(0, errc::kBadRequest, parse_error);
  } else {
    // An explicit client deadline is always honoured — deadline_ms:0 means
    // "already expired", which is how clients probe the deadline machinery.
    // Only when the request carries none does the server default apply,
    // where 0 means "no deadline".
    const Deadline deadline =
        req->deadline.has_value() ? Deadline::after(*req->deadline)
        : options_.default_deadline > 0
            ? Deadline::after(options_.default_deadline)
            : Deadline::never();
    resp = execute_query(ctx_, *req, deadline);
  }
  metrics_.observe_latency(sat_sub(monotonic_now_ns(), t_start));
  return encode_response(kind, resp);
}

bool Server::write_port_file(const std::string& path) const {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fprintf(f, "%u\n", port()) > 0;
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return ok;
}

}  // namespace osn::serve
