#include "loadgen.hpp"

#include <poll.h>

#include <cerrno>
#include <ctime>
#include <map>

#include "bench.hpp"
#include "common/socket.hpp"
#include "net/codec.hpp"

namespace osn::bench {

namespace {
constexpr std::size_t kMaxFrame = 64u << 20;
/// Gaps longer than this are slept through, less this margin (drains only:
/// request gaps at the offered rates are far shorter).
constexpr DurNs kSleepAbove = 50 * kNsPerMs;
/// Once stopped, outstanding requests get this long to answer.
constexpr DurNs kStopGrace = 2 * kNsPerSec;

/// The request id of a response frame, read from its fixed prefix without
/// parsing the document: `{"id":N,...` on the line wire, tag byte + LEB128
/// id on OSNB. 0 (never issued) when the prefix is malformed.
std::uint64_t frame_id(serve::Wire wire, const std::string& frame) {
  std::uint64_t id = 0;
  if (wire == serve::Wire::kBinary) {
    unsigned shift = 0;
    for (std::size_t i = 1; i < frame.size() && shift < 64; ++i, shift += 7) {
      const auto b = static_cast<unsigned char>(frame[i]);
      id |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return id;
    }
    return 0;
  }
  static constexpr char kPrefix[] = "{\"id\":";
  if (frame.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) return 0;
  for (std::size_t i = sizeof(kPrefix) - 1; i < frame.size() && frame[i] >= '0' && frame[i] <= '9';
       ++i)
    id = id * 10 + static_cast<std::uint64_t>(frame[i] - '0');
  return id;
}
}  // namespace

struct LoadGen::Conn {
  TcpStream stream;
  int fd = -1;
  serve::Wire wire = serve::Wire::kJson;
  bool preamble_sent = false;
  bool dead = false;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::map<std::uint64_t, std::size_t> pending;  ///< request id -> schedule index
};

LoadGen::LoadGen(std::uint16_t port, const std::vector<serve::Wire>& wires) {
  ok_ = !wires.empty();
  for (const serve::Wire w : wires) {
    auto* c = new Conn;
    c->wire = w;
    conns_.push_back(c);
    c->stream = TcpStream::connect("127.0.0.1", port, Deadline::after(sec(5)));
    if (!c->stream.ok() || !sockio::set_nonblocking(c->stream.fd())) {
      ok_ = false;
      c->dead = true;
      continue;
    }
    c->fd = c->stream.fd();
  }
}

LoadGen::~LoadGen() {
  for (Conn* c : conns_) delete c;
}


void LoadGen::run(const std::vector<Scheduled>& schedule, const RunOptions& opts,
                  const Sink& sink) {
  TimeNs drain_until = opts.drain_until;
  std::vector<Completion> out(schedule.size());
  std::vector<std::string> frames(schedule.size());
  std::size_t next = 0;
  std::size_t outstanding = 0;

  auto flush = [](Conn& c) {
    while (!c.dead && c.out_off < c.out.size()) {
      std::size_t done = 0;
      const sockio::Status st = sockio::write_some(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off, done);
      c.out_off += done;
      if (st == sockio::Status::kWouldBlock) break;
      if (st != sockio::Status::kOk) c.dead = true;
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  };

  auto fail_pending = [&](Conn& c) {
    for (const auto& [id, idx] : c.pending) {
      (void)id;
      out[idx].done = now_ns();
      --outstanding;
    }
    c.pending.clear();
  };

  auto issue = [&](std::size_t i) {
    Conn& c = *conns_.at(schedule[i].conn);
    serve::Request req = schedule[i].request;
    if (opts.prepare) opts.prepare(req);
    req.id = next_id_++;
    Completion& comp = out[i];
    comp.index = i;
    comp.due = schedule[i].due;
    comp.wire = c.wire;
    comp.trace = req.trace;
    if (c.dead) {
      comp.sent = comp.done = now_ns();
      return;
    }
    if (c.wire == serve::Wire::kBinary) {
      if (!c.preamble_sent) c.out.append(net::kOsnbPreamble, net::kOsnbPreambleLen);
      c.preamble_sent = true;
      c.out += net::codec_for(net::CodecKind::kOsnb).encode(serve::request_to_osnb(req));
    } else {
      c.out += net::codec_for(net::CodecKind::kLine).encode(req.to_line());
    }
    comp.sent = now_ns();
    c.pending[req.id] = i;
    ++outstanding;
    flush(c);
  };

  // Reads one buffer at a time and frames what it holds, so the receive
  // buffer never accumulates many responses (the codec erases each frame
  // from the front of it).
  auto receive = [&](Conn& c) {
    const net::Codec& codec = net::codec_for(
        c.wire == serve::Wire::kBinary ? net::CodecKind::kOsnb : net::CodecKind::kLine);
    char buf[1 << 16];
    while (!c.dead) {
      std::size_t got = 0;
      const sockio::Status st = sockio::read_some(c.fd, buf, sizeof(buf), got);
      if (st == sockio::Status::kWouldBlock) break;
      if (st != sockio::Status::kOk) {
        c.dead = true;
        break;
      }
      c.in.append(buf, got);
      for (;;) {
        std::string frame, error;
        const net::Codec::Result res = codec.decode(c.in, kMaxFrame, frame, error);
        if (res == net::Codec::Result::kNeedMore) break;
        if (res == net::Codec::Result::kError) {
          c.dead = true;
          break;
        }
        const TimeNs done = now_ns();
        auto it = c.pending.find(frame_id(c.wire, frame));
        if (it == c.pending.end()) continue;
        Completion& comp = out[it->second];
        comp.done = done;
        comp.answered = true;
        frames[it->second] = std::move(frame);
        c.pending.erase(it);
        --outstanding;
      }
    }
    if (c.dead) fail_pending(c);
  };

  std::vector<pollfd> fds(conns_.size());
  for (;;) {
    TimeNs now = now_ns();
    if (next < schedule.size() && opts.stop != nullptr &&
        opts.stop->load(std::memory_order_relaxed)) {
      next = schedule.size();  // the rest stays unsent
      drain_until = std::min(drain_until, now + kStopGrace);
    }
    while (next < schedule.size() && schedule[next].due <= now) {
      issue(next++);
      now = now_ns();
    }
    if (next >= schedule.size() && (outstanding == 0 || now >= drain_until)) break;
    // Busy-poll until the next due time instead of sleeping: on virtualized
    // hosts a timed wakeup can come back milliseconds late, which would be
    // generator lag, not server latency. The generator owns one core.
    const TimeNs wake = next < schedule.size() ? schedule[next].due : drain_until;
    const DurNs wait = wake > now && wake - now > kSleepAbove ? wake - now - kSleepAbove : 0;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const Conn& c = *conns_[i];
      fds[i].fd = c.dead ? -1 : c.fd;
      fds[i].events = static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait / kNsPerSec),
                      static_cast<long>(wait % kNsPerSec)};
    const int n = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (n < 0 && errno != EINTR) break;
    for (std::size_t i = 0; i < conns_.size() && n > 0; ++i) {
      Conn& c = *conns_[i];
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) receive(c);
      if (fds[i].revents & POLLOUT) flush(c);
      if (c.dead) fail_pending(c);
    }
  }
  for (Conn* c : conns_) {
    // Anything still pending timed out at drain_until: never answered.
    for (const auto& [id, idx] : c->pending) {
      (void)id;
      out[idx].done = now_ns();
    }
    c->pending.clear();
  }
  // Documents are parsed off the clock: a multi-megabyte JSON payload takes
  // milliseconds to unescape, and a generator busy parsing would fall
  // behind its schedule. Each frame is released once delivered.
  for (std::size_t i = 0; i < out.size(); ++i) {
    Completion& comp = out[i];
    comp.index = i;
    if (comp.answered) {
      const std::optional<serve::Response> resp = comp.wire == serve::Wire::kBinary
                                                      ? serve::parse_response_osnb(frames[i])
                                                      : serve::parse_response(frames[i]);
      std::string().swap(frames[i]);
      if (resp.has_value()) {
        comp.ok = resp->ok;
        comp.error = resp->error;
        comp.payload = resp->ok ? resp->payload : resp->message;
      } else {
        comp.error = "unparseable";
      }
    }
    sink(comp);
    std::string().swap(comp.payload);
  }
}

}  // namespace osn::bench
