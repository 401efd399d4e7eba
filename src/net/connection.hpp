// One client connection owned by the EventLoop.
//
// A connection is a small state machine driven entirely from the loop
// thread (workers never touch it — they talk to the loop through
// EventLoop::send/finish, which post back onto the loop):
//
//   kReading ──complete frame(s)──▶ kDispatched ──finish()──▶ kReading
//       │                               │
//       └─────── drain / close() ───────┴──▶ kDraining ──queue empty──▶ closed
//
//  * kReading    — the loop watches the fd for readability, appends bytes to
//                  the receive buffer, and runs codec detection + framing.
//                  Idle clients sit here costing one poller entry.
//  * kDispatched — at least one complete frame went to a worker. Read
//                  interest is dropped, so pipelined bytes beyond the
//                  buffered ones wait in the kernel socket buffer (natural
//                  TCP back-pressure) and a connection can never occupy two
//                  workers at once.
//  * kDraining   — final bytes (the drain goodbye, or a response before a
//                  forced close) are queued; the connection closes once
//                  they flush or the peer dies.
//
// Writes never block a worker: responses are appended to a bounded
// write queue flushed opportunistically and then by writability events.
// A peer that stops reading grows the queue to its cap (the loop's
// kWriteQueueMax) and is closed as a slow reader — back-pressure ends at
// the server's memory, not before. Fatal I/O errors close at once.
#pragma once

#include <cstdint>
#include <string>

#include "common/socket.hpp"
#include "common/types.hpp"
#include "net/codec.hpp"

namespace osn::net {

enum class ConnState : std::uint8_t { kReading, kDispatched, kDraining };

class Connection {
 public:
  Connection(std::uint64_t id, TcpStream stream)
      : id_(id), stream_(std::move(stream)) {}

  std::uint64_t id() const { return id_; }
  int fd() const { return stream_.fd(); }

  ConnState state() const { return state_; }
  void set_state(ConnState s) { state_ = s; }

  /// Codec: null until detect() decides. Kind is only meaningful after.
  const Codec* codec() const { return codec_; }
  CodecKind codec_kind() const {
    return codec_ != nullptr ? codec_->kind() : CodecKind::kLine;
  }

  TimeNs last_activity() const { return last_activity_; }
  void touch(TimeNs now) { last_activity_ = now; }

  enum class IoStatus : std::uint8_t { kOk, kPeerClosed, kError };

  /// Reads whatever the socket has (non-blocking fd) into the receive
  /// buffer, up to `budget` bytes this pass — level-triggered polling
  /// re-reports the rest, keeping one firehose client from starving the
  /// loop. kPeerClosed on orderly EOF.
  IoStatus fill(std::size_t budget);

  /// Runs codec detection if still pending. True when a codec is chosen.
  bool detect();

  /// Extracts the next complete frame from the receive buffer (detect()
  /// must have succeeded). Same contract as Codec::decode.
  Codec::Result next_frame(std::size_t max_frame, std::string& frame,
                           std::string& error);

  /// Appends wire bytes to the write queue. False when earlier bytes are
  /// still queued and these would take it past `cap` — the caller must
  /// treat the peer as a slow reader and close. An empty queue takes a
  /// frame of any size: one response is never too big to send.
  bool queue_write(std::string_view bytes, std::size_t cap);

  /// Flushes as much of the write queue as the socket accepts right now.
  IoStatus flush();

  bool wants_write() const { return wpos_ < wbuf_.size(); }
  /// Drops unframed received bytes (a draining peer's input is noise).
  void discard_buffered() { rbuf_.clear(); }
  std::size_t write_queue_hwm() const { return wbuf_hwm_; }

 private:
  std::uint64_t id_;
  TcpStream stream_;
  ConnState state_ = ConnState::kReading;
  const Codec* codec_ = nullptr;
  TimeNs last_activity_ = 0;

  std::string rbuf_;          ///< received, not yet framed
  std::string wbuf_;          ///< queued, not yet written
  std::size_t wpos_ = 0;      ///< flushed prefix of wbuf_
  std::size_t wbuf_hwm_ = 0;  ///< high-water mark of pending bytes
};

}  // namespace osn::net
