#include "net/connection.hpp"

namespace osn::net {

Connection::IoStatus Connection::fill(std::size_t budget) {
  char chunk[16 * 1024];
  std::size_t got_total = 0;
  while (got_total < budget) {
    std::size_t n = 0;
    const std::size_t cap =
        budget - got_total < sizeof(chunk) ? budget - got_total : sizeof(chunk);
    switch (sockio::read_some(fd(), chunk, cap, n)) {
      case sockio::Status::kOk:
        rbuf_.append(chunk, n);
        got_total += n;
        if (n < cap) return IoStatus::kOk;  // socket drained
        break;
      case sockio::Status::kWouldBlock:
        return IoStatus::kOk;
      case sockio::Status::kEof:
        return IoStatus::kPeerClosed;
      case sockio::Status::kError:
        return IoStatus::kError;
    }
  }
  return IoStatus::kOk;  // budget spent; level-triggered poll re-reports
}

bool Connection::detect() {
  if (codec_ != nullptr) return true;
  return detect_codec(rbuf_, codec_);
}

Codec::Result Connection::next_frame(std::size_t max_frame, std::string& frame,
                                     std::string& error) {
  return codec_->decode(rbuf_, max_frame, frame, error);
}

bool Connection::queue_write(std::string_view bytes, std::size_t cap) {
  // Compact lazily: only when the flushed prefix dominates, so steady-state
  // appends are O(bytes) without erase-from-front churn per flush.
  if (wpos_ > 0 && wpos_ >= wbuf_.size() / 2) {
    wbuf_.erase(0, wpos_);
    wpos_ = 0;
  }
  const std::size_t pending = wbuf_.size() - wpos_;
  if (pending > 0 && pending + bytes.size() > cap) return false;
  wbuf_.append(bytes);
  if (wbuf_.size() - wpos_ > wbuf_hwm_) wbuf_hwm_ = wbuf_.size() - wpos_;
  return true;
}

Connection::IoStatus Connection::flush() {
  while (wpos_ < wbuf_.size()) {
    std::size_t n = 0;
    switch (sockio::write_some(fd(), wbuf_.data() + wpos_, wbuf_.size() - wpos_, n)) {
      case sockio::Status::kOk:
        wpos_ += n;
        break;
      case sockio::Status::kWouldBlock:
        return IoStatus::kOk;  // writability event resumes the flush
      case sockio::Status::kEof:  // not reachable for writes; treat as error
      case sockio::Status::kError:
        return IoStatus::kError;
    }
  }
  wbuf_.clear();
  wpos_ = 0;
  return IoStatus::kOk;
}

}  // namespace osn::net
