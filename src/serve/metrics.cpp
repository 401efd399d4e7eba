#include "serve/metrics.hpp"

#include "common/json_writer.hpp"
#include "serve/protocol.hpp"

namespace osn::serve {

std::string ServerMetrics::to_json(const CacheStats& results,
                                   const CacheStats& models,
                                   const NetGauges* net) const {
  std::uint64_t total = 0;
  DurNs p50 = 0, p90 = 0, p99 = 0;
  {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    total = latency_.total();
    if (total > 0) {
      p50 = latency_.quantile(0.50);
      p90 = latency_.quantile(0.90);
      p99 = latency_.quantile(0.99);
    }
  }
  const auto load = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };

  JsonWriter w(JsonWriter::Layout::kBlock);
  const auto cache_section = [&w](const JsonWriter::Key& key, const CacheStats& s) {
    w.key(key)
        .begin_object()
        .field("hits", s.hits)
        .field("misses", s.misses)
        .field("insertions", s.insertions)
        .field("evictions", s.evictions)
        .field("oversize", s.oversize)
        .field("entries", s.entries)
        .field("bytes", s.bytes)
        .end_object();
  };
  w.begin_object().field("requests", load(requests_));
  w.key("per_op").begin_object();
  // kPing is the last enumerator; every op slot gets a key.
  for (std::size_t i = 0; i <= static_cast<std::size_t>(Op::kPing); ++i)
    w.dynamic_key(op_name(static_cast<Op>(i))).value(load(per_op_[i]));
  w.end_object()
      .field("ok", load(ok_))
      .field("errors", load(errors_))
      .field("shed", load(shed_))
      .field("deadline_exceeded", load(deadline_exceeded_))
      .field("bad_lines", load(bad_lines_))
      .field("connections", load(connections_));
  w.key("latency")
      .begin_object()
      .field("samples", total)
      .field("p50_ns", p50)
      .field("p90_ns", p90)
      .field("p99_ns", p99)
      .end_object();
  cache_section("result_cache", results);
  cache_section("model_cache", models);
  if (net != nullptr) {
    w.key("net")
        .begin_object()
        .field("backend", net->backend)
        .field("accepted", net->accepted)
        .field("open", net->open)
        .field("idle", net->reading)
        .field("dispatched", net->dispatched)
        .field("draining", net->draining)
        .field("requests_json", net->requests_json)
        .field("requests_osnb", net->requests_osnb)
        .field("write_queue_hwm", net->write_queue_hwm)
        .field("slow_reader_closes", net->slow_reader_closes)
        .field("idle_timeouts", net->idle_timeouts)
        .field("codec_errors", net->codec_errors)
        .end_object();
  }
  w.end_object();
  return std::move(w).take();
}

}  // namespace osn::serve
