// EventSource — the uniform trace-ingestion interface.
//
// Every consumer of trace data (NoiseAnalysis, the streaming analyzer,
// osn-analyze) used to be hard-wired to a fully materialized TraceModel,
// which forced whole-file decodes even for windowed queries and left the
// live pipeline as a special case. EventSource abstracts where the records
// come from:
//  * ModelEventSource — an in-memory TraceModel (simulation output, tests);
//  * FileEventSource — an OSNT file through OsntReader: chunks decode in
//    parallel and time windows are served from the chunk index;
//  * workloads::LiveRunSource — the live consumer-daemon drain (defined in
//    src/workloads, which owns the simulation dependency).
//
// The contract mirrors the determinism guarantees of the underlying layers:
// for_each delivers records in global (timestamp, cpu) merged order, and
// to_model yields the same TraceModel whichever implementation (or worker
// count) produced it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/thread_pool.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_model.hpp"

namespace osn::trace {

class EventSource {
 public:
  virtual ~EventSource() = default;

  /// Trace metadata / task registry of the underlying trace.
  virtual const TraceMeta& meta() = 0;
  virtual const std::map<Pid, TaskInfo>& tasks() = 0;

  /// Streams every record in global (timestamp, cpu) merged order.
  virtual void for_each(const std::function<void(const tracebuf::EventRecord&)>& fn) = 0;

  /// Materializes the full trace. Implementations may use the pool (parallel
  /// chunk decode); the result is identical at any worker count.
  virtual TraceModel to_model(ThreadPool* pool = nullptr) = 0;

  /// Materializes only [t0, t1), with window-cut kernel frames repaired
  /// (osnt_reader.hpp). Default: full decode + clip; FileEventSource
  /// overrides with the index-driven chunk-range read.
  virtual TraceModel to_model_window(TimeNs t0, TimeNs t1, ThreadPool* pool = nullptr);
};

/// EventSource over an in-memory TraceModel.
class ModelEventSource final : public EventSource {
 public:
  explicit ModelEventSource(TraceModel model) : model_(std::move(model)) {}

  const TraceMeta& meta() override { return model_.meta(); }
  const std::map<Pid, TaskInfo>& tasks() override { return model_.tasks(); }
  void for_each(const std::function<void(const tracebuf::EventRecord&)>& fn) override;
  TraceModel to_model(ThreadPool* pool = nullptr) override;

  const TraceModel& model() const { return model_; }

 private:
  TraceModel model_;
};

/// EventSource over an OSNT file via OsntReader.
class FileEventSource final : public EventSource {
 public:
  explicit FileEventSource(const std::string& path,
                           OsntReader::IoMode mode = OsntReader::IoMode::kAuto)
      : reader_(path, mode) {}
  explicit FileEventSource(std::vector<std::uint8_t> bytes) : reader_(std::move(bytes)) {}

  const TraceMeta& meta() override { return reader_.meta(); }
  const std::map<Pid, TaskInfo>& tasks() override { return reader_.tasks(); }
  void for_each(const std::function<void(const tracebuf::EventRecord&)>& fn) override;
  TraceModel to_model(ThreadPool* pool = nullptr) override;
  TraceModel to_model_window(TimeNs t0, TimeNs t1, ThreadPool* pool = nullptr) override;

  /// The underlying reader, for chunk/integrity introspection (osn-analyze
  /// info/verify).
  OsntReader& reader() { return reader_; }

 private:
  OsntReader reader_;
};

/// Opens a trace file as an EventSource. Throws TraceReadError on open or
/// header/index failure.
std::unique_ptr<EventSource> open_trace_source(
    const std::string& path, OsntReader::IoMode mode = OsntReader::IoMode::kAuto);

/// Wraps an in-memory model as an EventSource.
std::unique_ptr<EventSource> wrap_model(TraceModel model);

}  // namespace osn::trace
