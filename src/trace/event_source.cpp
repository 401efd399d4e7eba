#include "trace/event_source.hpp"

namespace osn::trace {

TraceModel EventSource::to_model_window(TimeNs t0, TimeNs t1, ThreadPool* pool) {
  return window_of(to_model(pool), t0, t1);
}

void ModelEventSource::for_each(const std::function<void(const tracebuf::EventRecord&)>& fn) {
  model_.for_each_merged(fn);
}

TraceModel ModelEventSource::to_model(ThreadPool* /*pool*/) { return model_; }

void FileEventSource::for_each(const std::function<void(const tracebuf::EventRecord&)>& fn) {
  reader_.for_each(fn);
}

TraceModel FileEventSource::to_model(ThreadPool* pool) { return reader_.read_all(pool); }

TraceModel FileEventSource::to_model_window(TimeNs t0, TimeNs t1, ThreadPool* pool) {
  return reader_.read_window(t0, t1, pool);
}

std::unique_ptr<EventSource> open_trace_source(const std::string& path,
                                               OsntReader::IoMode mode) {
  return std::make_unique<FileEventSource>(path, mode);
}

std::unique_ptr<EventSource> wrap_model(TraceModel model) {
  return std::make_unique<ModelEventSource>(std::move(model));
}

}  // namespace osn::trace
