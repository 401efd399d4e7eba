// Test helper: build small hand-crafted traces for analyzer unit tests.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/schema.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_model.hpp"

namespace osn::testing {

class TraceBuilder {
 public:
  explicit TraceBuilder(std::uint16_t n_cpus = 1) : per_cpu_(n_cpus) {
    meta_.n_cpus = n_cpus;
    meta_.tick_period_ns = 10 * kNsPerMs;
    meta_.workload = "test";
  }

  TraceBuilder& task(Pid pid, std::string name, bool is_app, bool is_kthread = false) {
    trace::TaskInfo info;
    info.pid = pid;
    info.name = std::move(name);
    info.is_app = is_app;
    info.is_kernel_thread = is_kthread;
    tasks_[pid] = std::move(info);
    return *this;
  }

  TraceBuilder& ev(CpuId cpu, TimeNs ts, Pid pid, trace::EventType type,
                   std::uint64_t arg = 0) {
    per_cpu_[cpu].push_back(trace::make_record(ts, cpu, pid, type, arg));
    end_ = std::max(end_, ts);
    return *this;
  }

  /// Convenience: a full entry/exit pair on one CPU.
  TraceBuilder& pair(CpuId cpu, TimeNs t0, TimeNs t1, Pid pid, trace::EventType entry,
                     std::uint64_t arg = 0) {
    ev(cpu, t0, pid, entry, arg);
    ev(cpu, t1, pid, trace::exit_of(entry), arg);
    return *this;
  }

  trace::TraceModel build(TimeNs end = 0) {
    meta_.end_ns = end != 0 ? end : end_ + 1;
    return trace::TraceModel(meta_, per_cpu_, tasks_);
  }

 private:
  trace::TraceMeta meta_;
  std::vector<std::vector<tracebuf::EventRecord>> per_cpu_;
  std::map<Pid, trace::TaskInfo> tasks_;
  TimeNs end_ = 0;
};

/// The OSNT file bytes of `model`, written through OsntStreamWriter with
/// `chunk_records`-record chunks.
inline std::vector<std::uint8_t> osnt_bytes(const trace::TraceModel& model,
                                            std::size_t chunk_records = 8192) {
  // Per-process name: ctest runs each test of a binary as its own process.
  const std::string path =
      ::testing::TempDir() + "/osn_test_bytes_" + std::to_string(::getpid()) + ".osnt";
  {
    trace::OsntStreamWriter writer(path, chunk_records);
    model.for_each_merged([&writer](const tracebuf::EventRecord& rec) { writer.append(rec); });
    EXPECT_TRUE(writer.finish(model.meta(), model.tasks()));
  }
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  std::remove(path.c_str());
  return bytes;
}

/// The window [t0, t1) of `reader` as the query engine decodes it (no cpu
/// predicate): the chunks window_chunk_range selects, then window_of.
inline trace::TraceModel decode_window(trace::OsntReader& reader, TimeNs t0, TimeNs t1,
                                       ThreadPool* pool = nullptr) {
  const auto [lo, hi] = reader.window_chunk_range(t0, t1);
  std::vector<std::size_t> ids(hi - lo);
  std::iota(ids.begin(), ids.end(), lo);
  return trace::window_of(reader.read_chunks(ids, pool), t0, t1);
}

}  // namespace osn::testing
