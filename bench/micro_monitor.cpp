// Monitoring-daemon ingest cost: the segment store (and the full monitor
// pipeline above it) measured as a sustained ingest path, the regime the
// always-on daemon lives in. Reported beyond items/sec:
//
//  * rotations — sealed segments per run, so the rate is read against how
//    often the store paid a seal+reopen,
//  * rotation_pause_p99_ns — p99 wall time of the appends that absorbed a
//    rotation (the stall a live producer would see at a segment boundary),
//
// and a compacting variant that holds retention at a quarter of the span so
// every run pays retirement + downsampling compaction inline. The writer rows
// isolate the per-record layer beneath: OsntStreamWriter::append without and
// with the IndexAggregator. Every row reports ns_per_rec, the CPU cost of
// one record.
//
// OSN_BENCH_SMOKE=1 shrinks the synthetic input so the ctest smoke run
// finishes in seconds.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "monitor/monitor.hpp"
#include "monitor/segment_store.hpp"
#include "noise/index_aggregate.hpp"
#include "stats/histogram.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace osn;

bool smoke_run() {
  const char* v = std::getenv("OSN_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

constexpr std::uint16_t kCpus = 4;
/// Application ranks per cpu: each cpu runs one at a time and moves to the
/// next every kRankSteps steps, so the stream touches kCpus * kRanksPerCpu
/// tasks.
constexpr std::uint32_t kRanksPerCpu = 64;
constexpr std::uint64_t kRankSteps = 16;
/// The per-cpu daemon that preempts the running rank.
Pid daemon_pid(std::uint16_t cpu) { return static_cast<Pid>(9000 + cpu); }
Pid rank_pid(std::uint16_t cpu, std::uint64_t step) {
  return static_cast<Pid>(1 + cpu * kRanksPerCpu + (step / kRankSteps) % kRanksPerCpu);
}

std::uint64_t bench_steps() {
  // records ~= steps * kCpus * 2.8 (~1.1M full, ~34K smoke)
  return smoke_run() ? 3'000 : 100'000;
}

trace::TraceMeta bench_meta() {
  trace::TraceMeta meta;
  meta.n_cpus = kCpus;
  meta.tick_period_ns = 10 * kNsPerMs;
  meta.workload = "micro_monitor";
  meta.start_ns = 0;
  meta.end_ns = bench_steps() * 1'000 + 1;
  return meta;
}

std::map<Pid, trace::TaskInfo> bench_tasks() {
  std::map<Pid, trace::TaskInfo> tasks;
  for (std::uint16_t cpu = 0; cpu < kCpus; ++cpu) {
    for (std::uint32_t r = 0; r < kRanksPerCpu; ++r) {
      trace::TaskInfo info;
      info.pid = static_cast<Pid>(1 + cpu * kRanksPerCpu + r);
      info.name = "rank" + std::to_string(info.pid - 1);
      info.is_app = true;
      tasks[info.pid] = info;
    }
    trace::TaskInfo daemon;
    daemon.pid = daemon_pid(cpu);
    daemon.name = "kworker/" + std::to_string(cpu);
    daemon.is_kernel_thread = true;
    tasks[daemon.pid] = daemon;
  }
  return tasks;
}

/// The replay stream, generated once. Per cpu and microsecond step, the
/// running rank takes a timer irq or softirq pair; every fourth step a
/// daemon preempts it (sched_switch out and back), every eighth step holds
/// a barrier (the rank's communication window), and every kRankSteps steps
/// the cpu switches to its next rank. The per-task preemption and window
/// state this drives is what the aggregator and the monitor pay for on a
/// real (UMT-like) stream; timer pairs alone would leave it untouched.
const std::vector<tracebuf::EventRecord>& bench_records() {
  static std::vector<tracebuf::EventRecord> recs;
  if (!recs.empty()) return recs;
  recs.reserve(bench_steps() * kCpus * 3);
  const auto mark = [](TimeNs t, std::uint16_t cpu, Pid pid, trace::AppMark m) {
    return trace::make_record(t, cpu, pid, trace::EventType::kAppMark,
                              static_cast<std::uint64_t>(m));
  };
  const auto sw = [](TimeNs t, std::uint16_t cpu, Pid prev, Pid next, bool runnable) {
    return trace::make_record(t, cpu, prev, trace::EventType::kSchedSwitch,
                              trace::pack_switch(trace::SwitchArg{prev, next, runnable}));
  };
  for (std::uint64_t step = 0; step < bench_steps(); ++step) {
    for (std::uint16_t cpu = 0; cpu < kCpus; ++cpu) {
      const TimeNs base = step * 1'000 + cpu * 11;
      const Pid pid = rank_pid(cpu, step);
      const auto entry = step % 3 == 0 ? trace::EventType::kIrqEntry
                                       : trace::EventType::kSoftirqEntry;
      const std::uint64_t arg =
          entry == trace::EventType::kIrqEntry
              ? static_cast<std::uint64_t>(trace::IrqVector::kTimer)
              : static_cast<std::uint64_t>(trace::SoftirqNr::kTimer);
      recs.push_back(trace::make_record(base, cpu, pid, entry, arg));
      recs.push_back(trace::make_record(base + 300, cpu, pid, trace::exit_of(entry), arg));
      if (step % 4 == 2) {
        recs.push_back(sw(base + 400, cpu, pid, daemon_pid(cpu), true));
        recs.push_back(sw(base + 600, cpu, daemon_pid(cpu), pid, false));
      }
      if (step % 8 == 5) recs.push_back(mark(base + 700, cpu, pid, trace::AppMark::kBarrierEnter));
      if (step % 8 == 7) recs.push_back(mark(base + 700, cpu, pid, trace::AppMark::kBarrierExit));
      if (step % kRankSteps == kRankSteps - 1)
        recs.push_back(sw(base + 900, cpu, pid, rank_pid(cpu, step + 1), false));
    }
  }
  return recs;
}

std::string fresh_dir() {
  static std::uint64_t seq = 0;
  return "/tmp/osn_micro_monitor_" + std::to_string(::getpid()) + "_" +
         std::to_string(seq++);
}

monitor::StoreOptions store_opts(const std::string& dir, DurNs span) {
  monitor::StoreOptions opts;
  opts.dir = dir;
  opts.segment_ns = span / 16;  // ~16 rotations per run
  opts.segment_bytes = 0;
  opts.chunk_records = 4096;
  return opts;
}

/// Records per second as its inverse: the cost of one record.
benchmark::Counter ns_per_record(const benchmark::State& state, std::size_t records) {
  return benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(records) / 1e9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_StreamWriterAppend(benchmark::State& state) {
  // The per-record write path beneath the store: OsntStreamWriter::append
  // alone (/0) and with the IndexAggregator every store segment attaches
  // (/1). No rotation, one file per iteration.
  const auto& recs = bench_records();
  const trace::TraceMeta meta = bench_meta();
  const auto tasks = bench_tasks();
  const std::string path = fresh_dir() + ".osnt";
  for (auto _ : state) {
    trace::OsntStreamWriter writer(path, 4096);
    if (state.range(0) != 0) writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
    for (const auto& rec : recs) writer.append(rec);
    if (!writer.finish(meta, tasks)) state.SkipWithError("write failed");
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(recs.size()));
  state.counters["ns_per_rec"] = ns_per_record(state, recs.size());
}
BENCHMARK(BM_StreamWriterAppend)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MonitorIngest(benchmark::State& state) {
  const auto& recs = bench_records();
  const trace::TraceMeta meta = bench_meta();
  const auto tasks = bench_tasks();
  const DurNs span = meta.end_ns - meta.start_ns;
  std::uint64_t rotations = 0;
  stats::LogHistogram pauses;
  for (auto _ : state) {
    const std::string dir = fresh_dir();
    monitor::SegmentStore store(store_opts(dir, span), meta, tasks);
    std::size_t sealed = 0;
    for (const auto& rec : recs) {
      const TimeNs t0 = monotonic_now_ns();
      store.append(rec);
      if (store.segments().size() != sealed) {
        // This append absorbed a seal+reopen: its wall time is the pause a
        // live producer would see at the segment boundary.
        sealed = store.segments().size();
        pauses.add(monotonic_now_ns() - t0);
      }
    }
    store.finish(meta.end_ns);
    rotations += store.stats().segments_sealed;
    std::filesystem::remove_all(dir);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(recs.size()));
  state.counters["ns_per_rec"] = ns_per_record(state, recs.size());
  state.counters["rotations"] =
      benchmark::Counter(static_cast<double>(rotations));
  state.counters["rotation_pause_p99_ns"] = benchmark::Counter(
      pauses.total() == 0 ? 0.0 : static_cast<double>(pauses.quantile(0.99)));
}
BENCHMARK(BM_MonitorIngest)->Unit(benchmark::kMillisecond);

void BM_MonitorIngestCompacting(benchmark::State& state) {
  const auto& recs = bench_records();
  const trace::TraceMeta meta = bench_meta();
  const auto tasks = bench_tasks();
  const DurNs span = meta.end_ns - meta.start_ns;
  std::uint64_t compactions = 0;
  for (auto _ : state) {
    const std::string dir = fresh_dir();
    monitor::StoreOptions opts = store_opts(dir, span);
    opts.retain_ns = span / 4;  // retire + compact most segments inline
    monitor::SegmentStore store(opts, meta, tasks);
    for (const auto& rec : recs) store.append(rec);
    store.finish(meta.end_ns);
    compactions += store.stats().compactions;
    std::filesystem::remove_all(dir);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(recs.size()));
  state.counters["compactions"] =
      benchmark::Counter(static_cast<double>(compactions));
}
BENCHMARK(BM_MonitorIngestCompacting)->Unit(benchmark::kMillisecond);

void BM_MonitorPipelineIngest(benchmark::State& state) {
  // Store + window tracker + detector behind the mutex: what one ingested
  // record actually costs the daemon.
  const auto& recs = bench_records();
  const trace::TraceMeta meta = bench_meta();
  const auto tasks = bench_tasks();
  const DurNs span = meta.end_ns - meta.start_ns;
  std::uint64_t windows = 0;
  for (auto _ : state) {
    const std::string dir = fresh_dir();
    monitor::MonitorOptions opts;
    opts.store = store_opts(dir, span);
    opts.window_ns = span / 64;
    monitor::Monitor mon(opts, meta, tasks);
    for (const auto& rec : recs) mon.ingest(rec);
    mon.finish(meta.end_ns);
    windows += mon.store_stats().segments_sealed;
    std::filesystem::remove_all(dir);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(recs.size()));
  state.counters["ns_per_rec"] = ns_per_record(state, recs.size());
  state.counters["rotations"] = benchmark::Counter(static_cast<double>(windows));
}
BENCHMARK(BM_MonitorPipelineIngest)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
