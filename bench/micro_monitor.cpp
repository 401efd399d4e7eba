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

std::uint64_t bench_steps() {
  // records = steps * kCpus * 2 (~800K full, ~24K smoke)
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
    trace::TaskInfo info;
    info.pid = static_cast<Pid>(1 + cpu);
    info.name = "rank" + std::to_string(cpu);
    info.is_app = true;
    tasks[info.pid] = info;
  }
  return tasks;
}

/// The replay stream, generated once: balanced timer irq / softirq pairs on
/// application ranks, one pair per cpu per microsecond — the same shape the
/// planner benchmark uses, so ingest rates are comparable to decode rates.
const std::vector<tracebuf::EventRecord>& bench_records() {
  static std::vector<tracebuf::EventRecord> recs;
  if (!recs.empty()) return recs;
  recs.reserve(bench_steps() * kCpus * 2);
  for (std::uint64_t step = 0; step < bench_steps(); ++step) {
    for (std::uint16_t cpu = 0; cpu < kCpus; ++cpu) {
      const TimeNs base = step * 1'000 + cpu * 11;
      const Pid pid = static_cast<Pid>(1 + cpu);
      const auto entry = step % 3 == 0 ? trace::EventType::kIrqEntry
                                       : trace::EventType::kSoftirqEntry;
      const std::uint64_t arg =
          entry == trace::EventType::kIrqEntry
              ? static_cast<std::uint64_t>(trace::IrqVector::kTimer)
              : static_cast<std::uint64_t>(trace::SoftirqNr::kTimer);
      recs.push_back(trace::make_record(base, cpu, pid, entry, arg));
      recs.push_back(trace::make_record(base + 300, cpu, pid, trace::exit_of(entry), arg));
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
