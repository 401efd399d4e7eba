// Trace decode throughput across the read-path axes this layer optimizes:
//
//  * CRC-32 implementation: bytewise oracle vs slicing-by-8 vs the hardware
//    (PCLMUL / ARMv8) kernel behind the runtime dispatcher. Every chunk read
//    pays one CRC pass over its payload, so this bounds decode bandwidth.
//  * I/O backend: mmap zero-copy chunk views vs positioned pread. Same
//    records either way; only the copy count differs.
//  * Decode parallelism: v3 chunks reset their delta state, so read_all
//    fans out across a pool with bit-identical output.
//  * Windowed reads: the index prunes chunks before any decode happens.
//  * Summary: index-resident pre-aggregates vs full record decode + interval
//    analysis. The fast path reads O(index) bytes and never touches records.
//
// Counters: bytes_per_second is file bytes consumed, items_per_second is
// event records decoded (or summarized). OSN_BENCH_SMOKE=1 shrinks the
// synthetic inputs so a ctest smoke run finishes in seconds.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/thread_pool.hpp"
#include "export/index_summary.hpp"
#include "export/json.hpp"
#include "noise/analysis.hpp"
#include "noise/index_aggregate.hpp"
#include "query/engine.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace osn;

bool smoke_run() {
  const char* v = std::getenv("OSN_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

constexpr std::uint16_t kCpus = 8;

std::uint64_t bench_steps() {
  // records = steps * kCpus (~1.6M full, ~40K smoke)
  return smoke_run() ? 5'000 : 200'000;
}

trace::TraceMeta bench_meta() {
  trace::TraceMeta meta;
  meta.n_cpus = kCpus;
  meta.tick_period_ns = 10 * kNsPerMs;
  meta.workload = "micro_decode";
  meta.start_ns = 0;
  meta.end_ns = bench_steps() * 1'000 + 1;
  return meta;
}

/// Writes the synthetic stream once and returns the path.
const std::string& bench_file() {
  static std::string path;
  if (!path.empty()) return path;
  path = "/tmp/osn_micro_decode_v3.osnt";
  trace::OsntStreamWriter writer(path);
  for (std::uint64_t step = 0; step < bench_steps(); ++step) {
    for (std::uint16_t cpu = 0; cpu < kCpus; ++cpu) {
      tracebuf::EventRecord rec;
      // Varied gaps exercise 1-3 byte timestamp deltas like a real trace.
      rec.timestamp = step * 1'000 + cpu * 7 + (step % 13) * 11;
      rec.cpu = cpu;
      rec.pid = 1 + cpu;
      rec.event = static_cast<std::uint16_t>(1 + step % 12);
      rec.arg = step % 5;
      writer.append(rec);
    }
  }
  writer.finish(bench_meta(), {});
  return path;
}

std::int64_t file_bytes(const std::string& path) {
  return static_cast<std::int64_t>(std::filesystem::file_size(path));
}

// --- CRC-32 kernels --------------------------------------------------------

void crc_bench(benchmark::State& state,
               std::uint32_t (*impl)(std::uint32_t, const void*, std::size_t)) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> buf(len);
  for (std::size_t i = 0; i < len; ++i)
    buf[i] = static_cast<std::uint8_t>(i * 131 + 17);
  for (auto _ : state) benchmark::DoNotOptimize(impl(0, buf.data(), len));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(len));
}

void BM_Crc32Bytewise(benchmark::State& state) {
  crc_bench(state, &crc32_update_bytewise);
}
void BM_Crc32Slice8(benchmark::State& state) { crc_bench(state, &crc32_update_slice8); }
void BM_Crc32Hardware(benchmark::State& state) {
  if (!crc32_hardware_available()) {
    state.SkipWithError("no PCLMUL/ARMv8 CRC support on this host");
    return;
  }
  crc_bench(state, &crc32_update_hardware);
}
// 64 KiB matches a typical chunk payload; 512 B covers the header-sized tail.
BENCHMARK(BM_Crc32Bytewise)->Arg(512)->Arg(64 * 1024);
BENCHMARK(BM_Crc32Slice8)->Arg(512)->Arg(64 * 1024);
BENCHMARK(BM_Crc32Hardware)->Arg(512)->Arg(64 * 1024);

// --- Full-file decode ------------------------------------------------------

// range(0): 0 = mmap, 1 = pread. range(1): decode workers.
void BM_DecodeV3Full(benchmark::State& state) {
  const std::string& path = bench_file();
  const auto mode = state.range(0) == 0 ? trace::OsntReader::IoMode::kAuto
                                        : trace::OsntReader::IoMode::kPread;
  const auto jobs = static_cast<std::size_t>(state.range(1));
  ThreadPool pool(jobs);
  for (auto _ : state) {
    trace::OsntReader reader(path, mode);
    benchmark::DoNotOptimize(reader.read_all(jobs > 1 ? &pool : nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bench_steps() * kCpus));
  state.SetBytesProcessed(state.iterations() * file_bytes(path));
  state.SetLabel(state.range(0) == 0 ? "mmap" : "pread");
}
BENCHMARK(BM_DecodeV3Full)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({0, 8})
    ->Unit(benchmark::kMillisecond);

// A 10% time window through query::Engine::model, the path osn-analyze's
// --window takes: the index prunes ~90% of the chunks before any decode.
// range(0): 0 = mmap, 1 = pread. range(1): decode workers.
void BM_DecodeV3Window10Pct(benchmark::State& state) {
  const std::string& path = bench_file();
  const auto mode = state.range(0) == 0 ? trace::OsntReader::IoMode::kAuto
                                        : trace::OsntReader::IoMode::kPread;
  const auto jobs = static_cast<std::size_t>(state.range(1));
  ThreadPool pool(jobs);
  const TimeNs end = bench_meta().end_ns;
  query::Plan plan;
  plan.t0 = end / 2;
  plan.t1 = end / 2 + end / 10;
  query::Engine engine;
  for (auto _ : state) {
    trace::OsntReader reader(path, mode);
    benchmark::DoNotOptimize(engine.model(reader, "", plan, jobs > 1 ? &pool : nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bench_steps() * kCpus / 10));
  state.SetLabel(state.range(0) == 0 ? "mmap" : "pread");
}
BENCHMARK(BM_DecodeV3Window10Pct)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 4})
    ->Unit(benchmark::kMillisecond);

// --- Summary: pre-aggregates vs record decode ------------------------------

/// An analyzable trace (balanced kernel entry/exit pairs on app tasks) whose
/// writer carried an IndexAggregator, so the file's footer holds per-chunk
/// pre-aggregates. The event mix in bench_file() is deliberately hostile to
/// the interval state machines, so the summary benchmarks use this instead.
const std::string& summary_file() {
  static std::string path;
  if (!path.empty()) return path;
  path = "/tmp/osn_micro_decode_sum.osnt";
  const std::uint64_t steps = bench_steps();
  trace::OsntStreamWriter writer(path, 8192);
  writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
  for (std::uint64_t step = 0; step < steps; ++step) {
    for (std::uint16_t cpu = 0; cpu < kCpus; ++cpu) {
      const TimeNs base = step * 1'000 + cpu * 11;
      const Pid pid = static_cast<Pid>(1 + cpu);
      // Alternate timer irqs and timer softirqs — both mapped activities.
      const auto entry = step % 3 == 0 ? trace::EventType::kIrqEntry
                                       : trace::EventType::kSoftirqEntry;
      const std::uint64_t arg =
          entry == trace::EventType::kIrqEntry
              ? static_cast<std::uint64_t>(trace::IrqVector::kTimer)
              : static_cast<std::uint64_t>(trace::SoftirqNr::kTimer);
      writer.append(trace::make_record(base, cpu, pid, entry, arg));
      writer.append(trace::make_record(base + 300, cpu, pid, trace::exit_of(entry), arg));
    }
  }
  std::map<Pid, trace::TaskInfo> tasks;
  for (std::uint16_t cpu = 0; cpu < kCpus; ++cpu) {
    trace::TaskInfo info;
    info.pid = static_cast<Pid>(1 + cpu);
    info.name = "rank" + std::to_string(cpu);
    info.is_app = true;
    tasks[info.pid] = info;
  }
  writer.finish(bench_meta(), tasks);
  return path;
}

void BM_SummaryFromRecords(benchmark::State& state) {
  const std::string& path = summary_file();
  for (auto _ : state) {
    trace::OsntReader reader(path);
    const trace::TraceModel model = reader.read_all();
    const noise::NoiseAnalysis analysis(model);
    benchmark::DoNotOptimize(exporter::summary_json(analysis));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bench_steps() * kCpus * 2));
  state.SetBytesProcessed(state.iterations() * file_bytes(path));
}
BENCHMARK(BM_SummaryFromRecords)->Unit(benchmark::kMillisecond);

void BM_SummaryFromIndex(benchmark::State& state) {
  const std::string& path = summary_file();
  for (auto _ : state) {
    trace::OsntReader reader(path);
    auto json = exporter::index_summary_json(reader);
    if (!json) {
      state.SkipWithError("pre-aggregates missing or vetoed");
      return;
    }
    benchmark::DoNotOptimize(*json);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bench_steps() * kCpus * 2));
}
BENCHMARK(BM_SummaryFromIndex)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
