// Infrastructure micro-benchmarks: discrete-event engine, workload
// calibration, simulation, interval building, full analysis, and trace
// encode/decode throughput.
#include <benchmark/benchmark.h>
#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "noise/analysis.hpp"
#include "sim/engine.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "workloads/calibration.hpp"
#include "workloads/ftq.hpp"
#include "workloads/sequoia.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace osn;

void BM_EngineScheduleFire(benchmark::State& state) {
  sim::Engine engine;
  for (auto _ : state) {
    engine.schedule_after(10, [] {});
    engine.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineScheduleFire);

void BM_EngineHotQueue(benchmark::State& state) {
  // 1024 pending events churning: the kernel simulator's steady state.
  sim::Engine engine;
  std::function<void()> rearm;
  std::size_t alive = 0;
  rearm = [&] {
    if (alive < 1024) {
      ++alive;
      engine.schedule_after(100, rearm);
    }
  };
  for (int i = 0; i < 1024; ++i) engine.schedule_after(static_cast<TimeNs>(i), rearm);
  for (auto _ : state) {
    engine.schedule_after(1, [] {});
    engine.run_until(engine.now() + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineHotQueue);

// Builds one application's kernel-activity models from the stored fit
// medians; every Sequoia run pays this once.
void BM_CalibratedModels(benchmark::State& state) {
  const auto app = static_cast<workloads::SequoiaApp>(state.range(0));
  state.SetLabel(workloads::app_name(app));
  for (auto _ : state)
    benchmark::DoNotOptimize(workloads::calibrated_models(app).timer_irq.max_ns());
}
BENCHMARK(BM_CalibratedModels)
    ->DenseRange(0, static_cast<std::int64_t>(workloads::kSequoiaAppCount) - 1)
    ->Unit(benchmark::kMicrosecond);

const workloads::RunResult& cached_ftq_run() {
  static workloads::FtqParams params = [] {
    workloads::FtqParams p;
    p.n_quanta = 500;
    return p;
  }();
  static workloads::FtqWorkload ftq(params);
  static workloads::RunResult run = workloads::run_workload(ftq, 1);
  return run;
}

void BM_SimulateFtqSecond(benchmark::State& state) {
  for (auto _ : state) {
    workloads::FtqParams p;
    p.n_quanta = 100;  // 100 ms of simulated time per iteration
    workloads::FtqWorkload ftq(p);
    benchmark::DoNotOptimize(workloads::run_workload(ftq, 1).trace.total_events());
  }
  state.SetItemsProcessed(state.iterations() * 100);  // simulated ms
}
BENCHMARK(BM_SimulateFtqSecond)->Unit(benchmark::kMillisecond);

// One second of an 8-rank AMG run under its calibrated models, calibration
// included: the simulate half of a traced Sequoia run, minus the tracer.
void BM_SimulateAmgSecond(benchmark::State& state) {
  std::int64_t events = 0;
  for (auto _ : state) {
    workloads::SequoiaWorkload amg(workloads::SequoiaApp::kAmg, sec(1));
    events += static_cast<std::int64_t>(workloads::run_workload(amg, 1).engine_events);
  }
  state.SetItemsProcessed(events);  // engine events
}
BENCHMARK(BM_SimulateAmgSecond)->Unit(benchmark::kMillisecond);

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

// The same second traced live: per-CPU channels drained by the consumer
// daemon into a no-op hook, so the row adds the channels and the drain to
// BM_SimulateAmgSecond. CPU time is the whole process's (simulator plus
// daemon); `minflt` counts the page faults of one run. glibc's mmap
// threshold is pinned as in perfbench (the setting holds for the rows after
// this one), but channels that fit in heap space an earlier run freed still
// come from there, so `minflt` can read below the channels' page count.
void BM_SimulateAmgLive(benchmark::State& state) {
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  workloads::LiveOptions opts;
  opts.on_record = [](const tracebuf::EventRecord&) {};
  std::int64_t events = 0;
  long faults = 0;
  for (auto _ : state) {
    workloads::SequoiaWorkload amg(workloads::SequoiaApp::kAmg, sec(1));
    const long f0 = minor_faults();
    events += static_cast<std::int64_t>(workloads::run_workload_live(amg, 1, opts).engine_events);
    faults += minor_faults() - f0;
  }
  state.SetItemsProcessed(events);  // engine events
  state.counters["minflt"] =
      benchmark::Counter(static_cast<double>(faults), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SimulateAmgLive)->MeasureProcessCPUTime()->Unit(benchmark::kMillisecond);

void BM_IntervalBuild(benchmark::State& state) {
  const auto& run = cached_ftq_run();
  for (auto _ : state)
    benchmark::DoNotOptimize(noise::build_intervals(run.trace).kernel_by_cpu.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(run.trace.total_events()));
}
BENCHMARK(BM_IntervalBuild)->Unit(benchmark::kMillisecond);

void BM_FullAnalysis(benchmark::State& state) {
  const auto& run = cached_ftq_run();
  for (auto _ : state) {
    noise::NoiseAnalysis analysis(run.trace);
    benchmark::DoNotOptimize(analysis.noise_intervals().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(run.trace.total_events()));
}
BENCHMARK(BM_FullAnalysis)->Unit(benchmark::kMillisecond);

constexpr const char* kTracePath = "/tmp/osn_micro_sim_trace.osnt";

// OSNT encode: write_trace_file (merged replay, chunking, CRCs, index) into
// a scratch file, so the row includes the file writes.
void BM_TraceSerialize(benchmark::State& state) {
  const auto& run = cached_ftq_run();
  for (auto _ : state) benchmark::DoNotOptimize(trace::write_trace_file(run.trace, kTracePath));
  std::remove(kTracePath);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(run.trace.total_events()));
}
BENCHMARK(BM_TraceSerialize)->Unit(benchmark::kMillisecond);

// OSNT decode from memory: an OsntReader over the file's bytes (open, index,
// serial read_all); no file I/O inside the loop.
void BM_TraceDeserialize(benchmark::State& state) {
  trace::write_trace_file(cached_ftq_run().trace, kTracePath);
  std::ifstream in(kTracePath, std::ios::binary);
  const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()};
  std::remove(kTracePath);
  for (auto _ : state) {
    trace::OsntReader reader(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(reader.read_all().total_events());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cached_ftq_run().trace.total_events()));
}
BENCHMARK(BM_TraceDeserialize)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
