// Report render cost: the four planner documents (summary, chart,
// timeseries, topk) rendered from one analysis of a seeded 6 s AMG run, as
// perfbench's trace-to-report renders them at a 1 ms quantum. Each row is
// one document: building its data from the analysis (build_chart,
// build_activity_series, top_noisy_cpus, summary_data) plus the JSON text.
//
// Counters: CPU time of the process per render, and `minflt`, the minor
// page faults per render (ru_minflt). glibc's mmap threshold is pinned as
// perfbench pins it, so a large document's buffer comes from a fresh
// mapping and `minflt` counts the pages the render writes.
// OSN_BENCH_SMOKE=1 renders a 1 s run instead (the ctest smoke run).
#include <benchmark/benchmark.h>
#include <malloc.h>
#include <sys/resource.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "export/json.hpp"
#include "noise/analysis.hpp"
#include "noise/chart.hpp"
#include "query/plan.hpp"
#include "workloads/sequoia.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace osn;

constexpr DurNs kQuantum = kNsPerMs;
constexpr std::uint64_t kSeed = 1;

bool smoke_run() {
  const char* v = std::getenv("OSN_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// The analysed trace, built once for every row.
struct Report {
  trace::TraceModel model;
  std::unique_ptr<noise::NoiseAnalysis> analysis;
  Pid task = 0;
  std::size_t buckets = 0;
};

const Report& report() {
  static const Report* r = [] {
    auto* out = new Report;
    workloads::SequoiaWorkload amg(workloads::SequoiaApp::kAmg, sec(smoke_run() ? 1 : 6));
    out->model = workloads::run_workload(amg, kSeed).trace;
    out->analysis = std::make_unique<noise::NoiseAnalysis>(out->model);
    out->task = out->model.app_pids().front();
    out->buckets = query::chart_buckets(out->model.duration(), kQuantum);
    return out;
  }();
  return *r;
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// Renders `render()` per iteration, counting its bytes and page faults.
template <class Render>
void run_render(benchmark::State& state, Render render) {
  long faults = 0;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const long f0 = minor_faults();
    const std::string doc = render();
    faults += minor_faults() - f0;
    bytes += static_cast<std::int64_t>(doc.size());
    benchmark::DoNotOptimize(doc.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(bytes);
  state.counters["minflt"] =
      benchmark::Counter(static_cast<double>(faults), benchmark::Counter::kAvgIterations);
}

void BM_RenderSummary(benchmark::State& state) {
  const Report& r = report();
  run_render(state, [&r] { return exporter::summary_json(*r.analysis); });
}
BENCHMARK(BM_RenderSummary)->MeasureProcessCPUTime()->Unit(benchmark::kMillisecond);

void BM_RenderChart(benchmark::State& state) {
  const Report& r = report();
  run_render(state, [&r] {
    return exporter::chart_json(noise::build_chart(*r.analysis, r.task, 0, kQuantum, r.buckets),
                                r.model.task_name(r.task));
  });
}
BENCHMARK(BM_RenderChart)->MeasureProcessCPUTime()->Unit(benchmark::kMillisecond);

void BM_RenderTimeseries(benchmark::State& state) {
  const Report& r = report();
  run_render(state, [&r] {
    return exporter::timeseries_json(noise::build_activity_series(
        *r.analysis, noise::ActivityKind::kMaxKind, r.model.meta().start_ns, kQuantum,
        r.buckets));
  });
}
BENCHMARK(BM_RenderTimeseries)->MeasureProcessCPUTime()->Unit(benchmark::kMillisecond);

void BM_RenderTopK(benchmark::State& state) {
  const Report& r = report();
  run_render(state,
             [&r] { return exporter::topk_json(noise::top_noisy_cpus(*r.analysis, 5), 5); });
}
BENCHMARK(BM_RenderTopK)->MeasureProcessCPUTime()->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  report();  // built before the first row is timed
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
