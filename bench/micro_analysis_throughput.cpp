// Offline-analysis throughput: where the serial analysis spends its time,
// and serial (--jobs 1) vs sharded (--jobs 8) end to end on one generated
// 8-CPU AMG trace.
//
// Stage split: the serial pipeline is re-run from the public stages that
// NoiseAnalysis composes, each timed on its own — kernel scan with its
// gather (scan_cpu_kernel per CPU, collecting the task records), task scan
// (scan_tasks over the gathered records), filter (NoiseFilter::pass per
// shard), reference merge (merge_shards of the survivors), stats reduce
// (ShardPass::add_stats) — followed by the summary render (summary_json).
// Each stage also reports its minor page faults (ru_minflt), with glibc's
// mmap threshold pinned as perfbench pins it. The composed result must
// equal NoiseAnalysis's, so the split measures the real pipeline.
//
// Live sinks: the same trace's merged record stream fed through the two
// consumers of the shared interval scanner that never hold the trace —
// StreamingStats::consume (the live per-activity tables of `osn-analyze
// run`) and IndexAggregator::on_record with take_chunk every 4096 records
// (the v3 writer's pre-aggregates). Both sinks' activity rows must equal
// NoiseAnalysis's.
//
// Serial vs sharded: the work `osn-analyze stats` + `breakdown` do after
// the trace is loaded. The determinism contract is checked alongside the
// timing: both modes must render byte-identical stats tables, breakdowns,
// summaries and Paraver exports. The >= 2x speedup criterion applies when
// the host has cores to shard onto (hardware_concurrency >= 4).
//
// Every figure is the median of alternating repetitions with its min..max
// spread. A failed identity check exits 1. OSN_BENCH_SMOKE=1 (the ctest
// smoke run) analyses a 1 s AMG run instead of the cached 12 s one, runs
// each measurement once and skips the timing criterion; the identity checks
// still bind.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "export/json.hpp"
#include "export/paraver.hpp"
#include "noise/index_aggregate.hpp"
#include "noise/streaming.hpp"
#include "trace/chunk_aggregate.hpp"

namespace {

using namespace osn;

bool smoke_run() {
  const char* v = std::getenv("OSN_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median and range of one measured quantity.
struct Spread {
  std::vector<double> samples;

  void add(double v) { samples.push_back(v); }
  double median() const {
    std::vector<double> s = samples;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 == 1 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2;
  }
  std::string render() const {
    const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
    return fmt_fixed(median(), 2) + " ms (" + fmt_fixed(*lo, 2) + ".." + fmt_fixed(*hi, 2) +
           ")";
  }
};

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

std::string stats_table(const noise::NoiseAnalysis& analysis) {
  TextTable table({"activity", "freq(ev/sec)", "avg(nsec)", "max(nsec)", "min(nsec)"});
  for (int k = 0; k < static_cast<int>(noise::ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<noise::ActivityKind>(k);
    const noise::EventStats s = analysis.activity_stats(kind);
    if (s.count == 0) continue;
    table.add_row({std::string(noise::activity_name(kind)), fmt_fixed(s.freq_ev_per_sec, 1),
                   with_commas(static_cast<std::uint64_t>(s.avg_ns)),
                   with_commas(s.max_ns), with_commas(s.min_ns)});
  }
  return table.render();
}

noise::AnalysisOptions with_jobs(std::size_t jobs) {
  noise::AnalysisOptions opts;
  opts.jobs = jobs;
  return opts;
}

// ---- stage split -----------------------------------------------------------

enum Stage {
  kKernelScan, kTaskScan, kFilter, kMerge, kStatsReduce, kSummaryRender, kStages
};
constexpr std::array<const char*, kStages> kStageNames = {
    "kernel scan + gather", "task scan", "filter", "reference merge", "stats reduce",
    "summary render"};

/// One serial pass through the stages; adds each stage's wall time to
/// `spreads` and its minor faults to `faults`, and returns whether the
/// composed result equals `reference` (a jobs = 1 NoiseAnalysis of the same
/// model).
bool run_stages(const trace::TraceModel& model, const noise::NoiseAnalysis& reference,
                std::array<Spread, kStages>& spreads, std::array<Spread, kStages>& faults) {
  std::array<double, kStages + 1> t{};
  std::array<long, kStages + 1> f{};
  const auto mark = [&](std::size_t i) {
    f[i] = minor_faults();
    t[i] = now_ms();
  };
  mark(0);
  noise::IntervalSet set;
  set.kernel_by_cpu.resize(model.cpu_count());
  std::vector<noise::TaskRecords> task_records(model.cpu_count());
  for (CpuId cpu = 0; cpu < model.cpu_count(); ++cpu)
    set.kernel_by_cpu[cpu] = noise::scan_cpu_kernel(model, cpu, &task_records[cpu]);
  mark(1);
  noise::scan_tasks(model, task_records, set);
  mark(2);
  const noise::NoiseFilter filter(model, set.comm, reference.options());
  std::vector<noise::ShardPass> passes;
  for (const auto& shard : set.kernel_by_cpu) passes.push_back(filter.pass(shard));
  passes.push_back(filter.pass(set.preemption));
  mark(3);
  std::vector<noise::ShardView> survivors;
  for (std::size_t s = 0; s < passes.size(); ++s)
    survivors.push_back(noise::ShardView{
        s < set.kernel_by_cpu.size() ? &set.kernel_by_cpu[s] : &set.preemption, &passes[s].keep});
  const std::vector<const noise::Interval*> refs = noise::merge_shards(survivors);
  mark(4);
  noise::ShardPass totals;
  for (const noise::ShardPass& pass : passes) totals.add_stats(pass);
  mark(5);
  const std::string summary = exporter::summary_json(reference);
  mark(6);
  for (std::size_t s = 0; s < kStages; ++s) {
    spreads[s].add(t[s + 1] - t[s]);
    faults[s].add(static_cast<double>(f[s + 1] - f[s]));
  }

  const noise::IntervalRefs noise(refs);
  bool same = noise == reference.noise_intervals() &&
              totals.ranks == reference.rank_breakdowns() && !summary.empty() &&
              set.preemption == reference.intervals().preemption &&
              set.kernel_by_cpu == reference.intervals().kernel_by_cpu;
  for (std::size_t k = 0; k < totals.kinds.size(); ++k) {
    const noise::EventStats a =
        noise::to_stats(totals.kinds[k], model.duration(), model.cpu_count());
    const noise::EventStats b = reference.activity_stats(static_cast<noise::ActivityKind>(k));
    same = same && a.count == b.count && a.avg_ns == b.avg_ns && a.max_ns == b.max_ns &&
           a.min_ns == b.min_ns;
  }
  return same;
}

// ---- live sinks ------------------------------------------------------------

enum LiveSink { kStreaming, kAggregator, kLiveSinks };
constexpr std::array<const char*, kLiveSinks> kLiveSinkNames = {
    "StreamingStats::consume", "IndexAggregator::on_record"};
constexpr std::size_t kChunkRecords = 4096;

bool same_stats(const noise::EventStats& a, const noise::EventStats& b) {
  return a.count == b.count && a.freq_ev_per_sec == b.freq_ev_per_sec && a.avg_ns == b.avg_ns &&
         a.max_ns == b.max_ns && a.min_ns == b.min_ns;
}

/// Feeds the merged stream through both live sinks, adding each one's wall
/// time to `spreads`, and returns whether their activity rows equal
/// `reference`'s (StreamingStats has no preemption row).
bool run_live_sinks(const trace::TraceModel& model,
                    const std::vector<tracebuf::EventRecord>& merged,
                    const noise::NoiseAnalysis& reference,
                    std::array<Spread, kLiveSinks>& spreads) {
  const double t0 = now_ms();
  noise::StreamingStats live;
  for (const auto& rec : merged) live.consume(rec);
  const double t1 = now_ms();
  noise::IndexAggregator agg;
  std::vector<trace::ChunkAggregate> chunks;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    agg.on_record(merged[i]);
    if ((i + 1) % kChunkRecords == 0) chunks.push_back(agg.take_chunk());
  }
  const std::optional<trace::ChunkAggregate> tail = agg.take_tail(model.meta());
  const double t2 = now_ms();
  spreads[kStreaming].add(t1 - t0);
  spreads[kAggregator].add(t2 - t1);
  if (!tail) return false;

  // The index rows, as the index-only summary reads them: preemption is
  // kept per task and summed over the application ranks.
  trace::ChunkAggregate total = *tail;
  for (const trace::ChunkAggregate& chunk : chunks) trace::merge_aggregate(total, chunk);
  noise::ActivityAccumArray rows{};
  for (const auto& c : total.classes)
    if (c.cls < rows.size()) rows[c.cls].merge(c.acc);
  const auto pre = static_cast<std::size_t>(noise::ActivityKind::kPreemption);
  for (const auto& p : total.preempt)
    if (model.is_app(static_cast<Pid>(p.task))) rows[pre].merge(p.acc);

  bool same = live.open_frames() == 0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const auto kind = static_cast<noise::ActivityKind>(k);
    const noise::EventStats want = reference.activity_stats(kind);
    same = same && same_stats(noise::to_stats(rows[k], model.duration(), model.cpu_count()), want);
    if (k != pre)
      same = same && same_stats(live.activity_stats(kind, model.duration(), model.cpu_count()),
                                want);
  }
  return same;
}

// ---- serial vs sharded -----------------------------------------------------

struct RunOutput {
  std::string table;
  noise::CategoryBreakdown breakdown{};
  std::size_t noise_count = 0;
  std::string summary;
};

/// One full analysis pass plus its outputs; returns wall time in ms.
double run_once(const trace::TraceModel& model, std::size_t jobs, RunOutput& out) {
  const double t0 = now_ms();
  const noise::NoiseAnalysis analysis(model, with_jobs(jobs));
  out.table = stats_table(analysis);
  out.breakdown = analysis.category_breakdown_all();
  out.noise_count = analysis.noise_intervals().size();
  const double t1 = now_ms();
  out.summary = exporter::summary_json(analysis);
  return t1 - t0;
}

}  // namespace

int main() {
  // perfbench's allocator setting: blocks above 128 KiB come from fresh
  // mappings, so the minflt column counts what a report process pays.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  bench::print_header("micro_analysis_throughput",
                      "analysis stage split; serial vs sharded (--jobs 1 vs --jobs 8)");

  const bool smoke = smoke_run();
  trace::TraceModel model;
  if (smoke) {
    workloads::SequoiaWorkload wl(workloads::SequoiaApp::kAmg, sec(1));
    model = workloads::run_workload(wl, bench::bench_seed()).trace;
  } else {
    model = bench::sequoia_trace(workloads::SequoiaApp::kAmg);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("trace: %u CPUs, %zu events, %s; host: %u hardware threads%s\n\n",
              static_cast<unsigned>(model.cpu_count()), model.total_events(),
              fmt_duration(model.duration()).c_str(), hw, smoke ? " (smoke run)" : "");

  const int reps = smoke ? 1 : 9;
  bool identical = true;  // every identity check; any miss exits 1
  const auto require = [&](bool ok, const std::string& what) {
    identical = bench::check(ok, what) && identical;
  };

  // ---- stage split of the serial pipeline ----
  {
    const noise::NoiseAnalysis reference(model, with_jobs(1));
    std::array<Spread, kStages> stages, stage_faults;
    Spread whole, whole_faults;
    bool stages_match = true;
    for (int rep = 0; rep < reps; ++rep) {
      stages_match = run_stages(model, reference, stages, stage_faults) && stages_match;
      const long f0 = minor_faults();
      const double t0 = now_ms();
      const noise::NoiseAnalysis analysis(model, with_jobs(1));
      whole.add(now_ms() - t0);
      whole_faults.add(static_cast<double>(minor_faults() - f0));
    }
    TextTable table({"stage (--jobs 1)", "median (min..max)", "minflt"});
    double sum = 0;
    for (std::size_t s = 0; s < kStages; ++s) {
      table.add_row({kStageNames[s], stages[s].render(), fmt_fixed(stage_faults[s].median(), 0)});
      if (s != kSummaryRender) sum += stages[s].median();
    }
    table.add_row({"NoiseAnalysis, --jobs 1", whole.render(), fmt_fixed(whole_faults.median(), 0)});
    std::printf("%s\nanalysis stages sum to %.2f ms of the %.2f ms NoiseAnalysis\n\n",
                table.render().c_str(), sum, whole.median());
    require(stages_match, "stage-by-stage pipeline equals NoiseAnalysis");
  }

  // ---- live sinks over the merged stream ----
  {
    const noise::NoiseAnalysis reference(model, with_jobs(1));
    const std::vector<tracebuf::EventRecord> merged = model.merged();
    std::array<Spread, kLiveSinks> sinks;
    bool sinks_match = true;
    for (int rep = 0; rep < reps; ++rep)
      sinks_match = run_live_sinks(model, merged, reference, sinks) && sinks_match;
    TextTable table({"live sink", "median (min..max)", "ns/record"});
    const double records = static_cast<double>(merged.size());
    for (std::size_t s = 0; s < kLiveSinks; ++s)
      table.add_row({kLiveSinkNames[s], sinks[s].render(),
                     fmt_fixed(sinks[s].median() * 1e6 / records, 1)});
    std::printf("%s\n", table.render().c_str());
    require(sinks_match, "StreamingStats and IndexAggregator rows equal NoiseAnalysis");
  }

  // ---- serial vs sharded, alternating ----
  constexpr std::size_t kParallelJobs = 8;
  Spread serial, parallel;
  RunOutput serial_out, parallel_out;
  for (int rep = 0; rep < reps; ++rep) {
    serial.add(run_once(model, 1, serial_out));
    parallel.add(run_once(model, kParallelJobs, parallel_out));
  }
  const double events = static_cast<double>(model.total_events());
  const double speedup = serial.median() / parallel.median();
  TextTable table({"mode", "median (min..max)", "events/sec"});
  table.add_row({"--jobs 1 (serial)", serial.render(),
                 fmt_fixed(events / serial.median() / 1e3, 1) + " M"});
  table.add_row({"--jobs 8 (sharded)", parallel.render(),
                 fmt_fixed(events / parallel.median() / 1e3, 1) + " M"});
  std::printf("%s\nspeedup: %.2fx (medians of %d alternating runs)\n\n", table.render().c_str(),
              speedup, reps);

  // Determinism contract: byte-identical outputs across modes.
  require(serial_out.table == parallel_out.table,
          "stats tables byte-identical across --jobs settings");
  require(serial_out.breakdown == parallel_out.breakdown &&
              serial_out.noise_count == parallel_out.noise_count,
          "noise breakdown and interval count identical across --jobs settings");
  require(serial_out.summary == parallel_out.summary,
          "summary documents byte-identical across --jobs settings");
  {
    const noise::NoiseAnalysis a(model, with_jobs(1)), b(model, with_jobs(kParallelJobs));
    const auto pa = exporter::export_paraver(a);
    const auto pb = exporter::export_paraver(b);
    require(pa.prv == pb.prv && pa.pcf == pb.pcf && pa.row == pb.row,
            "Paraver .prv/.pcf/.row byte-identical across --jobs settings");
  }

  if (smoke) {
    std::printf("note: smoke run — the >= 2x timing criterion is not evaluated.\n");
  } else if (hw >= 4) {
    bench::check(speedup >= 2.0, "sharded analysis >= 2x serial on this host");
  } else {
    std::printf("note: host has %u hardware thread(s); the >= 2x criterion needs >= 4\n"
                "      (shards serialize on one core — identity checks above still bind).\n",
                hw);
  }
  return identical ? 0 : 1;
}
