// trace-to-report: the paper's workflow as one closed-loop batch.
//
// Each iteration takes a seeded AMG run (6 simulated seconds by default,
// 8 CPUs, 100 Hz tick) through the live consumer drain into an OSNT v3 file
// with IndexAggregator pre-aggregates (exactly `osn-analyze run amg
// --seconds 6`), then cold-opens, decodes, analyses and renders the report
// set (stats, breakdown, chart, timeseries, topk, summary) at jobs = nproc
// and again at jobs = 1. The EXPERIMENTS.md reference configuration is 12
// simulated seconds (--amg-seconds 12), but there the simulator aborts on
// about half of all seeds; at 6 s no seed of 1..1000 aborts.
//
// The simulated run happens in a forked child: an OSN_ASSERT abort in the
// simulator is counted as a failed operation and the loop goes on with the
// next seed. Iteration i uses AMG seed `workload seed + i mod kSeedCycle`,
// so every seed recurs and its reports are compared byte for byte.
//
// The gated figures are CPU times: the trace child's (simulation, drain
// and writer threads) and the jobs = 1 report's. Wall times are reported
// beside them.
#include <memory>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "export/ascii.hpp"
#include "export/index_summary.hpp"
#include "export/json.hpp"
#include "noise/analysis.hpp"
#include "noise/chart.hpp"
#include "noise/index_aggregate.hpp"
#include "noise/streaming.hpp"
#include "query/engine.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "workloads/sequoia.hpp"

namespace osn::bench {
namespace {

constexpr std::uint64_t kSeedCycle = 8;
constexpr DurNs kReportQuantum = kNsPerMs;

/// What the forked trace child reports back (fixed layout, then spans).
struct ChildStats {
  DurNs trace_ns = 0;     ///< seed -> sealed v3 file
  DurNs trace_cpu_ns = 0; ///< the same, CPU time of every thread of the child
  DurNs live_ns = 0;      ///< run_workload_live
  DurNs finish_ns = 0;    ///< OsntStreamWriter::finish
  DurNs append_ns = 0;    ///< summed append() time (traced runs only)
  DurNs streaming_ns = 0; ///< summed StreamingStats::consume time (traced)
  DurNs offline_ns = 0;   ///< run_workload, no drain (traced runs only)
  std::uint64_t offline_events = 0;
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  trace::DrainStats drain;
  std::uint64_t n_spans = 0;
};

/// The per-activity table `osn-analyze stats` prints, one row per observed
/// activity.
std::string stats_table(const noise::NoiseAnalysis& analysis) {
  TextTable table({"activity", "freq(ev/sec)", "avg(nsec)", "max(nsec)", "min(nsec)"});
  for (int k = 0; k < static_cast<int>(noise::ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<noise::ActivityKind>(k);
    const noise::EventStats s = analysis.activity_stats(kind);
    if (s.count == 0) continue;
    table.add_row({std::string(noise::activity_name(kind)), fmt_fixed(s.freq_ev_per_sec, 1),
                   with_commas(static_cast<std::uint64_t>(s.avg_ns)), with_commas(s.max_ns),
                   with_commas(s.min_ns)});
  }
  return table.render();
}

/// The rendered report set in `osn-analyze` order: stats, breakdown, chart,
/// timeseries, topk, summary. One NoiseAnalysis feeds every document, as a
/// user rendering a report would.
std::string render_report(const noise::NoiseAnalysis& analysis) {
  const trace::TraceModel& model = analysis.model();
  std::string out = stats_table(analysis);
  out += exporter::render_breakdown_row(model.meta().workload, analysis.category_breakdown_all());
  const auto apps = model.app_pids();
  if (!apps.empty()) {
    const std::size_t n = query::chart_buckets(model.duration(), kReportQuantum);
    out += exporter::chart_json(noise::build_chart(analysis, apps.front(), 0, kReportQuantum, n),
                                model.task_name(apps.front()));
    out += exporter::timeseries_json(noise::build_activity_series(
        analysis, noise::ActivityKind::kMaxKind, model.meta().start_ns, kReportQuantum, n));
  }
  out += exporter::topk_json(noise::top_noisy_cpus(analysis, 5), 5);
  out += exporter::summary_json(analysis);
  return out;
}

class TraceToReport final : public Workload {
 public:
  TraceToReport(const Options& o, Tracer& t)
      : o_(o), t_(t), sim_duration_(static_cast<DurNs>(o.amg_seconds * 1e9)) {}

  /// Set-up: scratch directory plus a warmup pass (a 1 s AMG run traced and
  /// reported once, untimed by the loop) so the first measured iteration
  /// does not pay cold page-cache and allocator costs. The warmup run is
  /// forked like the measured ones; an abort counts as one failed operation.
  void setup() override {
    dir_ = o_.work_dir + "/trace-to-report";
    fresh_dir(dir_);
    const std::string path = dir_ + "/warmup.osnt";
    warmup_failed_ =
        build_trace_isolated(static_cast<std::size_t>(workloads::SequoiaApp::kAmg), sec(1),
                             o_.seed, path) == 0;
    if (warmup_failed_) return;
    trace::OsntReader reader(path);
    const trace::TraceModel model = reader.read_all();
    const noise::NoiseAnalysis analysis(model, {});
    render_report(analysis);
  }

  void measure(double seconds, Result& r) override {
    if (!counted_warmup_) {
      ++r.attempted;
      r.failed += warmup_failed_ ? 1 : 0;
      counted_warmup_ = true;
      if (warmup_failed_) r.note("the set-up warmup run (AMG 1 s) aborted");
    }
    Samples trace_s, report_s, serial_s, events_per_s, serial_cpu_ms, events_per_cpu_s;
    Samples live_ms, finish_ms, append_ms, streaming_ms, offline_ms, sim_rate;
    Samples decode_ms, decode_serial_ms, decode_mbps, analysis_ms, analysis_serial_ms, render_ms;
    Samples fast_path_ms, bytes_per_event, drain_records, drain_batches, mean_batch, stalls;
    std::uint64_t lost = 0;
    std::map<std::uint64_t, std::uint64_t> report_of_seed;  // seed -> report hash
    std::uint64_t aborted = 0;
    std::string aborted_seeds;
    std::string first_abort;  // the simulator's message for the first failure

    const TimeNs stop = now_ns() + static_cast<DurNs>(seconds * 1e9);
    for (std::uint64_t i = 0; now_ns() < stop; ++i) {
      const std::uint64_t seed = o_.seed + i % kSeedCycle;
      const std::string path = dir_ + "/amg-" + std::to_string(i % 2) + ".osnt";
      // Unlinked rather than truncated by the writer: ext4 flushes a file
      // rewritten after a truncate to disk on close, which would put disk
      // writes (and, with online discard, block discards) into trace_s.
      remove_tree(path);
      ++r.attempted;

      // ---- trace: seed -> sealed v3 file, isolated in a child process ----
      const std::uint64_t op = t_.begin("bench.op.trace", i + 1);
      const Isolated child =
          run_isolated([&] { return trace_child(seed, path, op, (i + 1) << 40); });
      ChildStats cs;
      std::size_t pos = 0;
      if (!child.ok || !get_pod(child.payload, pos, cs)) {
        t_.end(op, "bench.failed.trace");
        ++aborted;
        ++r.failed;
        aborted_seeds += (aborted_seeds.empty() ? "" : ",") + std::to_string(seed);
        if (first_abort.empty()) first_abort = child.diagnostic;
        continue;
      }
      t_.end(op);
      std::vector<Span> spans(cs.n_spans);
      for (Span& s : spans) get_pod(child.payload, pos, s);
      t_.import(spans);

      trace_s.add(to_s(cs.trace_ns));
      events_per_s.add(static_cast<double>(cs.events) / to_s(cs.trace_ns));
      events_per_cpu_s.add(static_cast<double>(cs.events) / to_s(cs.trace_cpu_ns));
      live_ms.add(to_ms(cs.live_ns));
      finish_ms.add(to_ms(cs.finish_ns));
      if (t_.on()) {
        append_ms.add(to_ms(cs.append_ns));
        streaming_ms.add(to_ms(cs.streaming_ns));
        offline_ms.add(to_ms(cs.offline_ns));
        sim_rate.add(static_cast<double>(cs.offline_events) / to_s(cs.offline_ns));
      }
      bytes_per_event.add(static_cast<double>(cs.bytes) / static_cast<double>(cs.events));
      drain_records.add(static_cast<double>(cs.drain.records));
      drain_batches.add(static_cast<double>(cs.drain.batches));
      mean_batch.add(static_cast<double>(cs.drain.records) /
                     static_cast<double>(std::max<std::uint64_t>(cs.drain.batches, 1)));
      stalls.add(static_cast<double>(cs.drain.producer_stalls));
      lost += cs.drain.lost;
      r.check(cs.drain.lost == 0, "tracebuf.lost == 0 (seed " + std::to_string(seed) + ")");

      // ---- report at jobs = nproc, then the jobs = 1 baseline ----
      const Report par = report(path, o_.nproc, i + 1, "bench.op.report");
      const Report ser = report(path, 1, i + 1, "bench.op.report_serial");
      report_s.add(to_s(par.total_ns));
      serial_s.add(to_s(ser.total_ns));
      serial_cpu_ms.add(to_ms(ser.total_cpu_ns));
      decode_ms.add(to_ms(par.decode_ns));
      decode_serial_ms.add(to_ms(ser.decode_ns));
      decode_mbps.add(static_cast<double>(cs.bytes) / 1e6 / to_s(par.decode_ns));
      analysis_ms.add(to_ms(par.analysis_ns));
      analysis_serial_ms.add(to_ms(ser.analysis_ns));
      render_ms.add(to_ms(par.render_ns));

      // ---- output checks ----
      r.check(par.docs == ser.docs,
              "report set byte-identical at jobs=1 and jobs=nproc (seed " +
                  std::to_string(seed) + ")");
      const std::uint64_t h = fnv1a(par.docs);
      auto [it, first] = report_of_seed.emplace(seed, h);
      r.check(it->second == h, "report set byte-identical across iterations of seed " +
                                   std::to_string(seed));
      if (first) {
        // Fast path vs record decode: the index-only summary must equal the
        // planner's rendering of the decoded model (once per seed; this is
        // a second full analysis, kept out of the timed report).
        trace::OsntReader reader(path);
        const TimeNs f0 = now_ns();
        const std::optional<std::string> fast = exporter::index_summary_json(reader);
        fast_path_ms.add(to_ms(now_ns() - f0));
        const trace::TraceModel model = reader.read_all();
        r.check(fast.has_value() && *fast == query::render_plan(model, query::Plan{}),
                "index fast-path summary equals render_plan on the decoded model (seed " +
                    std::to_string(seed) + ")");
      }
    }

    const std::size_t n = trace_s.size();
    r.check(n > 0, "at least one trace-to-report iteration completed");
    r.primary = 1e3 / events_per_cpu_s.median() + serial_cpu_ms.median();
    r.set("p50_cpu_ms", serial_cpu_ms.median(), "ms", n);
    r.set("throughput_per_cpu_s", events_per_cpu_s.median(), "1/s", n);
    r.note("trace_s = " + fmt(trace_s.median()) + " s (median, n=" + std::to_string(n) + ")");
    r.note("report_s = " + fmt(report_s.median()) + " s (median, jobs=" +
           std::to_string(o_.nproc) + ", n=" + std::to_string(n) + ")");
    r.note("report_serial_s = " + fmt(serial_s.median()) + " s (median, jobs=1, n=" +
           std::to_string(n) + ")");
    r.note("traced events per second = " + fmt(events_per_s.median(), 0) + " 1/s wall, " +
           fmt(events_per_cpu_s.median(), 0) + " 1/s of CPU time (medians, n=" +
           std::to_string(n) + ")");
    r.note("report_serial CPU time = " + fmt(serial_cpu_ms.median(), 2) + " ms (median, n=" +
           std::to_string(n) + ")");
    r.note("aborted simulated runs: " + std::to_string(aborted) + " of " +
           std::to_string(r.attempted) +
           (aborted_seeds.empty() ? "" : " (AMG seeds " + aborted_seeds + ")"));
    for (std::size_t at = 0, nl = 0; at < first_abort.size(); at = nl + 1) {
      nl = first_abort.find('\n', at);
      if (nl == std::string::npos) nl = first_abort.size();
      if (nl > at) r.note("  " + first_abort.substr(at, nl - at));
    }

    r.set("sim.offline_run_ms", offline_ms.median(), "ms", offline_ms.size());
    r.set("sim.events_per_s", sim_rate.median(), "1/s", sim_rate.size());
    r.set("workloads.live_run_ms", live_ms.median(), "ms", n);
    r.set("tracebuf.records", drain_records.median(), "count");
    r.set("tracebuf.batches", drain_batches.median(), "count");
    r.set("tracebuf.mean_batch", mean_batch.median(), "count");
    r.set("tracebuf.lost", static_cast<double>(lost), "count");
    r.set("tracebuf.producer_stalls", stalls.median(), "count");
    r.set("trace.append_ms", append_ms.median(), "ms", append_ms.size());
    r.set("trace.finish_ms", finish_ms.median(), "ms", n);
    r.set("trace.bytes_per_event", bytes_per_event.median(), "B");
    r.set("noise.streaming_ms", streaming_ms.median(), "ms", streaming_ms.size());
    r.set("trace.decode_ms", decode_ms.median(), "ms", n);
    r.set("trace.decode_serial_ms", decode_serial_ms.median(), "ms", n);
    r.set("trace.decode_mb_per_s", decode_mbps.median(), "MB/s", n);
    r.set("noise.analysis_ms", analysis_ms.median(), "ms", n);
    r.set("noise.analysis_serial_ms", analysis_serial_ms.median(), "ms", n);
    r.set("export.render_ms", render_ms.median(), "ms", n);
    r.set("query.fast_path_summary_ms", fast_path_ms.median(), "ms", fast_path_ms.size());
  }

  void teardown() override { remove_tree(dir_); }

 private:
  struct Report {
    DurNs total_ns = 0;
    DurNs total_cpu_ns = 0;  ///< every thread's CPU time over total_ns
    DurNs decode_ns = 0;
    DurNs analysis_ns = 0;
    DurNs render_ns = 0;
    std::string docs;
  };

  /// Runs in the forked child: one live-drained AMG run into a v3 file.
  std::string trace_child(std::uint64_t seed, const std::string& path, std::uint64_t parent,
                          std::uint64_t id_base) {
    t_.rebase_ids(id_base);
    const std::size_t mark = t_.size();
    ChildStats cs;
    noise::StreamingStats live;
    CallTotals appends, consumes;
    const DurNs c0 = process_cpu_ns();
    const TimeNs t0 = now_ns();
    std::uint64_t writer_span = t_.begin("trace.open_writer");
    trace::OsntStreamWriter writer(path);
    writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
    t_.end(writer_span);
    const bool traced = t_.on();
    workloads::LiveOptions lopts;
    lopts.on_record = [&](const tracebuf::EventRecord& rec) {
      if (!traced) {
        writer.append(rec);
        live.consume(rec);
        return;
      }
      const TimeNs a = now_ns();
      writer.append(rec);
      const TimeNs b = now_ns();
      live.consume(rec);
      const TimeNs c = now_ns();
      appends.add(a, b);
      consumes.add(b, c);
    };
    const std::uint64_t live_span = t_.begin("workloads.live_run", seed);
    workloads::SequoiaWorkload amg(workloads::SequoiaApp::kAmg, sim_duration_);
    const workloads::LiveRunResult run = workloads::run_workload_live(amg, seed, lopts);
    t_.end(live_span);
    const TimeNs t1 = now_ns();
    {
      Scope s(t_, "trace.finish");
      if (!writer.finish(run.meta, run.tasks)) throw std::runtime_error("finish failed");
    }
    const TimeNs t2 = now_ns();
    cs.trace_cpu_ns = process_cpu_ns() - c0;
    cs.trace_ns = t2 - t0;
    cs.live_ns = t1 - t0;
    cs.finish_ns = t2 - t1;
    cs.append_ns = appends.total;
    cs.streaming_ns = consumes.total;
    cs.events = writer.records_written();
    cs.bytes = writer.bytes_written();
    cs.drain = run.meta.drain;
    if (traced) {
      t_.add("trace.append", appends.first, appends.first + appends.total, live_span, seed,
             appends.calls);
      t_.add("noise.streaming", consumes.first, consumes.first + consumes.total, live_span, seed,
             consumes.calls);
      // The simulator alone (no drain, no writer) on the same seed.
      Scope s(t_, "sim.offline_run", seed);
      workloads::SequoiaWorkload amg_offline(workloads::SequoiaApp::kAmg, sim_duration_);
      const TimeNs o0 = now_ns();
      const workloads::RunResult off = workloads::run_workload(amg_offline, seed);
      cs.offline_ns = now_ns() - o0;
      cs.offline_events = off.engine_events;
    }
    std::vector<Span> spans = t_.spans_since(mark);
    for (Span& s : spans)
      if (s.parent == 0) s.parent = parent;
    cs.n_spans = spans.size();
    std::string out;
    put_pod(out, cs);
    for (const Span& s : spans) put_pod(out, s);
    return out;
  }

  Report report(const std::string& path, unsigned jobs, std::uint64_t req, const char* op_name) {
    Report rep;
    // The decode pool exists before the clock starts: a long-lived reader
    // process keeps one, and fork() must never see its threads.
    std::unique_ptr<ThreadPool> pool = jobs > 1 ? std::make_unique<ThreadPool>(jobs) : nullptr;
    Scope op(t_, op_name, req);
    const DurNs c0 = process_cpu_ns();
    const TimeNs t0 = now_ns();
    std::unique_ptr<trace::OsntReader> reader;
    {
      Scope s(t_, "trace.open", req);
      reader = std::make_unique<trace::OsntReader>(path);
    }
    const TimeNs t1 = now_ns();
    trace::TraceModel model;
    {
      Scope s(t_, "trace.decode", req);
      model = reader->read_all(pool.get());
    }
    const TimeNs t2 = now_ns();
    noise::AnalysisOptions opts;
    opts.jobs = jobs;
    std::unique_ptr<noise::NoiseAnalysis> analysis;
    {
      Scope s(t_, "noise.analysis", req);
      analysis = std::make_unique<noise::NoiseAnalysis>(model, opts);
    }
    const TimeNs t3 = now_ns();
    {
      Scope s(t_, "export.render", req);
      rep.docs = render_report(*analysis);
    }
    const TimeNs t4 = now_ns();
    rep.total_cpu_ns = process_cpu_ns() - c0;
    rep.total_ns = t4 - t0;
    rep.decode_ns = t2 - t1;
    rep.analysis_ns = t3 - t2;
    rep.render_ns = t4 - t3;
    return rep;
  }

  Options o_;
  Tracer& t_;
  DurNs sim_duration_;
  std::string dir_;
  bool warmup_failed_ = false;
  bool counted_warmup_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_trace_to_report(const Options& o, Tracer& t) {
  return std::make_unique<TraceToReport>(o, t);
}

}  // namespace osn::bench
