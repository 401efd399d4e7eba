// osn-analyze — the LTTNG-NOISE offline analysis tool.
//
// The paper's workflow is: instrument statically, trace, analyze offline.
// This command-line tool is the offline half, operating on compact OSNT
// trace files (written by the simulator, the benches, or `osn-analyze run`):
//
//   osn-analyze run <ftq|amg|irs|lammps|sphot|umt> [-o trace.osnt]
//                   [--seconds N] [--seed S]
//   osn-analyze info <trace.osnt>
//   osn-analyze stats <trace.osnt>
//   osn-analyze breakdown <trace.osnt> [--per-rank] [--no-runnable-filter]
//                   [--no-nesting]
//   osn-analyze chart <trace.osnt> [--task PID] [--quantum-us N]
//                   [--min-noise-us N] [--rows N]
//   osn-analyze timeline <trace.osnt> [--category P|T|S|X|I] [--from-ms A]
//                   [--to-ms B] [--width N]
//   osn-analyze interruptions <trace.osnt> [--task PID] [--top N]
//   osn-analyze lookalikes <trace.osnt> [--task PID] [--tolerance PCT]
//   osn-analyze export <trace.osnt> (--paraver BASE | --csv FILE)
//
// Filters ("developers concerned about specific areas can use our
// infrastructure to drill down into any particular area of interest by
// simply applying different filters", §III-A) are the --category/--task
// options.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/format.hpp"
#include "common/table.hpp"
#include "export/ascii.hpp"
#include "export/csv.hpp"
#include "export/json.hpp"
#include "export/paraver.hpp"
#include "monitor/rolling.hpp"
#include "noise/analysis.hpp"
#include "noise/chart.hpp"
#include "noise/disambiguate.hpp"
#include "noise/index_aggregate.hpp"
#include "noise/scalability.hpp"
#include "noise/streaming.hpp"
#include "query/engine.hpp"
#include "serve/client.hpp"
#include "trace/event_source.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "workloads/ftq.hpp"
#include "workloads/sequoia.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace osn;

// ---------------------------------------------------------------------------
// Tiny argument parser: positionals + --flag / --key value options.
// ---------------------------------------------------------------------------
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (!arg.empty() && arg[0] == '-') {
        const std::string key = arg.substr(arg.rfind("--", 0) == 0 ? 2 : 1);
        if (i + 1 < argc && argv[i + 1][0] != '-') {
          options_[key] = argv[++i];
        } else {
          options_[key] = "";
        }
      } else {
        positionals_.push_back(arg);
      }
    }
  }

  bool has(const std::string& key) const { return options_.contains(key); }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = options_.find(key);
    return it == options_.end() || it->second.empty() ? fallback : it->second;
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    auto it = options_.find(key);
    if (it == options_.end() || it->second.empty()) return fallback;
    return static_cast<std::uint64_t>(std::strtoull(it->second.c_str(), nullptr, 10));
  }
  double get_double(const std::string& key, double fallback) const {
    auto it = options_.find(key);
    if (it == options_.end() || it->second.empty()) return fallback;
    return std::strtod(it->second.c_str(), nullptr);
  }
  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positionals_;
};

int usage() {
  std::fprintf(
      stderr,
      "osn-analyze — quantitative OS-noise analysis on OSNT traces\n\n"
      "  osn-analyze run <ftq|amg|irs|lammps|sphot|umt> [-o out.osnt]\n"
      "              [--seconds N] [--seed S] [--offline]\n"
      "              [--buf-capacity N] [--batch N]\n"
      "  osn-analyze info <trace.osnt>\n"
      "  osn-analyze verify <trace.osnt>\n"
      "  osn-analyze stats <trace.osnt>\n"
      "  osn-analyze breakdown <trace.osnt> [--per-rank] [--no-runnable-filter]\n"
      "              [--no-nesting]\n"
      "  osn-analyze chart <trace.osnt> [--task PID] [--quantum-us N]\n"
      "              [--min-noise-us N] [--rows N]\n"
      "  osn-analyze timeline <trace.osnt> [--category P|T|S|X|I] [--from-ms A]\n"
      "              [--to-ms B] [--width N]\n"
      "  osn-analyze interruptions <trace.osnt> [--task PID] [--top N]\n"
      "  osn-analyze lookalikes <trace.osnt> [--task PID] [--tolerance PCT]\n"
      "  osn-analyze summary <trace.osnt> [--window A:B] [--cpu N]\n"
      "  osn-analyze timeseries <trace.osnt> [--activity NAME] [--quantum-us N]\n"
      "              [--window A:B] [--cpu N]\n"
      "  osn-analyze topk <trace.osnt> [--k N] [--window A:B] [--cpu N]\n"
      "  osn-analyze export <trace.osnt> (--paraver BASE | --csv FILE |\n"
      "              --json FILE)\n"
      "  osn-analyze query <list|info|summary|chart|window|timeseries|topk|\n"
      "              refresh|alerts|monitor_status|metrics|ping> [trace]\n"
      "              --port N [--host H] [--window A:B]\n"
      "              [--task PID] [--quantum-us N] [--cpu N] [--activity NAME]\n"
      "              [--k N] [--deadline-ms N] [--stall-ms N]\n"
      "              [--wire json|binary]\n"
      "  osn-analyze monitor <status|alerts|refresh> --port N [--host H]\n"
      "              [--wire json|binary]\n"
      "  osn-analyze rolling <store-dir> [summary|timeseries|topk]\n"
      "              [--window A:B] [--cpu N] [--activity NAME] [--k N]\n"
      "              [--quantum-us N]\n"
      "  osn-analyze diff <a.osnt> <b.osnt>\n"
      "  osn-analyze scalability <trace.osnt> [--granularity-us N]\n"
      "              [--ranks N,N,...]\n\n"
      "Analysis commands accept --jobs N: worker threads for the sharded\n"
      "per-CPU pipeline and the chunk-parallel v3 decode (default: all\n"
      "hardware threads; --jobs 1 runs the serial reference path — both\n"
      "produce byte-identical output). They also accept --window A:B\n"
      "(milliseconds): analyze only that time slice — for chunk-indexed v3\n"
      "traces only the overlapping chunks are read from disk — and\n"
      "--io mmap|pread: decode straight out of a read-only mapping (default,\n"
      "falls back to pread when mmap fails) or force positioned reads.\n");
  return 2;
}

const std::string& trace_path(const Args& args) {
  if (args.positionals().empty()) {
    std::fprintf(stderr, "error: missing trace file\n");
    std::exit(usage());
  }
  return args.positionals()[0];
}

/// Worker pool shared by the v3 chunk decode and the sharded analysis
/// (nullptr when --jobs resolves to 1).
std::unique_ptr<ThreadPool> decode_pool(const Args& args) {
  const std::size_t jobs =
      ThreadPool::resolve_jobs(static_cast<std::size_t>(args.get_u64("jobs", 0)));
  return jobs > 1 ? std::make_unique<ThreadPool>(jobs) : nullptr;
}

/// Strict `A:B` in milliseconds, shared by every --window: each half must
/// be a whole finite number ("10x:20" is malformed, not 10:20).
std::optional<std::pair<double, double>> parse_ms_pair(const std::string& text) {
  const std::size_t colon = text.find(':');
  char* end = nullptr;
  const double a = std::strtod(text.c_str(), &end);
  if (colon == std::string::npos || colon == 0 || end != text.c_str() + colon)
    return std::nullopt;
  const double b = std::strtod(text.c_str() + colon + 1, &end);
  if (colon + 1 == text.size() || *end != '\0' || !std::isfinite(a) || !std::isfinite(b))
    return std::nullopt;
  return std::pair{a, b};
}

/// The flags that are request fields (the field_table() rows after trace:
/// --window, --task, --quantum-us, --cpu, --activity, --k, --deadline-ms,
/// --stall-ms) go, with the op and trace, through the server's own JSON
/// decoder: every command, offline or served, applies one set of bounds. A
/// bad flag exits 2 with the text the server would put in bad_request.
serve::Request schema_request(const Args& args, const std::string& op = "ping",
                              const std::string& trace = "") {
  serve::JsonValue root;
  root.kind = serve::JsonValue::Kind::kObject;
  const auto put_string = [&root](const std::string& key, const std::string& text) {
    root.object[key].kind = serve::JsonValue::Kind::kString;
    root.object[key].string = text;
  };
  put_string("op", op);
  put_string("trace", trace);
  for (const serve::FieldSpec& f : serve::field_table()) {
    std::string flag = f.key;
    std::replace(flag.begin(), flag.end(), '_', '-');
    if (flag == "id" || flag == "op" || flag == "trace" || !args.has(flag)) continue;
    std::string text = args.get(flag);
    if (f.kind == serve::FieldKind::kMsPair) {
      const auto ms = parse_ms_pair(text);
      if (!ms.has_value()) {
        std::fprintf(stderr, "error: --%s expects A:B in milliseconds\n", flag.c_str());
        std::exit(2);
      }
      char pair[64];
      std::snprintf(pair, sizeof(pair), "[%.17g,%.17g]", ms->first, ms->second);
      text = pair;
    }
    // Numbers go in parsed; other text as a string, which a u64 row rejects.
    const auto value =
        f.kind == serve::FieldKind::kString ? std::nullopt : serve::parse_json(text);
    if (value.has_value()) root.object[f.key] = *value;
    else put_string(f.key, text);
  }
  std::string error;
  const auto req = serve::parse_request(root, error);
  if (!req.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    std::exit(2);
  }
  return *req;
}

/// --window A:B through the request schema and the serve path's own
/// conversion (query::window_from_ms), so a CLI window and a served window
/// always mean the same nanosecond span. False when there is no --window.
bool parse_window(const Args& args, query::Plan& span) {
  const serve::Request req = schema_request(args);
  if (!req.has_window) return false;
  if (!query::window_from_ms(span, req.window_from_ms, req.window_to_ms)) {
    std::fprintf(stderr, "error: --window expects A:B in milliseconds (B > A)\n");
    std::exit(2);
  }
  return true;
}

/// --quantum-us in ns: the schema's bound keeps the product from wrapping
/// to a quantum of 0.
DurNs quantum_from_args(const Args& args) {
  return schema_request(args).quantum_us * kNsPerUs;
}

/// --io mmap|pread: I/O strategy for file-backed readers (default: mmap with
/// silent pread fallback).
trace::OsntReader::IoMode io_mode(const Args& args) {
  const std::string mode = args.get("io", "mmap");
  if (mode == "pread") return trace::OsntReader::IoMode::kPread;
  if (mode != "mmap") {
    std::fprintf(stderr, "error: --io expects mmap or pread\n");
    std::exit(2);
  }
  return trace::OsntReader::IoMode::kAuto;
}

trace::TraceModel load(const Args& args) {
  auto source = trace::open_trace_source(trace_path(args), io_mode(args));
  const auto pool = decode_pool(args);
  query::Plan span;
  if (parse_window(args, span)) return source->to_model_window(span.t0, span.t1, pool.get());
  return source->to_model(pool.get());
}

noise::AnalysisOptions analysis_options(const Args& args) {
  noise::AnalysisOptions opts;
  opts.runnable_filter = !args.has("no-runnable-filter");
  opts.resolve_nesting = !args.has("no-nesting");
  // 0 = auto (hardware_concurrency); --jobs 1 keeps the serial path for
  // bisection. Results are byte-identical either way.
  opts.jobs = static_cast<std::size_t>(args.get_u64("jobs", 0));
  return opts;
}

Pid pick_task(const Args& args, const trace::TraceModel& model) {
  const auto apps = model.app_pids();
  if (apps.empty()) {
    std::fprintf(stderr, "error: trace has no application tasks\n");
    std::exit(1);
  }
  const Pid pid = schema_request(args).task.value_or(apps.front());
  if (!model.is_app(pid)) {
    std::fprintf(stderr, "error: pid %u is not an application task\n", pid);
    std::exit(1);
  }
  return pid;
}

/// The aggregate-independent plan pieces every planner subcommand shares:
/// analysis options, the --window predicate, the --cpu predicate.
query::Plan base_plan(const Args& args) {
  query::Plan plan;
  plan.options = analysis_options(args);
  parse_window(args, plan);
  plan.cpu = schema_request(args).cpu;
  return plan;
}

/// Runs one plan through the shared engine (the same executor osn-served
/// uses) and returns the rendered JSON document. The empty trace id keeps
/// the single-shot CLI out of the cache layer entirely.
std::string run_plan(const Args& args, const query::Plan& plan) {
  trace::OsntReader reader(trace_path(args), io_mode(args));
  const auto pool = decode_pool(args);
  query::Engine engine;
  return engine.run(reader, /*trace_id=*/"", plan, pool.get());
}

/// Print-to-stdout wrapper: the document bytes are the exporter's bytes,
/// identical to what the serve path transports.
int print_plan(const Args& args, const query::Plan& plan) {
  try {
    const std::string doc = run_plan(args, plan);
    std::fwrite(doc.data(), 1, doc.size(), stdout);
  } catch (const query::PlanError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

std::optional<noise::NoiseCategory> parse_category(const std::string& s) {
  if (s.empty()) return std::nullopt;
  switch (s[0]) {
    case 'T': return noise::NoiseCategory::kPeriodic;
    case 'P': return noise::NoiseCategory::kPageFault;
    case 'S': return noise::NoiseCategory::kScheduling;
    case 'X': return noise::NoiseCategory::kPreemption;
    case 'I': return noise::NoiseCategory::kIo;
    default: return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

std::size_t ceil_pow2(std::uint64_t v) {
  std::size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

int cmd_run(const Args& args) {
  if (args.positionals().empty()) return usage();
  const std::string which = args.positionals()[0];
  const std::uint64_t seconds = args.get_u64("seconds", 3);
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::string out = args.get("o", which + ".osnt");

  std::unique_ptr<workloads::Workload> workload;
  if (which == "ftq") {
    workloads::FtqParams p;
    p.n_quanta = static_cast<std::size_t>(seconds * 1000);
    workload = std::make_unique<workloads::FtqWorkload>(p);
  } else {
    const std::map<std::string, workloads::SequoiaApp> apps = {
        {"amg", workloads::SequoiaApp::kAmg},     {"irs", workloads::SequoiaApp::kIrs},
        {"lammps", workloads::SequoiaApp::kLammps}, {"sphot", workloads::SequoiaApp::kSphot},
        {"umt", workloads::SequoiaApp::kUmt}};
    auto it = apps.find(which);
    if (it == apps.end()) return usage();
    workload = std::make_unique<workloads::SequoiaWorkload>(it->second, sec(seconds));
  }

  std::fprintf(stderr, "simulating %s for %llus (seed %llu, %s drain)...\n", which.c_str(),
               static_cast<unsigned long long>(seconds),
               static_cast<unsigned long long>(seed),
               args.has("offline") ? "offline" : "live");

  if (args.has("offline")) {
    // Legacy path: collect the whole trace in memory, then serialize (v1).
    const workloads::RunResult run = workloads::run_workload(*workload, seed);
    if (!trace::write_trace_file(run.trace, out)) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("wrote %s: %zu events over %s\n", out.c_str(), run.trace.total_events(),
                fmt_duration(run.trace.duration()).c_str());
    return 0;
  }

  // Live pipeline: the consumer daemon drains the per-CPU channels while the
  // simulation runs, streaming merged records straight into the chunked OSNT
  // writer and the incremental analyzer — the full trace never sits in RAM.
  trace::OsntStreamWriter writer(out);
  if (!writer.ok()) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  // Pre-aggregate the per-chunk summaries while streaming, so later
  // `export --json` / served summary queries answer from the index without
  // decoding records. Costs a few accumulators per chunk in the footer.
  writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
  noise::StreamingStats live_stats;
  workloads::LiveOptions lopts;
  lopts.per_cpu_capacity = ceil_pow2(args.get_u64("buf-capacity", 1u << 16));
  lopts.batch_size = std::max<std::uint64_t>(args.get_u64("batch", 256), 1);
  lopts.on_record = [&](const tracebuf::EventRecord& rec) {
    writer.append(rec);
    live_stats.consume(rec);
  };
  const workloads::LiveRunResult run = workloads::run_workload_live(*workload, seed, lopts);
  if (!writer.finish(run.meta, run.tasks)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }

  std::printf("wrote %s: %llu events over %s\n", out.c_str(),
              static_cast<unsigned long long>(writer.records_written()),
              fmt_duration(run.meta.end_ns - run.meta.start_ns).c_str());
  const trace::DrainStats& d = run.meta.drain;
  std::printf("live drain: %llu records in %llu batches (max %llu), %llu lost, "
              "%llu producer stalls\n",
              static_cast<unsigned long long>(d.records),
              static_cast<unsigned long long>(d.batches),
              static_cast<unsigned long long>(d.max_batch),
              static_cast<unsigned long long>(d.lost),
              static_cast<unsigned long long>(d.producer_stalls));

  // Incremental per-activity summary, computed without ever materializing
  // the trace (the same numbers `osn-analyze stats` derives offline).
  TextTable table({"activity", "freq(ev/sec)", "avg(nsec)", "max(nsec)", "min(nsec)"});
  for (int k = 0; k < static_cast<int>(noise::ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<noise::ActivityKind>(k);
    const noise::EventStats s = live_stats.activity_stats(
        kind, run.meta.end_ns - run.meta.start_ns, run.meta.n_cpus);
    if (s.count == 0) continue;
    table.add_row({std::string(noise::activity_name(kind)),
                   fmt_fixed(s.freq_ev_per_sec, 1),
                   with_commas(static_cast<std::uint64_t>(s.avg_ns)),
                   with_commas(s.max_ns), with_commas(s.min_ns)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_info(const Args& args) {
  trace::FileEventSource source(trace_path(args), io_mode(args));
  const auto pool = decode_pool(args);
  const trace::TraceModel model = source.to_model(pool.get());
  const trace::OsntReader& reader = source.reader();
  std::printf("format:    OSNT v%u%s%s\n", reader.version(),
              reader.truncated() ? " (TRUNCATED — writer did not finish)" : "",
              reader.index_recovered() ? " (index recovered by scan)" : "");
  if (reader.version() == 3)
    std::printf("chunks:    %zu (%llu records indexed)\n", reader.chunks().size(),
                static_cast<unsigned long long>(reader.indexed_records()));
  std::printf("workload:  %s\n", model.meta().workload.c_str());
  std::printf("duration:  %s\n", fmt_duration(model.duration()).c_str());
  std::printf("cpus:      %u (tick %s)\n", model.cpu_count(),
              fmt_duration(model.meta().tick_period_ns).c_str());
  std::printf("events:    %zu\n", model.total_events());
  const std::string problem = model.validate();
  std::printf("validated: %s\n", problem.empty() ? "OK" : problem.c_str());
  const trace::DrainStats& d = model.meta().drain;
  if (d.records > 0 || d.lost > 0 || d.overwritten > 0) {
    std::printf("drain:     %llu records / %llu batches (max %llu)\n",
                static_cast<unsigned long long>(d.records),
                static_cast<unsigned long long>(d.batches),
                static_cast<unsigned long long>(d.max_batch));
    std::printf("           lost %llu, overwritten %llu, producer stalls %llu\n",
                static_cast<unsigned long long>(d.lost),
                static_cast<unsigned long long>(d.overwritten),
                static_cast<unsigned long long>(d.producer_stalls));
  }
  std::printf("tasks:\n");
  for (const auto& [pid, info] : model.tasks())
    std::printf("  %6u  %-16s %s\n", pid, info.name.c_str(),
                info.is_app ? "application" : (info.is_kernel_thread ? "kthread" : "user"));
  return 0;
}

int cmd_verify(const Args& args) {
  trace::OsntReader reader(trace_path(args), io_mode(args));
  const trace::VerifyReport report = reader.verify();
  std::printf("format:    OSNT v%u\n", report.version);
  if (report.version == 3)
    std::printf("chunks:    %zu\n", report.chunks);
  std::printf("records:   %llu\n", static_cast<unsigned long long>(report.records));
  if (report.truncated)
    std::printf("truncated: yes — writer did not finish; flushed chunks salvaged\n");
  if (report.index_recovered)
    std::printf("index:     damaged — rebuilt by forward scan\n");
  for (const trace::ChunkIssue& issue : report.issues) {
    if (issue.chunk == trace::TraceReadError::kNoChunk)
      std::printf("ISSUE @ byte %llu: %s\n",
                  static_cast<unsigned long long>(issue.offset), issue.problem.c_str());
    else
      std::printf("ISSUE chunk %lld @ byte %llu: %s\n",
                  static_cast<long long>(issue.chunk),
                  static_cast<unsigned long long>(issue.offset), issue.problem.c_str());
  }
  if (report.intact()) {
    std::printf("verify:    OK%s\n", report.clean() ? "" : " (incomplete but consistent)");
    return 0;
  }
  std::printf("verify:    %zu issue(s) found\n", report.issues.size());
  return 1;
}

int cmd_stats(const Args& args) {
  const trace::TraceModel model = load(args);
  noise::NoiseAnalysis analysis(model, analysis_options(args));
  TextTable table({"activity", "freq(ev/sec)", "avg(nsec)", "max(nsec)", "min(nsec)"});
  for (int k = 0; k < static_cast<int>(noise::ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<noise::ActivityKind>(k);
    const noise::EventStats s = analysis.activity_stats(kind);
    if (s.count == 0) continue;
    table.add_row({std::string(noise::activity_name(kind)),
                   fmt_fixed(s.freq_ev_per_sec, 1),
                   with_commas(static_cast<std::uint64_t>(s.avg_ns)),
                   with_commas(s.max_ns), with_commas(s.min_ns)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_breakdown(const Args& args) {
  const trace::TraceModel model = load(args);
  noise::NoiseAnalysis analysis(model, analysis_options(args));
  const std::vector<Pid> pids = model.app_pids();
  if (args.has("per-rank")) {
    for (std::size_t i = 0; i < pids.size(); ++i)
      std::printf("%s", exporter::render_breakdown_row(model.task_name(pids[i]),
                                                       analysis.rank_breakdowns()[i])
                            .c_str());
  } else {
    std::printf("%s", exporter::render_breakdown_row(model.meta().workload,
                                                     analysis.category_breakdown_all())
                          .c_str());
  }
  DurNs total = 0;
  for (const noise::CategoryBreakdown& rank : analysis.rank_breakdowns())
    total += noise::noise_total(rank);
  const double pct = 100.0 * static_cast<double>(total) /
                     (static_cast<double>(model.duration()) * static_cast<double>(pids.size()));
  std::printf("total: %s across %zu ranks (%.3f%% of compute time)\n",
              fmt_duration(total).c_str(), pids.size(), pct);
  return 0;
}

int cmd_chart(const Args& args) {
  const DurNs quantum = quantum_from_args(args);
  if (args.has("json")) {
    query::Plan plan = base_plan(args);
    plan.aggregate = query::Aggregate::kChart;
    plan.task = schema_request(args).task;
    plan.quantum = quantum;
    return print_plan(args, plan);
  }
  const trace::TraceModel model = load(args);
  noise::NoiseAnalysis analysis(model, analysis_options(args));
  const Pid pid = pick_task(args, model);
  const noise::SyntheticChart chart = noise::build_chart(
      analysis, pid, 0, quantum, query::chart_buckets(model.duration(), quantum));
  const DurNs min_noise = args.get_u64("min-noise-us", 2) * kNsPerUs;
  std::printf("synthetic OS noise chart for %s (quantum %s):\n%s",
              model.task_name(pid).c_str(), fmt_duration(quantum).c_str(),
              exporter::render_spikes(chart, min_noise,
                                      static_cast<std::size_t>(args.get_u64("rows", 40)))
                  .c_str());
  return 0;
}

int cmd_timeline(const Args& args) {
  const trace::TraceModel model = load(args);
  noise::NoiseAnalysis analysis(model, analysis_options(args));
  const TimeNs from = args.get_u64("from-ms", 0) * kNsPerMs;
  const TimeNs to_default = model.duration() / kNsPerMs;
  const TimeNs to = args.get_u64("to-ms", to_default) * kNsPerMs;
  const auto width = static_cast<std::size_t>(args.get_u64("width", 100));
  std::printf("%s", exporter::render_timeline(analysis, from, std::max(to, from + 1),
                                              width, parse_category(args.get("category")))
                        .c_str());
  return 0;
}

int cmd_interruptions(const Args& args) {
  const trace::TraceModel model = load(args);
  noise::NoiseAnalysis analysis(model, analysis_options(args));
  const Pid pid = pick_task(args, model);
  auto interruptions = noise::group_interruptions(analysis, pid);
  std::sort(interruptions.begin(), interruptions.end(),
            [](const noise::Interruption& a, const noise::Interruption& b) {
              return a.total > b.total;
            });
  const auto top = static_cast<std::size_t>(args.get_u64("top", 20));
  std::printf("%zu interruptions for %s; top %zu by duration:\n",
              interruptions.size(), model.task_name(pid).c_str(),
              std::min(top, interruptions.size()));
  for (std::size_t i = 0; i < std::min(top, interruptions.size()); ++i) {
    const auto& in = interruptions[i];
    std::printf("  t=%10.3f ms  %10s  %s\n", static_cast<double>(in.start) / 1e6,
                fmt_duration(in.total).c_str(),
                noise::describe_interruption(in).c_str());
  }
  return 0;
}

int cmd_lookalikes(const Args& args) {
  const trace::TraceModel model = load(args);
  noise::NoiseAnalysis analysis(model, analysis_options(args));
  const Pid pid = pick_task(args, model);
  const auto interruptions = noise::group_interruptions(analysis, pid);
  const double tol = args.get_double("tolerance", 2.0) / 100.0;
  const auto pairs = noise::find_lookalikes(interruptions, tol);
  std::printf("%zu look-alike pairs (within %.1f%%, different composition):\n",
              pairs.size(), tol * 100.0);
  for (const auto& p : pairs) {
    std::printf("  %s vs %s\n", fmt_duration(p.a.total).c_str(),
                fmt_duration(p.b.total).c_str());
    std::printf("    A @ %.3f ms: %s\n", static_cast<double>(p.a.start) / 1e6,
                noise::describe_interruption(p.a).c_str());
    std::printf("    B @ %.3f ms: %s\n", static_cast<double>(p.b.start) / 1e6,
                noise::describe_interruption(p.b).c_str());
  }
  return 0;
}

int cmd_export(const Args& args) {
  // The JSON summary goes through the planner: the engine decides centrally
  // whether the pre-aggregate fast path answers (full window, default
  // options, intact index) or records must be decoded.
  if (args.has("json")) {
    query::Plan plan = base_plan(args);
    std::string path = args.get("json");
    std::string doc;
    try {
      doc = run_plan(args, plan);
    } catch (const query::PlanError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    if (path.empty()) {
      trace::OsntReader reader(trace_path(args), io_mode(args));
      path = reader.meta().workload + ".json";
    }
    if (!exporter::write_text_file(path, doc)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }
  const trace::TraceModel model = load(args);
  noise::NoiseAnalysis analysis(model, analysis_options(args));
  if (args.has("paraver")) {
    const std::string base = args.get("paraver", model.meta().workload);
    if (!exporter::write_paraver(analysis, base)) {
      std::fprintf(stderr, "error: cannot write %s.prv\n", base.c_str());
      return 1;
    }
    std::printf("wrote %s.prv / .pcf / .row\n", base.c_str());
    return 0;
  }
  if (args.has("csv")) {
    const std::string path = args.get("csv", model.meta().workload + ".csv");
    if (!exporter::write_text_file(path, exporter::intervals_csv(analysis))) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu noise intervals)\n", path.c_str(),
                analysis.noise_intervals().size());
    return 0;
  }
  return usage();
}

/// The plan of a summary, timeseries or topk query, offline or over a
/// rolling store: base_plan plus the aggregate's own flags.
query::Plan aggregate_plan(const Args& args, const std::string& what) {
  query::Plan plan = base_plan(args);
  if (what == "timeseries") {
    plan.aggregate = query::Aggregate::kTimeseries;
    plan.quantum = quantum_from_args(args);
    const std::string name = args.get("activity");
    if (!name.empty()) {
      const auto kind = noise::activity_from_name(name);
      if (!kind.has_value()) {
        std::fprintf(stderr, "error: unknown activity '%s'\n", name.c_str());
        std::exit(2);
      }
      plan.activity = *kind;
    }
  } else if (what == "topk") {
    plan.aggregate = query::Aggregate::kTopK;
    plan.k = static_cast<std::size_t>(schema_request(args).k);
  } else if (what != "summary") {
    std::fprintf(stderr, "error: unknown rolling aggregate '%s'\n", what.c_str());
    std::exit(usage());
  }
  return plan;
}

int cmd_summary(const Args& args) { return print_plan(args, base_plan(args)); }
int cmd_timeseries(const Args& args) {
  return print_plan(args, aggregate_plan(args, "timeseries"));
}
int cmd_topk(const Args& args) { return print_plan(args, aggregate_plan(args, "topk")); }

/// Shared client tail: connect with --host/--port/--wire, send one request,
/// print the payload verbatim (so remote output stays byte-identical to the
/// offline exporter's files).
int client_call(const Args& args, const serve::Request& req) {
  const std::string host = args.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.get_u64("port", 0));
  if (port == 0) {
    std::fprintf(stderr, "error: --port is required\n");
    return 2;
  }
  const std::string wire_str = args.get("wire", "json");
  serve::Wire wire = serve::Wire::kJson;
  if (wire_str == "binary") {
    wire = serve::Wire::kBinary;
  } else if (wire_str != "json") {
    std::fprintf(stderr, "error: --wire must be json or binary\n");
    return 2;
  }
  serve::Client client(host, port, Deadline::after(5 * kNsPerSec), wire);
  if (!client.ok()) {
    std::fprintf(stderr, "error: cannot connect to %s:%u: %s\n", host.c_str(), port,
                 client.connect_error().c_str());
    return 1;
  }
  const serve::Response resp = client.call(req, Deadline::after(60 * kNsPerSec));
  if (!resp.ok) {
    std::fprintf(stderr, "error: %s: %s\n", resp.error.c_str(), resp.message.c_str());
    return 1;
  }
  std::fwrite(resp.payload.data(), 1, resp.payload.size(), stdout);
  return 0;
}

int cmd_query(const Args& args) {
  if (args.positionals().empty()) return usage();
  const std::string& op = args.positionals()[0];
  if (serve::find_op(op) == nullptr) {
    std::fprintf(stderr, "error: unknown query op '%s'\n", op.c_str());
    return usage();
  }
  // Checked exactly as the server will check it, before connecting.
  serve::Request req =
      schema_request(args, op, args.positionals().size() > 1 ? args.positionals()[1] : "");
  req.id = 1;
  return client_call(args, req);
}

int cmd_monitor(const Args& args) {
  if (args.positionals().empty()) {
    std::fprintf(stderr, "error: monitor expects status or alerts\n");
    return usage();
  }
  const std::string what = args.positionals()[0];
  serve::Request req;
  req.id = 1;
  if (what == "status") req.op = serve::Op::kMonitorStatus;
  else if (what == "alerts") req.op = serve::Op::kAlerts;
  else if (what == "refresh") req.op = serve::Op::kRefresh;
  else {
    std::fprintf(stderr, "error: unknown monitor request '%s'\n", what.c_str());
    return usage();
  }
  return client_call(args, req);
}

int cmd_rolling(const Args& args) {
  if (args.positionals().empty()) {
    std::fprintf(stderr, "error: missing segment store directory\n");
    return usage();
  }
  const std::string& dir = args.positionals()[0];
  const std::string what =
      args.positionals().size() > 1 ? args.positionals()[1] : "summary";
  const query::Plan plan = aggregate_plan(args, what);
  monitor::RollingView view(dir);
  const auto pool = decode_pool(args);
  try {
    const std::string doc = view.run(plan, pool.get());
    std::fwrite(doc.data(), 1, doc.size(), stdout);
  } catch (const query::PlanError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_diff(const Args& args) {
  if (args.positionals().size() < 2) return usage();
  const trace::TraceModel a = trace::read_trace_file(args.positionals()[0]);
  const trace::TraceModel b = trace::read_trace_file(args.positionals()[1]);
  noise::NoiseAnalysis aa(a, analysis_options(args));
  noise::NoiseAnalysis ab(b, analysis_options(args));

  std::printf("A: %s (%s)   B: %s (%s)\n\n", a.meta().workload.c_str(),
              fmt_duration(a.duration()).c_str(), b.meta().workload.c_str(),
              fmt_duration(b.duration()).c_str());
  TextTable table({"activity", "A freq", "B freq", "A avg(ns)", "B avg(ns)", "avg delta"});
  for (int k = 0; k < static_cast<int>(noise::ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<noise::ActivityKind>(k);
    const noise::EventStats sa = aa.activity_stats(kind);
    const noise::EventStats sb = ab.activity_stats(kind);
    if (sa.count == 0 && sb.count == 0) continue;
    const double delta = sa.avg_ns > 0 ? (sb.avg_ns - sa.avg_ns) / sa.avg_ns : 0.0;
    table.add_row({std::string(noise::activity_name(kind)),
                   fmt_fixed(sa.freq_ev_per_sec, 1), fmt_fixed(sb.freq_ev_per_sec, 1),
                   fmt_fixed(sa.avg_ns, 0), fmt_fixed(sb.avg_ns, 0),
                   (delta >= 0 ? "+" : "") + fmt_percent(delta)});
  }
  std::printf("%s\n", table.render().c_str());

  auto noise_pct = [](const noise::NoiseAnalysis& an, const trace::TraceModel& m) {
    DurNs total = 0;
    for (const noise::CategoryBreakdown& rank : an.rank_breakdowns())
      total += noise::noise_total(rank);
    return 100.0 * static_cast<double>(total) /
           (static_cast<double>(m.duration()) *
            static_cast<double>(std::max<std::size_t>(m.app_pids().size(), 1)));
  };
  std::printf("per-rank noise: A %.3f%%   B %.3f%%\n", noise_pct(aa, a), noise_pct(ab, b));
  return 0;
}

int cmd_scalability(const Args& args) {
  const trace::TraceModel model = load(args);
  noise::NoiseAnalysis analysis(model, analysis_options(args));
  const noise::NoiseProfile profile = noise::NoiseProfile::from_analysis(analysis);
  std::printf("profile: %.0f noise events/s/rank, mean %s, %.3f%% of rank time\n\n",
              profile.events_per_sec,
              fmt_duration(static_cast<DurNs>(profile.mean_duration_ns)).c_str(),
              100.0 * profile.noise_fraction);

  std::vector<std::uint64_t> ranks{1, 8, 64, 512, 4096, 32768};
  if (args.has("ranks")) {
    ranks.clear();
    const std::string list = args.get("ranks");
    std::size_t pos = 0;
    while (pos < list.size()) {
      std::size_t next = list.find(',', pos);
      if (next == std::string::npos) next = list.size();
      ranks.push_back(static_cast<std::uint64_t>(
          std::strtoull(list.substr(pos, next - pos).c_str(), nullptr, 10)));
      pos = next + 1;
    }
  }
  noise::ScalabilityParams params;
  params.granularity = args.get_u64("granularity-us", 1000) * kNsPerUs;
  params.iterations = static_cast<std::uint32_t>(args.get_u64("iterations", 200));

  TextTable table({"ranks", "E[max noise]/window", "slowdown", "efficiency"});
  for (const auto& pt : noise::extrapolate_scalability(profile, ranks, params)) {
    table.add_row({std::to_string(pt.ranks),
                   fmt_duration(static_cast<DurNs>(pt.mean_max_noise_ns)),
                   fmt_fixed(pt.slowdown, 3), fmt_fixed(pt.efficiency, 3)});
  }
  std::printf("bulk-synchronous model, %s compute between barriers:\n%s",
              fmt_duration(params.granularity).c_str(), table.render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args(argc, argv);
  // Malformed or corrupt trace input is an expected condition, not a crash:
  // every reader path throws trace::TraceReadError with the byte offset.
  try {
    if (cmd == "run") return cmd_run(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "verify") return cmd_verify(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "breakdown") return cmd_breakdown(args);
    if (cmd == "chart") return cmd_chart(args);
    if (cmd == "timeline") return cmd_timeline(args);
    if (cmd == "interruptions") return cmd_interruptions(args);
    if (cmd == "lookalikes") return cmd_lookalikes(args);
    if (cmd == "summary") return cmd_summary(args);
    if (cmd == "timeseries") return cmd_timeseries(args);
    if (cmd == "topk") return cmd_topk(args);
    if (cmd == "export") return cmd_export(args);
    if (cmd == "query") return cmd_query(args);
    if (cmd == "monitor") return cmd_monitor(args);
    if (cmd == "rolling") return cmd_rolling(args);
    if (cmd == "diff") return cmd_diff(args);
    if (cmd == "scalability") return cmd_scalability(args);
  } catch (const trace::TraceReadError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
