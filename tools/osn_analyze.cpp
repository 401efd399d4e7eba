// osn-analyze — the LTTNG-NOISE offline analysis tool.
//
// The paper's workflow is: instrument statically, trace, analyze offline.
// This command-line tool is the offline half, operating on compact OSNT
// trace files (written by the simulator, the benches, or `osn-analyze run`).
// usage() below lists every command and its flags; kFlags is the one list of
// flags the parser accepts.
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

#include "common/flag_value.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "export/ascii.hpp"
#include "export/csv.hpp"
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
#include "serve/query.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "workloads/ftq.hpp"
#include "workloads/sequoia.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace osn;

/// Every flag osn-analyze accepts, apart from the request fields (--window,
/// --task, --quantum-us, ...): serve::field_table() lists those, and main()
/// adds each as a value flag.
constexpr Flag kFlags[] = {
    {"o", Takes::kValue},          {"seconds", Takes::kValue},   {"seed", Takes::kValue},
    {"offline", Takes::kNothing},  {"buf-capacity", Takes::kValue}, {"batch", Takes::kValue},
    {"jobs", Takes::kValue},       {"io", Takes::kValue},        {"per-rank", Takes::kNothing},
    {"no-nesting", Takes::kNothing}, {"no-runnable-filter", Takes::kNothing},
    {"min-noise-us", Takes::kValue}, {"rows", Takes::kValue},    {"category", Takes::kValue},
    {"from-ms", Takes::kValue},    {"to-ms", Takes::kValue},     {"width", Takes::kValue},
    {"top", Takes::kValue},        {"tolerance", Takes::kValue}, {"json", Takes::kOptional},
    {"paraver", Takes::kOptional}, {"csv", Takes::kOptional},    {"host", Takes::kValue},
    {"port", Takes::kValue},       {"wire", Takes::kValue},      {"granularity-us", Takes::kValue},
    {"iterations", Takes::kValue}, {"ranks", Takes::kValue},
};

/// A request field's flag: the key with '_' -> '-'. The routing fields (id,
/// op, trace) are positionals or fixed, never flags.
std::string field_flag(const serve::FieldSpec& f) {
  std::string flag = f.key;
  if (flag == "id" || flag == "op" || flag == "trace") return "";
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

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
      "              [--min-noise-us N] [--rows N] [--json [FILE]]\n"
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
      "  osn-analyze diff <a.osnt> <b.osnt> [--window A:B] [--cpu N]\n"
      "  osn-analyze scalability <trace.osnt> [--granularity-us N]\n"
      "              [--ranks N,N,...]\n\n"
      "Analysis commands accept --jobs N: worker threads for the sharded\n"
      "per-CPU pipeline and the chunk-parallel decode (default: all\n"
      "hardware threads; --jobs 1 runs the serial reference path — both\n"
      "produce byte-identical output). They also accept --window A:B\n"
      "(milliseconds): analyze only that time slice, exactly as a served\n"
      "query with the same window does — only the chunks overlapping it are\n"
      "read from disk — and\n"
      "--io mmap|pread: decode straight out of a read-only mapping (default,\n"
      "falls back to pread when mmap fails) or force positioned reads.\n\n"
      "Numeric flags take whole decimal numbers (--tolerance: any finite\n"
      "number). --jobs is at most 1024, --port at most 65535; --width,\n"
      "--granularity-us, --iterations and each --ranks entry are at least 1.\n"
      "A malformed or out-of-range value exits 2 with `error: --<flag> ...`.\n");
  return 2;
}

const std::string& trace_path(const Args& args) {
  if (args.positionals().empty()) {
    std::fprintf(stderr, "error: missing trace file\n");
    std::exit(usage());
  }
  return args.positionals()[0];
}

std::size_t jobs_flag(const Args& args) {
  return static_cast<std::size_t>(args.get_u64("jobs", 0, 0, kMaxFlagThreads));
}

/// Worker pool shared by the chunk decode and the sharded analysis
/// (nullptr when --jobs resolves to 1).
std::unique_ptr<ThreadPool> decode_pool(const Args& args) {
  const std::size_t jobs = ThreadPool::resolve_jobs(jobs_flag(args));
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
serve::Request schema_request(const Args& args, const std::string& op,
                              const std::string& trace) {
  serve::JsonValue root;
  root.kind = serve::JsonValue::Kind::kObject;
  const auto put_string = [&root](const std::string& key, const std::string& text) {
    root.object[key].kind = serve::JsonValue::Kind::kString;
    root.object[key].string = text;
  };
  put_string("op", op);
  put_string("trace", trace);
  for (const serve::FieldSpec& f : serve::field_table()) {
    const std::string flag = field_flag(f);
    if (flag.empty() || !args.has(flag)) continue;
    const std::string text = args.get(flag);
    if (f.kind == serve::FieldKind::kMsPair) {
      const auto ms = parse_ms_pair(text);
      if (!ms.has_value()) {
        std::fprintf(stderr, "error: --%s expects A:B in milliseconds\n", flag.c_str());
        std::exit(2);
      }
      serve::JsonValue& pair = root.object[f.key];
      pair.kind = serve::JsonValue::Kind::kArray;
      for (const double v : {ms->first, ms->second}) {
        pair.array.emplace_back().kind = serve::JsonValue::Kind::kNumber;
        pair.array.back().number = v;
      }
      continue;
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

noise::AnalysisOptions analysis_options(const Args& args) {
  noise::AnalysisOptions opts;
  opts.runnable_filter = !args.has("no-runnable-filter");
  opts.resolve_nesting = !args.has("no-nesting");
  // 0 = auto (hardware_concurrency); --jobs 1 keeps the serial path for
  // bisection. Results are byte-identical either way.
  opts.jobs = jobs_flag(args);
  return opts;
}

/// The plan of a command: its request fields, `op` and first positional
/// through the server's decoder and the server's own Request -> Plan
/// translation, so a flag and a served field always mean the same thing.
/// Only the analysis options are the command's.
query::Plan command_plan(const Args& args, const std::string& op) {
  query::Plan plan = serve::plan_from_request(schema_request(args, op, trace_path(args)));
  plan.options = analysis_options(args);
  return plan;
}

/// The model a text report analyses: the plan's window and cpu applied by
/// the engine that renders the JSON documents (chunk pushdown, cpu-mask
/// pruning, then the filter step).
std::shared_ptr<const trace::TraceModel> load(const Args& args, const query::Plan& plan,
                                              const std::string& path) {
  trace::OsntReader reader(path, io_mode(args));
  const auto pool = decode_pool(args);
  return query::Engine().model(reader, /*trace_id=*/"", plan, pool.get());
}
std::shared_ptr<const trace::TraceModel> load(const Args& args, const query::Plan& plan) {
  return load(args, plan, trace_path(args));
}

/// Runs one plan through the shared engine (the same executor osn-served
/// uses; the empty trace id keeps the single-shot CLI out of its caches) and
/// prints the document, or writes it to `path` when one is given
/// (`export --json PATH`, `chart --json PATH`). The bytes are the exporter's
/// bytes, identical to what the serve path transports.
int print_plan(const Args& args, const query::Plan& plan, const std::string& path = {}) {
  trace::OsntReader reader(trace_path(args), io_mode(args));
  const auto pool = decode_pool(args);
  const std::string doc = query::Engine().run(reader, /*trace_id=*/"", plan, pool.get());
  if (path.empty()) {
    std::fwrite(doc.data(), 1, doc.size(), stdout);
    return 0;
  }
  if (!exporter::write_text_file(path, doc)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

/// --category: absent means every category; otherwise the value must be
/// exactly one of the timeline glyphs P T S X I, or the tool exits 2.
std::optional<noise::NoiseCategory> parse_category(const Args& args) {
  if (!args.has("category")) return std::nullopt;
  const std::string s = args.get("category");
  if (s.size() == 1) {
    switch (s[0]) {
      case 'T': return noise::NoiseCategory::kPeriodic;
      case 'P': return noise::NoiseCategory::kPageFault;
      case 'S': return noise::NoiseCategory::kScheduling;
      case 'X': return noise::NoiseCategory::kPreemption;
      case 'I': return noise::NoiseCategory::kIo;
      default: break;
    }
  }
  std::fprintf(stderr, "error: --category expects P, T, S, X or I\n");
  std::exit(2);
}

/// The per-activity table `run` and `stats` print: one row per activity that
/// has events, from `stats_of(kind)`.
template <typename StatsOf>
std::string activity_table(const StatsOf& stats_of) {
  TextTable table({"activity", "freq(ev/sec)", "avg(nsec)", "max(nsec)", "min(nsec)"});
  for (int k = 0; k < static_cast<int>(noise::ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<noise::ActivityKind>(k);
    const noise::EventStats s = stats_of(kind);
    if (s.count == 0) continue;
    table.add_row({std::string(noise::activity_name(kind)),
                   fmt_fixed(s.freq_ev_per_sec, 1),
                   with_commas(static_cast<std::uint64_t>(s.avg_ns)),
                   with_commas(s.max_ns), with_commas(s.min_ns)});
  }
  return table.render();
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
  const std::uint64_t seconds = args.get_u64("seconds", 3, 0, kU64Max / kNsPerSec);
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

  // One writer for both drains. Pre-aggregate the per-chunk summaries while
  // streaming, so later `export --json` / served summary queries answer from
  // the index without decoding records.
  trace::OsntStreamWriter writer(out);
  if (!writer.ok()) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  writer.set_aggregator(std::make_unique<noise::IndexAggregator>());

  if (args.has("offline")) {
    // Offline drain: collect the whole trace in memory, then replay its
    // merged order into the same writer. The file differs from a live one of
    // the same seed only in the footer's drain counters.
    const workloads::RunResult run = workloads::run_workload(*workload, seed);
    run.trace.for_each_merged([&](const tracebuf::EventRecord& rec) { writer.append(rec); });
    if (!writer.finish(run.trace.meta(), run.trace.tasks())) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("wrote %s: %zu events over %s\n", out.c_str(), run.trace.total_events(),
                fmt_duration(run.trace.duration()).c_str());
    return 0;
  }

  // Live pipeline: the consumer daemon drains the per-CPU channels while the
  // simulation runs, streaming merged records straight into the writer and
  // the incremental analyzer — the full trace never sits in RAM.
  noise::StreamingStats live_stats;
  workloads::LiveOptions lopts;
  lopts.per_cpu_capacity =
      ceil_pow2(args.get_u64("buf-capacity", lopts.per_cpu_capacity, 0, 1u << 24));
  lopts.batch_size = std::max<std::uint64_t>(args.get_u64("batch", lopts.batch_size), 1);
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
  const DurNs span = run.meta.end_ns - run.meta.start_ns;
  std::printf("%s", activity_table([&](auto kind) {
                      return live_stats.activity_stats(kind, span, run.meta.n_cpus);
                    }).c_str());
  return 0;
}

int cmd_info(const Args& args) {
  trace::OsntReader reader(trace_path(args), io_mode(args));
  const auto pool = decode_pool(args);
  const trace::TraceModel model = reader.read_all(pool.get());
  std::printf("format:    OSNT v3%s%s\n",
              reader.truncated() ? " (TRUNCATED — writer did not finish)" : "",
              reader.index_recovered() ? " (index recovered by scan)" : "");
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
  std::printf("format:    OSNT v3\n");
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
  const query::Plan plan = command_plan(args, "summary");
  const auto model = load(args, plan);
  noise::NoiseAnalysis analysis(*model, plan.options);
  std::printf("%s",
              activity_table([&](auto kind) { return analysis.activity_stats(kind); }).c_str());
  return 0;
}

int cmd_breakdown(const Args& args) {
  const query::Plan plan = command_plan(args, "summary");
  const auto model = load(args, plan);
  noise::NoiseAnalysis analysis(*model, plan.options);
  const std::vector<Pid> pids = model->app_pids();
  if (args.has("per-rank")) {
    for (std::size_t i = 0; i < pids.size(); ++i)
      std::printf("%s", exporter::render_breakdown_row(model->task_name(pids[i]),
                                                       analysis.rank_breakdowns()[i])
                            .c_str());
  } else {
    std::printf("%s", exporter::render_breakdown_row(model->meta().workload,
                                                     analysis.category_breakdown_all())
                          .c_str());
  }
  DurNs total = 0;
  for (const noise::CategoryBreakdown& rank : analysis.rank_breakdowns())
    total += noise::noise_total(rank);
  const double pct = 100.0 * static_cast<double>(total) /
                     (static_cast<double>(model->duration()) * static_cast<double>(pids.size()));
  std::printf("total: %s across %zu ranks (%.3f%% of compute time)\n",
              fmt_duration(total).c_str(), pids.size(), pct);
  return 0;
}

int cmd_chart(const Args& args) {
  const query::Plan plan = command_plan(args, "chart");
  if (args.has("json")) return print_plan(args, plan, args.get("json"));
  const auto model = load(args, plan);
  const std::size_t buckets = query::chart_buckets(model->duration(), plan.quantum);
  const Pid pid = query::chart_task(*model, plan.task);
  noise::NoiseAnalysis analysis(*model, plan.options);
  const noise::SyntheticChart chart =
      noise::build_chart(analysis, pid, 0, plan.quantum, buckets);
  const DurNs min_noise = args.get_scaled("min-noise-us", 2, kNsPerUs);
  std::printf("synthetic OS noise chart for %s (quantum %s):\n%s",
              model->task_name(pid).c_str(), fmt_duration(plan.quantum).c_str(),
              exporter::render_spikes(chart, min_noise,
                                      static_cast<std::size_t>(args.get_u64("rows", 40)))
                  .c_str());
  return 0;
}

int cmd_timeline(const Args& args) {
  const std::optional<noise::NoiseCategory> only = parse_category(args);
  const query::Plan plan = command_plan(args, "summary");
  const auto model = load(args, plan);
  noise::NoiseAnalysis analysis(*model, plan.options);
  const TimeNs from = args.get_scaled("from-ms", 0, kNsPerMs);
  const TimeNs to = args.get_scaled("to-ms", model->duration() / kNsPerMs, kNsPerMs);
  const auto width = static_cast<std::size_t>(args.get_u64("width", 100, 1, 1u << 16));
  std::printf("%s", exporter::render_timeline(analysis, from, std::max(to, from + 1),
                                              width, only)
                        .c_str());
  return 0;
}

int cmd_interruptions(const Args& args) {
  const query::Plan plan = command_plan(args, "chart");
  const auto model = load(args, plan);
  const Pid pid = query::chart_task(*model, plan.task);
  noise::NoiseAnalysis analysis(*model, plan.options);
  auto interruptions = noise::group_interruptions(analysis, pid);
  std::sort(interruptions.begin(), interruptions.end(),
            [](const noise::Interruption& a, const noise::Interruption& b) {
              return a.total > b.total;
            });
  const auto top = static_cast<std::size_t>(args.get_u64("top", 20));
  std::printf("%zu interruptions for %s; top %zu by duration:\n",
              interruptions.size(), model->task_name(pid).c_str(),
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
  const query::Plan plan = command_plan(args, "chart");
  const auto model = load(args, plan);
  const Pid pid = query::chart_task(*model, plan.task);
  noise::NoiseAnalysis analysis(*model, plan.options);
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
  const query::Plan plan = command_plan(args, "summary");
  if (args.has("json")) {
    std::string path = args.get("json");
    if (path.empty()) {
      trace::OsntReader reader(trace_path(args), io_mode(args));
      path = reader.meta().workload + ".json";
    }
    return print_plan(args, plan, path);
  }
  const auto model = load(args, plan);
  noise::NoiseAnalysis analysis(*model, plan.options);
  if (args.has("paraver")) {
    const std::string base = args.get("paraver", model->meta().workload);
    if (!exporter::write_paraver(analysis, base)) {
      std::fprintf(stderr, "error: cannot write %s.prv\n", base.c_str());
      return 1;
    }
    std::printf("wrote %s.prv / .pcf / .row\n", base.c_str());
    return 0;
  }
  if (args.has("csv")) {
    const std::string path = args.get("csv", model->meta().workload + ".csv");
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

int cmd_summary(const Args& args) { return print_plan(args, command_plan(args, "summary")); }
int cmd_timeseries(const Args& args) {
  return print_plan(args, command_plan(args, "timeseries"));
}
int cmd_topk(const Args& args) { return print_plan(args, command_plan(args, "topk")); }

/// Shared client tail: connect with --host/--port/--wire, send one request,
/// print the payload verbatim (so remote output stays byte-identical to the
/// offline exporter's files).
int client_call(const Args& args, const serve::Request& req) {
  const std::string host = args.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.get_u64("port", 0, 0, 65535));
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
    std::fprintf(stderr, "error: monitor expects status, alerts or refresh\n");
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
  if (what != "summary" && what != "timeseries" && what != "topk") {
    std::fprintf(stderr, "error: unknown rolling aggregate '%s'\n", what.c_str());
    return usage();
  }
  const query::Plan plan = command_plan(args, what);
  monitor::RollingView view(dir);
  const auto pool = decode_pool(args);
  const std::string doc = view.run(plan, pool.get());
  std::fwrite(doc.data(), 1, doc.size(), stdout);
  return 0;
}

int cmd_diff(const Args& args) {
  if (args.positionals().size() < 2) return usage();
  const query::Plan plan = command_plan(args, "summary");
  const auto a = load(args, plan);
  const auto b = load(args, plan, args.positionals()[1]);
  noise::NoiseAnalysis aa(*a, plan.options);
  noise::NoiseAnalysis ab(*b, plan.options);

  std::printf("A: %s (%s)   B: %s (%s)\n\n", a->meta().workload.c_str(),
              fmt_duration(a->duration()).c_str(), b->meta().workload.c_str(),
              fmt_duration(b->duration()).c_str());
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
  std::printf("per-rank noise: A %.3f%%   B %.3f%%\n", noise_pct(aa, *a), noise_pct(ab, *b));
  return 0;
}

int cmd_scalability(const Args& args) {
  std::vector<std::uint64_t> ranks{1, 8, 64, 512, 4096, 32768};
  if (args.has("ranks")) {
    ranks.clear();
    const std::string list = args.get("ranks");
    // Every comma-separated entry is checked, an empty one ('', "8,") too.
    for (std::size_t pos = 0; pos <= list.size();) {
      std::size_t next = list.find(',', pos);
      if (next == std::string::npos) next = list.size();
      ranks.push_back(flag_u64("--ranks", list.substr(pos, next - pos), 1));
      pos = next + 1;
    }
  }
  noise::ScalabilityParams params;
  params.granularity = args.get_scaled("granularity-us", 1000, kNsPerUs, 1);
  params.iterations =
      static_cast<std::uint32_t>(args.get_u64("iterations", 200, 1, UINT32_MAX));

  const query::Plan plan = command_plan(args, "summary");
  const auto model = load(args, plan);
  noise::NoiseAnalysis analysis(*model, plan.options);
  const noise::NoiseProfile profile = noise::NoiseProfile::from_analysis(analysis);
  std::printf("profile: %.0f noise events/s/rank, mean %s, %.3f%% of rank time\n\n",
              profile.events_per_sec,
              fmt_duration(static_cast<DurNs>(profile.mean_duration_ns)).c_str(),
              100.0 * profile.noise_fraction);

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
  std::vector<std::string> field_flags;
  for (const serve::FieldSpec& f : serve::field_table())
    if (const std::string flag = field_flag(f); !flag.empty()) field_flags.push_back(flag);
  std::vector<Flag> flags(std::begin(kFlags), std::end(kFlags));
  for (const std::string& flag : field_flags) flags.push_back({flag, Takes::kValue});
  // The command is argv[1]: the parser skips it as it skips a program name.
  const Args args(argc - 1, argv + 1, flags);
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
  } catch (const query::PlanError& e) {
    // A plan the engine cannot run: usage (exit 2) when the request itself
    // is bad, a trace error (exit 1) when this trace cannot satisfy it.
    std::fprintf(stderr, "error: %s\n", e.what());
    return e.kind() == query::PlanError::Kind::kBadPlan ? 2 : 1;
  }
  return usage();
}
