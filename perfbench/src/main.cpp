// osn-pipeline-bench — the end-to-end OS-noise pipeline benchmark.
//
//   osn-pipeline-bench --workload <trace-to-report|dashboard|monitor-ingest>
//                      --seed N --seconds S --trace 0|1
//                      [--work-dir DIR] [--out-dir DIR] [--git-rev REV]
//                      [--amg-seconds T]
//
// Sets the workload up five times (set-up time is the median of the CPU
// time each set-up costs), measures for S seconds and prints human-readable
// report lines followed, as the last line of stdout, by one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the workload untraced for S/2 and
// traced for S/2 and reports the per-layer metrics (README.md has the
// catalog). --amg-seconds sets the simulated length of trace-to-report's
// AMG runs (default 6; README.md, "Known defects"). Exits non-zero when any output check
// fails or the build is not an optimised, unsanitized one.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace {

using namespace osn;
using namespace osn::bench;

constexpr int kSetupRepeats = 5;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (names/units as in
// BENCHMARK.json). Their per-workload meaning is in README.md: each
// workload has a read path (p50_cpu_ms, the median CPU time of one query)
// and a write path (throughput_per_cpu_s, items written per CPU second).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"p50_cpu_ms", "ms"},
    {"throughput_per_cpu_s", "1/s"},
};

constexpr const char* kLayers[] = {"sim",  "kernel", "workloads", "tracebuf", "trace", "noise",
                                   "export", "query", "net", "serve", "monitor"};

constexpr const char* kOps[] = {"summary", "timeseries", "topk", "chart", "window", "refresh"};
constexpr const char* kWires[] = {"json", "osnb"};

// Per-layer metrics of the traced run (every workload reports every one;
// layers a workload leaves idle read 0).
constexpr MetricSpec kPerLayer[] = {
    {"sim.offline_run_ms", "ms"},
    {"sim.events_per_s", "1/s"},
    {"workloads.live_run_ms", "ms"},
    {"tracebuf.records", "count"},
    {"tracebuf.batches", "count"},
    {"tracebuf.mean_batch", "count"},
    {"tracebuf.lost", "count"},
    {"tracebuf.producer_stalls", "count"},
    {"trace.append_ms", "ms"},
    {"trace.finish_ms", "ms"},
    {"trace.bytes_per_event", "B"},
    {"noise.streaming_ms", "ms"},
    {"trace.decode_ms", "ms"},
    {"trace.decode_serial_ms", "ms"},
    {"trace.decode_mb_per_s", "MB/s"},
    {"noise.analysis_ms", "ms"},
    {"noise.analysis_serial_ms", "ms"},
    {"export.render_ms", "ms"},
    {"query.fast_path_summary_ms", "ms"},
    {"query.result_cache_hit_ratio", "ratio"},
    {"query.model_cache_hit_ratio", "ratio"},
    {"query.model_cache_evictions", "count"},
    {"query.engine_cold_ms", "ms"},
    {"query.engine_cached_ms", "ms"},
    {"query.rolling_run_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.shed", "count"},
    {"serve.deadline_exceeded", "count"},
    {"net.requests_json", "count"},
    {"net.requests_osnb", "count"},
    {"net.write_queue_hwm", "B"},
    {"monitor.ingest_ns_per_rec", "ns"},
    {"monitor.rotations", "count"},
    {"monitor.compactions", "count"},
    {"monitor.forced_cuts", "count"},
    {"monitor.store_bytes_per_rec", "B"},
    {"monitor.alerts", "count"},
    {"bench.untraced_frac", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.gen_lag_p99_ms", "ms"},
    {"bench.failed_frac", "ratio"},
    {"bench.cold_share", "ratio"},
};

std::vector<MetricSpec> per_layer_specs() {
  static std::vector<std::string> names;  // stable storage for generated names
  std::vector<MetricSpec> out(std::begin(kPerLayer), std::end(kPerLayer));
  if (names.empty()) {
    for (const char* op : kOps)
      for (const char* wire : kWires)
        names.push_back(std::string("serve.rtt_ms.") + op + "." + wire);
    for (const char* layer : kLayers) names.push_back(std::string(layer) + ".self_ms");
  }
  for (const std::string& n : names) out.push_back({n.c_str(), "ms"});
  return out;
}

std::string arg(int argc, char** argv, const std::string& key, const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (argv[i] == "--" + key) return argv[i + 1];
  return fallback;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool build_is_valid(std::string& why) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why = "sanitizer build";
  return false;
#endif
#if !defined(__OPTIMIZE__)
  why = "unoptimised build";
  return false;
#endif
  const std::string type = OSN_BENCH_BUILD_TYPE;
  if (type == "Debug" || type.empty()) {
    why = "build type '" + type + "'";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold each time a mapped block is freed, so in
  // a process that runs the same work again and again the large buffers move
  // onto the heap, which keeps what it frees; how much it keeps depends on
  // the order of frees across threads, and peak RSS swung by 5-10 % between
  // runs. Pinned at glibc's initial 128 KiB, every iteration allocates its
  // large buffers afresh, as a newly started osn-analyze or osn-monitord
  // does, and peak RSS follows live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options o;
  const std::string workload = arg(argc, argv, "workload", "");
  o.seed = std::strtoull(arg(argc, argv, "seed", "1").c_str(), nullptr, 10);
  o.seconds = std::strtod(arg(argc, argv, "seconds", "10").c_str(), nullptr);
  o.traced = arg(argc, argv, "trace", "0") == "1";
  o.amg_seconds = std::strtod(arg(argc, argv, "amg-seconds", "6").c_str(), nullptr);
  o.work_dir = arg(argc, argv, "work-dir", ".bench_build/work") + "/run-" +
               std::to_string(getpid());
  o.nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::string out_dir = arg(argc, argv, "out-dir", ".bench_build/out");
  const std::string git_rev = arg(argc, argv, "git-rev", "unknown");

  const std::string stamp = "{\"nproc\": " + std::to_string(o.nproc) +
                            ", \"cpu\": " + json_str(cpu_model()) +
                            ", \"compiler\": " + json_str(OSN_BENCH_COMPILER) +
                            ", \"build_type\": " + json_str(OSN_BENCH_BUILD_TYPE) +
                            ", \"git_rev\": " + json_str(git_rev) + "}";
  std::printf("stamp: %s\n", stamp.c_str());
  std::string invalid;
  if (!build_is_valid(invalid)) {
    std::fprintf(stderr, "error: %s — results would not be representative; not reported\n",
                 invalid.c_str());
    return 3;
  }

  Tracer tracer;
  std::unique_ptr<Workload> w;
  if (workload == "trace-to-report") w = make_trace_to_report(o, tracer);
  else if (workload == "dashboard") w = make_dashboard(o, tracer);
  else if (workload == "monitor-ingest") w = make_monitor_ingest(o, tracer);
  if (!w || !(o.seconds > 0) || !(o.amg_seconds >= 1)) {
    std::fprintf(stderr,
                 "usage: osn-pipeline-bench --workload <trace-to-report|dashboard|"
                 "monitor-ingest> --seed N --seconds S --trace 0|1 [--amg-seconds T]\n");
    return 2;
  }

  // Set-up cost is counted in CPU time (this process and the simulations it
  // forks), as the gated figures are; the wall time is reported beside it.
  Samples setup, setup_wall;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const TimeNs t0 = now_ns();
    const DurNs c0 = process_tree_cpu_ns();
    w->setup();
    setup.add(to_s(process_tree_cpu_ns() - c0));
    setup_wall.add(to_s(now_ns() - t0));
  }

  Result r;
  Result untraced;
  if (!o.traced) {
    w->measure(o.seconds, r);
  } else {
    w->measure(o.seconds / 2, untraced);
    tracer.enable(true);
    w->measure(o.seconds / 2, r);
    tracer.enable(false);
    r.attempted += untraced.attempted;
    r.failed += untraced.failed;
    r.check_failures.insert(r.check_failures.end(), untraced.check_failures.begin(),
                            untraced.check_failures.end());
  }
  w->teardown();
  remove_tree(o.work_dir);

  r.set("setup_s", setup.median(), "s", setup.size());
  // Workloads that run a verification pass after measuring record their
  // peak before it.
  if (!r.metrics.count("peak_rss_mb")) r.set("peak_rss_mb", peak_rss_mb(), "MB");
  const double failed_frac =
      r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0;
  r.note("failed_frac = " + fmt(failed_frac) + " (" + std::to_string(r.failed) + " of " +
         std::to_string(r.attempted) + " operations)");
  r.note("setup_s = " + fmt(setup.median()) + " s of CPU time (median of " +
         std::to_string(setup.size()) + " set-ups; wall " + fmt(setup_wall.median()) + " s)");

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  std::vector<MetricSpec> specs;
  if (o.traced) {
    const std::vector<Span> spans = tracer.snapshot();
    const auto self = layer_self_ms(spans);
    for (const char* layer : kLayers) {
      auto it = self.find(layer);
      r.set(std::string(layer) + ".self_ms", it == self.end() ? 0.0 : it->second, "ms");
    }
    r.set("bench.untraced_frac", untraced_fraction(spans), "ratio");
    r.set("bench.trace_overhead_frac",
          untraced.primary > 0 ? r.primary / untraced.primary - 1.0 : 0.0, "ratio");
    r.set("bench.failed_frac", failed_frac, "ratio");
    r.note("traced run: " + std::to_string(spans.size()) + " spans; untraced share " +
           fmt(r.metrics["bench.untraced_frac"].value) + ", trace overhead " +
           fmt(r.metrics["bench.trace_overhead_frac"].value));
    const std::string span_path =
        out_dir + "/spans-" + workload + "-seed" + std::to_string(o.seed) + ".jsonl";
    if (write_spans(span_path, spans)) r.note("spans written to " + span_path);
    specs = per_layer_specs();
  } else {
    specs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }

  std::string metrics_json;
  std::string full_json;
  for (const MetricSpec& spec : specs) {
    auto it = r.metrics.find(spec.name);
    double value = it == r.metrics.end() ? 0.0 : it->second.value;
    const std::size_t n = it == r.metrics.end() ? 0 : it->second.samples;
    if (!o.traced) r.check(it != r.metrics.end(), std::string("metric measured: ") + spec.name);
    if (!std::isfinite(value)) {
      r.check(false, std::string("metric is finite: ") + spec.name);
      value = 0.0;
    }
    if (!o.traced) r.check(value > 0.0, std::string("metric is positive: ") + spec.name);
    std::printf("%-32s %14.6g %-6s%s\n", spec.name, value, spec.unit,
                n ? (" (n=" + std::to_string(n) + ")").c_str() : "");
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += json_str(spec.name) + ": {\"value\": " + num(value) +
                    ", \"unit\": " + json_str(spec.unit) + "}";
    if (!full_json.empty()) full_json += ",\n    ";
    full_json += json_str(spec.name) + ": {\"value\": " + num(value) +
                 ", \"unit\": " + json_str(spec.unit) + ", \"samples\": " + std::to_string(n) +
                 "}";
  }
  for (const std::string& line : r.notes) std::printf("  %s\n", line.c_str());
  for (const std::string& f : r.check_failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = r.check_failures.empty();

  std::ofstream full(out_dir + "/" + workload + "-seed" + std::to_string(o.seed) + "-trace" +
                     (o.traced ? "1" : "0") + ".json");
  full << "{\n  \"workload\": " << json_str(workload) << ",\n  \"seed\": " << o.seed
       << ",\n  \"seconds\": " << num(o.seconds) << ",\n  \"stamp\": " << stamp
       << ",\n  \"correct\": " << (correct ? "true" : "false") << ",\n  \"attempted\": "
       << r.attempted << ",\n  \"failed\": " << r.failed << ",\n  \"metrics\": {\n    "
       << full_json << "\n  }\n}\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
