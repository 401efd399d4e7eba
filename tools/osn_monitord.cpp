// osn-monitord — the always-on monitoring daemon.
//
// Replays an OSNT file through OsntReader (merged record order, optionally
// paced to real time) into the monitoring pipeline (src/monitor/): the rolling
// segment store rotates, retains and compacts OSNT v3 segments under
// --dir, while the baseline/regression detector watches windowed noise
// metrics and raises alerts on sustained deviations. The store directory
// doubles as an osn-served catalog: this daemon embeds the same serve
// stack, so `osn-analyze query list/summary/... --port N` works against
// the live store, and the monitor-only ops (`monitor_status`, `alerts`,
// `refresh`) answer from the attached Monitor on both wires.
//
// Replay is driven by trace time, not wall clock (see segment_store.hpp),
// so the same input file yields the identical segment layout every run;
// --speed only throttles how fast the records are fed, never what is
// written.
#include <csignal>
#include <cstdio>
#include <string>

#include "common/clock.hpp"
#include "common/flag_value.hpp"
#include "monitor/monitor.hpp"
#include "serve/server.hpp"
#include "trace/osnt_reader.hpp"

namespace {

using namespace osn;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(
      stderr,
      "osn-monitord — always-on noise monitor with a rolling segment store\n\n"
      "  osn-monitord --replay FILE --dir DIR [store options] [detector\n"
      "               options] [serve options]\n\n"
      "  --replay FILE        OSNT trace to replay as the event source\n"
      "  --dir DIR            segment store directory (created if missing)\n"
      "  --speed X            pace replay at X times real time (0 = unpaced,\n"
      "                       the default)\n\n"
      "store options:\n"
      "  --segment-ms N       rotate segments after N ms of trace time\n"
      "                       (default 1000; 0 = no time-based rotation)\n"
      "  --segment-bytes N    ... or after N flushed bytes (default 8388608)\n"
      "  --retain-ms N        expire full-res segments older than N ms behind\n"
      "                       the newest (default 0 = keep everything)\n"
      "  --retain-bytes N     ... or beyond N full-res bytes (default 0)\n"
      "  --no-compact         delete expired segments instead of downsampling\n"
      "                       them to summary segments\n"
      "  --chunk-records N    records per chunk in each segment (default 4096,\n"
      "                       at least 1)\n\n"
      "detector options:\n"
      "  --window-ms N        baseline window length (default 50, at least 1)\n"
      "  --warmup N           windows to learn the baseline (default 8)\n"
      "  --sigma X            alert threshold in stddevs (default 4.0)\n"
      "  --min-ratio X        ... and at least X times the mean (default 1.5)\n"
      "  --sustain N          consecutive bad windows before alerting (default 3)\n"
      "  --inject-at-ms N     inject synthetic noise from N ms of trace time\n"
      "                       (validation aid; observations only, the stored\n"
      "                       segments are untouched)\n"
      "  --inject-period-us N injection period (default 2000, at least 1)\n"
      "  --inject-duration-us N  injected interval length (default 200)\n\n"
      "serve options:\n"
      "  --host H             bind address (default 127.0.0.1)\n"
      "  --port N             TCP port, at most 65535; 0 = kernel-assigned\n"
      "                       (default 0)\n"
      "  --port-file FILE     write the bound port to FILE once listening\n"
      "  --workers N          request worker threads (default 2, at most 1024)\n"
      "  --no-serve           exit after the replay instead of serving\n\n"
      "Numbers are whole decimals (--speed, --sigma, --min-ratio: any finite\n"
      "number); a malformed or out-of-range value exits 2 with\n"
      "`error: --<flag> ...`.\n");
  return 2;
}

constexpr Flag kFlags[] = {
    {"replay", Takes::kValue},           {"dir", Takes::kValue},
    {"speed", Takes::kValue},            {"segment-ms", Takes::kValue},
    {"segment-bytes", Takes::kValue},    {"retain-ms", Takes::kValue},
    {"retain-bytes", Takes::kValue},     {"no-compact", Takes::kNothing},
    {"chunk-records", Takes::kValue},    {"window-ms", Takes::kValue},
    {"warmup", Takes::kValue},           {"sigma", Takes::kValue},
    {"min-ratio", Takes::kValue},        {"sustain", Takes::kValue},
    {"inject-at-ms", Takes::kValue},     {"inject-period-us", Takes::kValue},
    {"inject-duration-us", Takes::kValue}, {"host", Takes::kValue},
    {"port", Takes::kValue},             {"port-file", Takes::kValue},
    {"workers", Takes::kValue},          {"no-serve", Takes::kNothing},
};

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, kFlags);
  args.reject_positionals();
  const std::string replay = args.get("replay");
  const double speed = args.get_double("speed", 0.0);
  const bool serve_store = !args.has("no-serve");
  const DurNs inject_at_ns = args.get_scaled("inject-at-ms", 0, kNsPerMs);

  monitor::MonitorOptions mopts;
  monitor::StoreOptions& store = mopts.store;
  store.dir = args.get("dir");
  store.segment_ns = args.get_scaled("segment-ms", store.segment_ns / kNsPerMs, kNsPerMs);
  store.segment_bytes = args.get_u64("segment-bytes", store.segment_bytes);
  store.retain_ns = args.get_scaled("retain-ms", store.retain_ns / kNsPerMs, kNsPerMs);
  store.retain_bytes = args.get_u64("retain-bytes", store.retain_bytes);
  store.compact = !args.has("no-compact");
  store.chunk_records = args.get_u64("chunk-records", store.chunk_records, 1);
  mopts.window_ns = args.get_scaled("window-ms", mopts.window_ns / kNsPerMs, kNsPerMs, 1);
  monitor::DetectorOptions& detector = mopts.detector;
  detector.warmup_windows = args.get_u64("warmup", detector.warmup_windows);
  detector.sigma = args.get_double("sigma", detector.sigma);
  detector.min_ratio = args.get_double("min-ratio", detector.min_ratio);
  detector.sustain = args.get_u64("sustain", detector.sustain);
  monitor::InjectOptions& inject = mopts.inject;
  inject.enabled = args.has("inject-at-ms");
  inject.period_ns = args.get_scaled("inject-period-us", inject.period_ns / kNsPerUs, kNsPerUs, 1);
  inject.duration_ns =
      args.get_scaled("inject-duration-us", inject.duration_ns / kNsPerUs, kNsPerUs);

  serve::ServerOptions sopts;
  sopts.host = args.get("host", sopts.host);
  sopts.port = static_cast<std::uint16_t>(args.get_u64("port", sopts.port, 0, 65535));
  sopts.workers = args.get_u64("workers", 2, 0, kMaxFlagThreads);
  if (replay.empty() || mopts.store.dir.empty()) {
    std::fprintf(stderr, "error: --replay and --dir are required\n");
    return usage();
  }

  try {
    trace::OsntReader reader(replay);
    const trace::TraceMeta meta = reader.meta();
    inject.start_ns = meta.start_ns + inject_at_ns;
    monitor::Monitor mon(mopts, meta, reader.tasks());
    if (!mon.ok()) {
      std::fprintf(stderr, "error: cannot write segment store in %s\n",
                   mopts.store.dir.c_str());
      return 1;
    }

    // The serve stack comes up before the replay so a dashboard can watch
    // the store fill (list/refresh see segments as they seal).
    sopts.dir = mopts.store.dir;
    sopts.monitor_status = [&mon] { return mon.status_json(); };
    sopts.monitor_alerts = [&mon] { return mon.alerts_json(); };
    serve::Server server(sopts);
    if (serve_store) {
      std::string error;
      if (!server.start(&error)) {
        std::fprintf(stderr, "error: cannot listen on %s:%u: %s\n", sopts.host.c_str(),
                     sopts.port, error.c_str());
        return 1;
      }
      std::fprintf(stderr, "osn-monitord: store %s on %s:%u (%zu workers)\n",
                   mopts.store.dir.c_str(), sopts.host.c_str(), server.port(),
                   sopts.workers);
      if (!server.write_port_file(args.get("port-file"))) return 1;
    }

    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);

    // Replay. Pacing maps trace time onto wall time at 1/speed scale; the
    // sleep is bounded per record so SIGTERM is honoured within ~100ms.
    const TimeNs wall_start = monotonic_now_ns();
    std::uint64_t replayed = 0;
    reader.for_each([&](const tracebuf::EventRecord& rec) {
      if (g_stop) return;
      if (speed > 0.0 && rec.timestamp > meta.start_ns) {
        const auto trace_elapsed = static_cast<double>(rec.timestamp - meta.start_ns);
        const TimeNs due =
            wall_start + static_cast<TimeNs>(trace_elapsed / speed);
        while (!g_stop && monotonic_now_ns() < due)
          Deadline::at(due).sleep_remaining(100 * kNsPerMs);
      }
      mon.ingest(rec);
      ++replayed;
    });
    mon.finish(meta.end_ns);

    const monitor::StoreStats stats = mon.store_stats();
    std::fprintf(stderr,
                 "osn-monitord: replayed %llu records -> %llu segments "
                 "(%llu forced cuts, %llu compacted, %llu deleted), %zu alert(s)\n",
                 static_cast<unsigned long long>(replayed),
                 static_cast<unsigned long long>(stats.segments_sealed),
                 static_cast<unsigned long long>(stats.rotations_forced),
                 static_cast<unsigned long long>(stats.compactions),
                 static_cast<unsigned long long>(stats.segments_deleted),
                 mon.alert_count());
    if (!mon.ok()) {
      std::fprintf(stderr, "error: segment store failed mid-replay\n");
      return 1;
    }

    if (serve_store) {
      while (!g_stop) Deadline::after(100 * kNsPerMs).sleep_remaining();
      std::fprintf(stderr, "osn-monitord: draining (%llu requests served)\n",
                   static_cast<unsigned long long>(server.metrics().requests()));
      server.stop();
    }
  } catch (const trace::TraceReadError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
