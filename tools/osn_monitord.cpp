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
#include <cstdlib>
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

const char* arg_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "error: %s expects a value\n", argv[i]);
    std::exit(usage());
  }
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  std::string replay;
  std::string port_file;
  double speed = 0.0;
  bool serve_store = true;
  monitor::MonitorOptions mopts;
  serve::ServerOptions sopts;
  sopts.workers = 2;
  DurNs inject_at_ns = 0;
  bool inject = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Checked numbers (common/flag_value.hpp); ms/us counts are bounded so
    // the nanosecond product cannot wrap.
    const auto u64 = [&](std::uint64_t lo, std::uint64_t hi = kU64Max) {
      return flag_u64(arg, arg_value(argc, argv, i), lo, hi);
    };
    const auto ms_flag = [&](std::uint64_t lo) { return u64(lo, kU64Max / kNsPerMs) * kNsPerMs; };
    const auto us_flag = [&](std::uint64_t lo) { return u64(lo, kU64Max / kNsPerUs) * kNsPerUs; };
    const auto real = [&] { return flag_double(arg, arg_value(argc, argv, i)); };
    if (arg == "--replay") {
      replay = arg_value(argc, argv, i);
    } else if (arg == "--dir") {
      mopts.store.dir = arg_value(argc, argv, i);
    } else if (arg == "--speed") {
      speed = real();
    } else if (arg == "--segment-ms") {
      mopts.store.segment_ns = ms_flag(0);
    } else if (arg == "--segment-bytes") {
      mopts.store.segment_bytes = u64(0);
    } else if (arg == "--retain-ms") {
      mopts.store.retain_ns = ms_flag(0);
    } else if (arg == "--retain-bytes") {
      mopts.store.retain_bytes = u64(0);
    } else if (arg == "--no-compact") {
      mopts.store.compact = false;
    } else if (arg == "--chunk-records") {
      mopts.store.chunk_records = static_cast<std::size_t>(u64(1));
    } else if (arg == "--window-ms") {
      mopts.window_ns = ms_flag(1);
    } else if (arg == "--warmup") {
      mopts.detector.warmup_windows = static_cast<std::size_t>(u64(0));
    } else if (arg == "--sigma") {
      mopts.detector.sigma = real();
    } else if (arg == "--min-ratio") {
      mopts.detector.min_ratio = real();
    } else if (arg == "--sustain") {
      mopts.detector.sustain = static_cast<std::size_t>(u64(0));
    } else if (arg == "--inject-at-ms") {
      inject = true;
      inject_at_ns = ms_flag(0);
    } else if (arg == "--inject-period-us") {
      mopts.inject.period_ns = us_flag(1);
    } else if (arg == "--inject-duration-us") {
      mopts.inject.duration_ns = us_flag(0);
    } else if (arg == "--host") {
      sopts.host = arg_value(argc, argv, i);
    } else if (arg == "--port") {
      sopts.port = static_cast<std::uint16_t>(u64(0, 65535));
    } else if (arg == "--port-file") {
      port_file = arg_value(argc, argv, i);
    } else if (arg == "--workers") {
      sopts.workers = static_cast<std::size_t>(u64(0, kMaxFlagThreads));
    } else if (arg == "--no-serve") {
      serve_store = false;
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      return usage();
    }
  }
  if (replay.empty() || mopts.store.dir.empty()) {
    std::fprintf(stderr, "error: --replay and --dir are required\n");
    return usage();
  }

  try {
    trace::OsntReader reader(replay);
    const trace::TraceMeta meta = reader.meta();
    if (inject) {
      mopts.inject.enabled = true;
      mopts.inject.start_ns = meta.start_ns + inject_at_ns;
    }
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
      if (!port_file.empty()) {
        std::FILE* f = std::fopen(port_file.c_str(), "w");
        if (!f) {
          std::fprintf(stderr, "error: cannot write %s\n", port_file.c_str());
          return 1;
        }
        std::fprintf(f, "%u\n", server.port());
        std::fclose(f);
      }
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
