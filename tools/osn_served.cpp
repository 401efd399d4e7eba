// osn-served — the trace-query daemon.
//
// Serves a directory of OSNT traces over the line-delimited JSON protocol
// (src/serve/protocol.hpp): `osn-analyze query` is the matching client.
// Binds loopback by default; --port 0 asks the kernel for a free port and
// --port-file publishes whichever port was bound (how scripted harnesses
// avoid port races). SIGTERM/SIGINT trigger a graceful drain: in-flight
// requests finish, idle connections are told "shutting_down", then the
// process exits 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/clock.hpp"
#include "common/flag_value.hpp"
#include "serve/server.hpp"

namespace {

using namespace osn;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(stderr,
               "osn-served — serve OSNT traces to osn-analyze query clients\n\n"
               "  osn-served --dir DIR [--host H] [--port N] [--port-file FILE]\n"
               "             [--workers N] [--max-inflight N] [--cache-mb N]\n"
               "             [--model-cache-mb N] [--deadline-ms N]\n"
               "             [--idle-timeout-ms N] [--poll-backend]\n\n"
               "  --dir DIR          directory of .osnt trace files (required)\n"
               "  --host H           bind address (default 127.0.0.1)\n"
               "  --port N           TCP port, at most 65535; 0 = kernel-assigned\n"
               "                     (default 0)\n"
               "  --port-file FILE   write the bound port to FILE once listening\n"
               "  --workers N        request worker threads (default 4, at most 1024)\n"
               "  --max-inflight N   connections served concurrently before the\n"
               "                     server sheds with 'overloaded' (default 32)\n"
               "  --cache-mb N       result cache budget in MiB (default 64)\n"
               "  --model-cache-mb N decoded-model cache budget in MiB (default 256)\n"
               "  --deadline-ms N    default per-request deadline (default none)\n"
               "  --idle-timeout-ms N  close connections idle this long\n"
               "                     (default: keep them forever)\n"
               "  --poll-backend     use the portable poll(2) readiness backend\n"
               "                     instead of epoll\n\n"
               "Numbers are whole decimals; a malformed or out-of-range value\n"
               "exits 2 with `error: --<flag> ...`.\n");
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
  serve::ServerOptions options;
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Checked numbers (common/flag_value.hpp).
    const auto u64 = [&](std::uint64_t hi) {
      return flag_u64(arg, arg_value(argc, argv, i), 0, hi);
    };
    if (arg == "--dir") {
      options.dir = arg_value(argc, argv, i);
    } else if (arg == "--host") {
      options.host = arg_value(argc, argv, i);
    } else if (arg == "--port") {
      options.port = static_cast<std::uint16_t>(u64(65535));
    } else if (arg == "--port-file") {
      port_file = arg_value(argc, argv, i);
    } else if (arg == "--workers") {
      options.workers = static_cast<std::size_t>(u64(kMaxFlagThreads));
    } else if (arg == "--max-inflight") {
      options.max_inflight = static_cast<std::size_t>(u64(kU64Max));
    } else if (arg == "--cache-mb") {
      options.result_cache_bytes = u64(kU64Max >> 20) << 20;
    } else if (arg == "--model-cache-mb") {
      options.model_cache_bytes = u64(kU64Max >> 20) << 20;
    } else if (arg == "--deadline-ms") {
      options.default_deadline = u64(kU64Max / kNsPerMs) * kNsPerMs;
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout = u64(kU64Max / kNsPerMs) * kNsPerMs;
    } else if (arg == "--poll-backend") {
      options.use_poll_backend = true;
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      return usage();
    }
  }
  if (options.dir.empty()) {
    std::fprintf(stderr, "error: --dir is required\n");
    return usage();
  }

  serve::Server server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: cannot listen on %s:%u: %s\n", options.host.c_str(),
                 options.port, error.c_str());
    return 1;
  }

  std::fprintf(stderr, "osn-served: serving %s on %s:%u (%zu workers, %s backend)\n",
               options.dir.c_str(), options.host.c_str(), server.port(),
               options.workers, server.backend());
  if (!port_file.empty()) {
    // The port file is the readiness signal for scripts: written (atomically
    // enough for a <6-byte file) only after listen() succeeded.
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  while (!g_stop) Deadline::after(100 * kNsPerMs).sleep_remaining();

  std::fprintf(stderr, "osn-served: draining (%llu requests served, %llu shed)\n",
               static_cast<unsigned long long>(server.metrics().requests()),
               static_cast<unsigned long long>(server.metrics().shed()));
  server.stop();
  return 0;
}
