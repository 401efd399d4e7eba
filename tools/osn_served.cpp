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

constexpr Flag kFlags[] = {
    {"dir", Takes::kValue},           {"host", Takes::kValue},
    {"port", Takes::kValue},          {"port-file", Takes::kValue},
    {"workers", Takes::kValue},       {"max-inflight", Takes::kValue},
    {"cache-mb", Takes::kValue},      {"model-cache-mb", Takes::kValue},
    {"deadline-ms", Takes::kValue},   {"idle-timeout-ms", Takes::kValue},
    {"poll-backend", Takes::kNothing},
};

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, kFlags);
  args.reject_positionals();
  serve::ServerOptions options;
  options.dir = args.get("dir");
  options.host = args.get("host", options.host);
  options.port = static_cast<std::uint16_t>(args.get_u64("port", options.port, 0, 65535));
  options.workers = args.get_u64("workers", options.workers, 0, kMaxFlagThreads);
  options.max_inflight = args.get_u64("max-inflight", options.max_inflight);
  options.result_cache_bytes =
      args.get_scaled("cache-mb", options.result_cache_bytes >> 20, 1 << 20);
  options.model_cache_bytes =
      args.get_scaled("model-cache-mb", options.model_cache_bytes >> 20, 1 << 20);
  options.default_deadline =
      args.get_scaled("deadline-ms", options.default_deadline / kNsPerMs, kNsPerMs);
  options.idle_timeout =
      args.get_scaled("idle-timeout-ms", options.idle_timeout / kNsPerMs, kNsPerMs);
  options.use_poll_backend = args.has("poll-backend");
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
  if (!server.write_port_file(args.get("port-file"))) return 1;

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  while (!g_stop) Deadline::after(100 * kNsPerMs).sleep_remaining();

  std::fprintf(stderr, "osn-served: draining (%llu requests served, %llu shed)\n",
               static_cast<unsigned long long>(server.metrics().requests()),
               static_cast<unsigned long long>(server.metrics().shed()));
  server.stop();
  return 0;
}
