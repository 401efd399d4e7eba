#include "bench_common.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "trace/osnt_reader.hpp"

namespace osn::bench {

std::uint64_t bench_seconds() {
  if (const char* env = std::getenv("OSN_BENCH_SECONDS"))
    return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
  return 12;
}

std::uint64_t bench_seed() {
  if (const char* env = std::getenv("OSN_BENCH_SEED"))
    return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
  return 1;
}

namespace {

/// The cached trace at `path`, or nullopt when it is missing or was not
/// written to completion. The reader salvages a damaged file (a missing
/// trailer means a scan-rebuilt index and a synthesized meta), so a cache
/// entry counts only when its index and footer are intact.
std::optional<trace::TraceModel> load_cached(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  try {
    trace::OsntReader reader(path);
    if (!reader.truncated() && !reader.index_recovered()) {
      std::fprintf(stderr, "[cache] %s\n", path.c_str());
      return reader.read_all();
    }
  } catch (const trace::TraceReadError&) {
  }
  std::fprintf(stderr, "[stale] %s is damaged; regenerating\n", path.c_str());
  return std::nullopt;
}

}  // namespace

trace::TraceModel sequoia_trace(workloads::SequoiaApp app) {
  ::mkdir("bench_cache", 0755);
  const std::string path = "bench_cache/" + workloads::app_name(app) + "_" +
                           std::to_string(bench_seconds()) + "s_seed" +
                           std::to_string(bench_seed()) + "_v3.osnt";
  if (std::optional<trace::TraceModel> cached = load_cached(path)) return std::move(*cached);
  std::fprintf(stderr, "[run]   %s for %llus...\n", workloads::app_name(app).c_str(),
               static_cast<unsigned long long>(bench_seconds()));
  workloads::SequoiaWorkload wl(app, sec(bench_seconds()));
  workloads::RunResult run = workloads::run_workload(wl, bench_seed());
  // Write under a per-process name and rename into place only once complete,
  // so an interrupted write or a concurrent bench never leaves a partial
  // entry under the cache name.
  const std::string tmp = path + "." + std::to_string(::getpid()) + ".tmp";
  if (!write_trace_file(run.trace, tmp) || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    std::fprintf(stderr, "[warn]  cannot write %s; trace not cached\n", path.c_str());
  }
  return std::move(run.trace);
}

void add_compare_rows(TextTable& table, const std::string& label,
                      const workloads::PaperEventRow& paper,
                      const noise::EventStats& measured) {
  table.add_row({label + " (paper)", fmt_fixed(paper.freq, 0),
                 with_commas(static_cast<std::uint64_t>(paper.avg_ns)),
                 with_commas(static_cast<std::uint64_t>(paper.max_ns)),
                 with_commas(static_cast<std::uint64_t>(paper.min_ns))});
  table.add_row({label + " (measured)", fmt_fixed(measured.freq_ev_per_sec, 0),
                 with_commas(static_cast<std::uint64_t>(measured.avg_ns)),
                 with_commas(measured.max_ns), with_commas(measured.min_ns)});
}

void print_header(const std::string& artifact, const std::string& description) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), description.c_str());
  std::printf("paper: A Quantitative Analysis of OS Noise (IPDPS 2011)\n");
  std::printf("================================================================\n\n");
}

bool check(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? " OK " : "DEV!", what.c_str());
  return ok;
}

void write_output(const std::string& name, const std::string& content) {
  ::mkdir("bench_out", 0755);
  const std::string path = "bench_out/" + name;
  if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "[out]   %s\n", path.c_str());
  }
}

}  // namespace osn::bench
