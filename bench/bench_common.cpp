#include "bench_common.hpp"

#include <cstdlib>
#include <sys/stat.h>

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

trace::TraceModel sequoia_trace(workloads::SequoiaApp app) {
  ::mkdir("bench_cache", 0755);
  const std::string path = "bench_cache/" + workloads::app_name(app) + "_" +
                           std::to_string(bench_seconds()) + "s_seed" +
                           std::to_string(bench_seed()) + ".osnt";
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    std::fprintf(stderr, "[cache] %s\n", path.c_str());
    return trace::read_trace_file(path);
  }
  std::fprintf(stderr, "[run]   %s for %llus...\n", workloads::app_name(app).c_str(),
               static_cast<unsigned long long>(bench_seconds()));
  workloads::SequoiaWorkload wl(app, sec(bench_seconds()));
  workloads::RunResult run = workloads::run_workload(wl, bench_seed());
  write_trace_file(run.trace, path);
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
