// paraver_export: produce the OS Noise Trace deliverables for one
// application — a Paraver trace (.prv/.pcf/.row), the Matlab-style CSV data,
// and the compact binary OSNT trace for later re-analysis.
//
//   usage: paraver_export [amg|irs|lammps|sphot|umt] [seconds] [outdir]
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "export/csv.hpp"
#include "export/paraver.hpp"
#include "noise/analysis.hpp"
#include "trace/trace_io.hpp"
#include "workloads/sequoia.hpp"
#include "workloads/workload.hpp"

int main(int argc, char** argv) {
  using namespace osn;
  const std::map<std::string, workloads::SequoiaApp> apps = {
      {"amg", workloads::SequoiaApp::kAmg},     {"irs", workloads::SequoiaApp::kIrs},
      {"lammps", workloads::SequoiaApp::kLammps}, {"sphot", workloads::SequoiaApp::kSphot},
      {"umt", workloads::SequoiaApp::kUmt}};
  const std::string which = argc > 1 ? argv[1] : "amg";
  auto it = apps.find(which);
  if (it == apps.end()) {
    std::fprintf(stderr, "usage: %s [amg|irs|lammps|sphot|umt] [seconds] [outdir]\n",
                 argv[0]);
    return 1;
  }
  const auto seconds = static_cast<std::uint64_t>(argc > 2 ? std::atoll(argv[2]) : 3);
  const std::string outdir = argc > 3 ? argv[3] : ".";

  workloads::SequoiaWorkload wl(it->second, sec(seconds));
  std::printf("running %s for %llus...\n", wl.name().c_str(),
              static_cast<unsigned long long>(seconds));
  const workloads::RunResult run = workloads::run_workload(wl, /*seed=*/1);
  noise::NoiseAnalysis analysis(run.trace);

  const std::string base = outdir + "/" + which + "_noise";
  if (!exporter::write_paraver(analysis, base)) {
    std::fprintf(stderr, "cannot write %s.prv\n", base.c_str());
    return 1;
  }
  std::printf("wrote %s.prv / .pcf / .row  (open with Paraver/wxparaver)\n",
              base.c_str());

  exporter::write_text_file(base + "_intervals.csv", exporter::intervals_csv(analysis));
  std::printf("wrote %s_intervals.csv  (%zu noise intervals)\n", base.c_str(),
              analysis.noise_intervals().size());

  if (!trace::write_trace_file(run.trace, base + ".osnt")) {
    std::fprintf(stderr, "cannot write %s.osnt\n", base.c_str());
    return 1;
  }
  std::printf("wrote %s.osnt  (%zu raw events, re-analyzable offline)\n", base.c_str(),
              run.trace.total_events());
  return 0;
}
