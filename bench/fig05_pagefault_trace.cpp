// Figure 5 — Page Fault Trace: where faults fall in time.
//
// "We filtered out all the events but the page faults": AMG faults are
// spread through the whole execution with accumulation points; LAMMPS faults
// cluster at initialization and the end.
#include <array>
#include <cstdio>

#include "bench_common.hpp"
#include "export/ascii.hpp"

namespace {

std::array<std::size_t, 10> fault_deciles(const osn::noise::NoiseAnalysis& analysis,
                                          osn::TimeNs duration) {
  std::array<std::size_t, 10> deciles{};
  for (const auto& iv : osn::noise::merge_kernel_shards(analysis.intervals().kernel_by_cpu)) {
    if (iv.kind != osn::noise::ActivityKind::kPageFault) continue;
    const auto d = std::min<std::size_t>(
        9, static_cast<std::size_t>(10 * iv.start / std::max<osn::TimeNs>(duration, 1)));
    ++deciles[d];
  }
  return deciles;
}

void print_deciles(const char* name, const std::array<std::size_t, 10>& d) {
  std::printf("%-8s faults per decile of the run: ", name);
  for (const auto c : d) std::printf("%7zu", c);
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace osn;
  bench::print_header("Figure 5", "page fault temporal traces (AMG vs LAMMPS)");

  const trace::TraceModel amg_model = bench::sequoia_trace(workloads::SequoiaApp::kAmg);
  noise::NoiseAnalysis amg(amg_model);
  std::printf("Fig 5a — AMG, page faults only:\n%s\n",
              exporter::render_timeline(amg, 0, amg_model.duration(), 110,
                                        noise::NoiseCategory::kPageFault)
                  .c_str());

  const trace::TraceModel lmp_model =
      bench::sequoia_trace(workloads::SequoiaApp::kLammps);
  noise::NoiseAnalysis lammps(lmp_model);
  std::printf("Fig 5b — LAMMPS, page faults only:\n%s\n",
              exporter::render_timeline(lammps, 0, lmp_model.duration(), 110,
                                        noise::NoiseCategory::kPageFault)
                  .c_str());

  const auto amg_d = fault_deciles(amg, amg_model.duration());
  const auto lmp_d = fault_deciles(lammps, lmp_model.duration());
  print_deciles("AMG", amg_d);
  print_deciles("LAMMPS", lmp_d);
  std::printf("\n");

  // Shape criteria: every AMG decile is populated; LAMMPS edges dominate.
  std::size_t amg_min = amg_d[0];
  for (const auto c : amg_d) amg_min = std::min(amg_min, c);
  bench::check(amg_min > 50, "AMG faults throughout the whole execution (Fig 5a)");

  std::size_t lmp_middle = 0, lmp_edges = lmp_d[0] + lmp_d[1] + lmp_d[8] + lmp_d[9];
  for (std::size_t i = 2; i <= 7; ++i) lmp_middle += lmp_d[i];
  bench::check(lmp_edges > 2 * lmp_middle,
               "LAMMPS faults mainly at the beginning and the end (Fig 5b)");
  return 0;
}
