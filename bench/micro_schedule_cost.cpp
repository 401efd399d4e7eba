// §IV-C — "the overhead introduced by the schedule function is negligible
// and constant, confirming the effectiveness of the new Completely Fair
// Scheduler": per-application schedule() statistics.
#include <cstdio>

#include "bench_common.hpp"
#include "stats/summary.hpp"

int main() {
  using namespace osn;
  bench::print_header("§IV-C", "schedule() is negligible and constant");

  TextTable table({"app", "count", "avg(nsec)", "stddev(nsec)", "max(nsec)",
                   "share of total noise"});
  bool all_negligible = true, all_constant = true;

  for (std::size_t i = 0; i < workloads::kSequoiaAppCount; ++i) {
    const auto app = static_cast<workloads::SequoiaApp>(i);
    const trace::TraceModel model = bench::sequoia_trace(app);
    noise::NoiseAnalysis analysis(model);

    stats::StreamingSummary s;
    for (const auto& iv : noise::merge_kernel_shards(analysis.intervals().kernel_by_cpu))
      if (iv.kind == noise::ActivityKind::kSchedule)
        s.add(static_cast<double>(iv.self));

    DurNs sched_noise = 0, total_noise = 0;
    for (const auto& iv : analysis.noise_intervals()) {
      if (categorize(iv.kind) == noise::NoiseCategory::kRequestedService) continue;
      total_noise += analysis.charged(iv);
      if (iv.kind == noise::ActivityKind::kSchedule)
        sched_noise += analysis.charged(iv);
    }
    const double share = total_noise == 0
                             ? 0.0
                             : static_cast<double>(sched_noise) /
                                   static_cast<double>(total_noise);
    table.add_row({workloads::app_name(app), std::to_string(s.count()),
                   fmt_fixed(s.mean(), 0), fmt_fixed(s.stddev(), 0),
                   with_commas(static_cast<std::uint64_t>(s.max())),
                   fmt_percent(share, 2)});
    if (s.mean() > 1'000) all_negligible = false;              // sub-microsecond
    if (s.stddev() > 0.5 * s.mean()) all_constant = false;     // tight spread
  }
  std::printf("%s\n", table.render().c_str());
  bench::check(all_negligible, "schedule() average is sub-microsecond everywhere");
  bench::check(all_constant, "schedule() duration is near-constant (low spread)");
  return 0;
}
