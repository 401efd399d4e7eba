// Figure 6 — run_rebalance_domains time distributions (UMT vs IRS).
//
// IRS: "fairly compact distribution with a main pick around 1.80 us".
// UMT: "much larger distribution with average of 3.36 us" — Python helpers
// give the balancer a tougher job.
#include <cstdio>

#include "bench_common.hpp"
#include "export/csv.hpp"
#include "stats/histogram.hpp"
#include "stats/percentile.hpp"
#include "stats/summary.hpp"

namespace {

struct Dist {
  osn::stats::Histogram histogram;
  osn::stats::StreamingSummary summary;
};

Dist rebalance_dist(const osn::noise::NoiseAnalysis& analysis) {
  std::vector<double> durations;
  for (const auto& iv : osn::noise::merge_kernel_shards(analysis.intervals().kernel_by_cpu))
    if (iv.kind == osn::noise::ActivityKind::kRebalanceSoftirq)
      durations.push_back(static_cast<double>(iv.self));
  const double cut = osn::stats::exact_quantile(durations, 0.99);
  Dist d{osn::stats::Histogram(0, cut, 36), {}};
  for (const double v : durations) {
    d.histogram.add(v);
    d.summary.add(v);
  }
  return d;
}

}  // namespace

int main() {
  using namespace osn;
  bench::print_header("Figure 6", "run_rebalance_domains distributions (UMT vs IRS)");

  const trace::TraceModel umt_model = bench::sequoia_trace(workloads::SequoiaApp::kUmt);
  noise::NoiseAnalysis umt(umt_model);
  const Dist umt_d = rebalance_dist(umt);
  std::printf("%s\n", stats::render_histogram(
                          umt_d.histogram,
                          "Fig 6a — UMT run_rebalance_domains (ns), 99th pct cut", "ns")
                          .c_str());
  std::printf("UMT: mean %.0f ns, stddev %.0f ns  (paper: avg 3360 ns, wide)\n\n",
              umt_d.summary.mean(), umt_d.summary.stddev());

  const trace::TraceModel irs_model = bench::sequoia_trace(workloads::SequoiaApp::kIrs);
  noise::NoiseAnalysis irs(irs_model);
  const Dist irs_d = rebalance_dist(irs);
  std::printf("%s\n", stats::render_histogram(
                          irs_d.histogram,
                          "Fig 6b — IRS run_rebalance_domains (ns), 99th pct cut", "ns")
                          .c_str());
  std::printf("IRS: mean %.0f ns, stddev %.0f ns  (paper: main pick ~1800 ns, compact)\n\n",
              irs_d.summary.mean(), irs_d.summary.stddev());

  bench::check(std::abs(umt_d.summary.mean() - 3360) < 500,
               "UMT rebalance mean near 3.36 us");
  bench::check(std::abs(irs_d.summary.mean() - 1850) < 350,
               "IRS rebalance mean near 1.8 us");
  const double umt_cv = umt_d.summary.stddev() / umt_d.summary.mean();
  const double irs_cv = irs_d.summary.stddev() / irs_d.summary.mean();
  bench::check(umt_cv > 2.0 * irs_cv,
               "UMT distribution much wider than IRS (cv " +
                   fmt_fixed(umt_cv, 2) + " vs " + fmt_fixed(irs_cv, 2) + ")");

  bench::write_output("fig06a_umt_rebalance_hist.csv",
                      exporter::histogram_csv(umt_d.histogram));
  bench::write_output("fig06b_irs_rebalance_hist.csv",
                      exporter::histogram_csv(irs_d.histogram));
  return 0;
}
