// Figure 8 — run_timer_softirq time distributions (AMG vs UMT).
//
// "The run_timer_softirq softirq has a long-tail density function": the
// bench verifies the long tail quantitatively (mean far above the median,
// 99.9th percentile an order of magnitude above the mode).
#include <cstdio>

#include "bench_common.hpp"
#include "export/csv.hpp"
#include "stats/histogram.hpp"
#include "stats/percentile.hpp"

namespace {

std::vector<double> softirq_durations(const osn::noise::NoiseAnalysis& analysis) {
  std::vector<double> out;
  for (const auto& iv : osn::noise::merge_kernel_shards(analysis.intervals().kernel_by_cpu))
    if (iv.kind == osn::noise::ActivityKind::kTimerSoftirq)
      out.push_back(static_cast<double>(iv.self));
  return out;
}

}  // namespace

int main() {
  using namespace osn;
  bench::print_header("Figure 8", "run_timer_softirq distributions (AMG vs UMT)");

  bool long_tails = true;
  for (const auto app : {workloads::SequoiaApp::kAmg, workloads::SequoiaApp::kUmt}) {
    const trace::TraceModel model = bench::sequoia_trace(app);
    noise::NoiseAnalysis analysis(model);
    const auto durations = softirq_durations(analysis);
    const double cut = stats::exact_quantile(durations, 0.99);
    stats::Histogram h(0, cut, 36);
    double mean = 0;
    for (const double d : durations) {
      h.add(d);
      mean += d;
    }
    mean /= static_cast<double>(durations.size());
    const double median = stats::exact_quantile(durations, 0.5);
    const double p999 = stats::exact_quantile(durations, 0.999);

    std::printf("%s\n",
                stats::render_histogram(h, "Fig 8 — " + workloads::app_name(app) +
                                               " run_timer_softirq (ns), 99th pct cut",
                                        "ns")
                    .c_str());
    std::printf("%s: median %.0f ns, mean %.0f ns, p99.9 %.0f ns (paper avg: %.0f)\n\n",
                workloads::app_name(app).c_str(), median, mean, p999,
                workloads::paper_data(app).timer_softirq.avg_ns);
    // Long tail: mean pulled above the median, extreme tail far out.
    if (!(mean > 1.1 * median && p999 > 4.0 * median)) long_tails = false;

    bench::write_output("fig08_" + workloads::app_name(app) + "_timer_softirq_hist.csv",
                        exporter::histogram_csv(h));
  }
  bench::check(long_tails, "run_timer_softirq has a long-tail density (Fig 8)");
  return 0;
}
