#include "workloads/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/assert.hpp"

namespace osn::workloads {

namespace {

// Paper values, transcribed from Tables I-VI. Fig 3 percentages quoted in
// the paper's text are exact; the remaining percentages are read from the
// figure (flagged in EXPERIMENTS.md).
const std::array<PaperAppData, kSequoiaAppCount> kPaperData = {{
    {"AMG",
     {1693, 4380, 69398061, 250},   // page faults
     {116, 1552, 347902, 540},      // net irq
     {53, 3031, 98570, 192},        // net_rx_action
     {15, 471, 8227, 176},          // net_tx_action
     {100, 3334, 29422, 795},       // timer irq
     {100, 1718, 49030, 191},       // run_timer_softirq
     6.0, 82.4, 3.0, 5.0, 3.6},
    {"IRS",
     {1488, 4202, 4825103, 218},
     {87, 1666, 353294, 521},
     {43, 4460, 78236, 174},
     {10, 504, 4725, 176},
     {100, 6289, 35734, 867},
     {100, 3897, 57663, 193},
     7.0, 58.0, 4.0, 27.1, 3.9},
    {"LAMMPS",
     {231, 3221, 27544, 248},
     {11, 2520, 356380, 594},
     {10, 4707, 84152, 199},
     {2, 559, 4392, 175},
     {100, 3763, 34555, 1194},
     {100, 2242, 58628, 256},
     5.0, 10.2, 2.0, 80.2, 2.6},
    {"SPHOT",
     {25, 2467, 889333, 221},
     {21, 1372, 341003, 535},
     {15, 1987, 45150, 207},
     {3, 409, 2746, 200},
     {100, 1498, 10204, 833},
     {100, 620, 32926, 223},
     42.0, 13.5, 12.0, 24.7, 7.8},
    {"UMT",
     {3554, 4545, 50208, 229},
     {77, 1975, 349288, 484},
     {22, 5484, 75042, 167},
     {9, 545, 8902, 173},
     {100, 6451, 29662, 982},
     {100, 3364, 87472, 214},
     5.0, 86.7, 4.0, 3.0, 1.3},
}};

/// A rare extreme mode sized so a minutes-scale run realizes the max column.
stats::LognormalComponent rare_peak(double weight, double median) {
  return {weight, median, 0.55};
}
/// A fast-path mode realizing the tables' min column (sub-300ns faults).
stats::LognormalComponent fast_mode(double weight, double median) {
  return {weight, median, 0.30};
}

/// Picks this application's stored median for a fit all applications share
/// the shape of; `medians` is in SequoiaApp order (AMG, IRS, LAMMPS, SPHOT,
/// UMT).
double by_app(SequoiaApp app, const std::array<double, kSequoiaAppCount>& medians) {
  return medians[static_cast<std::size_t>(app)];
}

}  // namespace

const std::array<PaperAppData, kSequoiaAppCount>& paper_data() { return kPaperData; }

const PaperAppData& paper_data(SequoiaApp app) {
  return kPaperData[static_cast<std::size_t>(app)];
}

stats::DurationModel CalibrationFit::model(double median) const {
  std::vector<stats::LognormalComponent> components{{1.0, median, sigma}};
  components.insert(components.end(), extras.begin(), extras.end());
  return stats::DurationModel::mixture(std::move(components), static_cast<DurNs>(min_ns),
                                       static_cast<DurNs>(max_ns), tail_weight,
                                       tail_scale_ns, tail_alpha);
}

/// The analytic lognormal mean ignores the [min,max] clamp, the tail and the
/// side modes, so the main mode's median is corrected by fixed-point
/// iteration against a sampled mean (fixed seed per pass, at most 8 passes).
/// The side modes stay fixed, so the main mode compensates for them. The
/// result is the median the last sampled model was built with: a fit that
/// ends at the pass cap unconverged drops its final correction.
double fit_median(const CalibrationFit& fit) {
  OSN_ASSERT(fit.target_avg_ns > fit.min_ns && fit.target_avg_ns < fit.max_ns);
  double median = fit.target_avg_ns / std::exp(fit.sigma * fit.sigma / 2.0);
  for (int pass = 0;; ++pass) {
    Xoshiro256 rng(std::uint64_t{0xca11b7a7e} + static_cast<std::uint64_t>(pass));
    const double ratio = fit.target_avg_ns / fit.model(median).estimate_mean(rng, 60'000);
    if (std::abs(ratio - 1.0) < 0.005 || pass == 7) return median;
    median = std::max(median * ratio, fit.min_ns * 0.5);
  }
}

// Each fit ends in the median fit_median() returns for it on x86-64 with
// glibc's libm, written as an exact hex-float literal. Shared shapes list one
// median per application (by_app). CalibrationFits.StoredMediansEqualTheFit
// re-runs every fit and prints the full table when any literal differs.
std::vector<CalibrationFit> calibration_fits(SequoiaApp app) {
  using M = kernel::ActivityModels;
  const PaperAppData& d = paper_data(app);
  std::vector<CalibrationFit> fits;

  // --- periodic: Tables V & VI ---------------------------------------------
  fits.push_back({"timer_irq", &M::timer_irq, d.timer_irq.avg_ns, 0.45, d.timer_irq.min_ns,
                  d.timer_irq.max_ns, 0.01, d.timer_irq.avg_ns * 2.0, 1.4, {},
                  by_app(app, {0x1.6d134ce0d40e4p+11, 0x1.59ffd63e7044fp+12,
                               0x1.9bb776769e549p+11, 0x1.41b0c3fe5573p+10,
                               0x1.63e45ba68171bp+12})});
  fits.push_back({"timer_softirq", &M::timer_softirq, d.timer_softirq.avg_ns, 0.65,
                  d.timer_softirq.min_ns, d.timer_softirq.max_ns, 0.015,
                  d.timer_softirq.avg_ns * 2.5, 1.25, {},
                  by_app(app, {0x1.3c7381ef1a9a1p+10, 0x1.6a31d5afbeef6p+11,
                               0x1.9aeb8719248c3p+10, 0x1.bb91182b0eae9p+8,
                               0x1.344da81f086a8p+11})});

  // --- network: Tables II-IV -----------------------------------------------
  // The rare peak realizes Table II's max column.
  const double irq_rare_w =
      app == SequoiaApp::kSphot || app == SequoiaApp::kLammps ? 2e-3 : 3e-4;
  fits.push_back({"net_irq", &M::net_irq, d.net_irq.avg_ns, 0.50, d.net_irq.min_ns,
                  d.net_irq.max_ns, 0.004, d.net_irq.avg_ns * 4.0, 1.2,
                  {rare_peak(irq_rare_w, d.net_irq.max_ns * 0.55)},
                  by_app(app, {0x1.36cc9129541a3p+10, 0x1.4ee4e80c1e397p+10,
                               0x1.a81dbf7369894p+10, 0x1.6bbfe7d2fa735p+9,
                               0x1.901fb6ab1cc2ep+10})});
  fits.push_back({"net_rx", &M::net_rx, d.net_rx.avg_ns, 0.60, d.net_rx.min_ns,
                  d.net_rx.max_ns, 0.01, d.net_rx.avg_ns * 3.0, 1.2, {},
                  by_app(app, {0x1.228b02bd65ec5p+11, 0x1.b13f62ae94a9cp+11,
                               0x1.c90a5d0f36ab7p+11, 0x1.7fe157cfc4b27p+10,
                               0x1.0be494f1386edp+12})});
  fits.push_back({"net_tx", &M::net_tx, d.net_tx.avg_ns, 0.35, d.net_tx.min_ns,
                  d.net_tx.max_ns, 0.004, d.net_tx.avg_ns * 3.0, 1.5, {},
                  by_app(app, {0x1.b03756ef1d69ap+8, 0x1.d2ca7082d0f31p+8,
                               0x1.032057c36597dp+9, 0x1.7b0219406842ap+8,
                               0x1.f453e1a9a0c14p+8})});

  // --- page faults: Table I + Fig 4 ----------------------------------------
  // The two histogram modes (~2.5 us and ~4.5 us in AMG's bimodal Fig 4a)
  // map to the anonymous and COW fault paths; the COW side carries the long
  // tail up to Table I's per-app maximum. cow_fraction in the rank params
  // weights the modes so the combined mean matches Table I's avg.
  const double pf_min = d.page_fault.min_ns;
  const double pf_max = d.page_fault.max_ns;
  switch (app) {
    case SequoiaApp::kAmg:
      fits.push_back({"pf_minor_anon", &M::pf_minor_anon, 2550, 0.10, pf_min, 8'000, 0, 0,
                      1.5, {fast_mode(0.015, 330)}, 0x1.41795d0766577p+11});
      fits.push_back({"pf_cow", &M::pf_cow, 5878, 0.13, 1'000, pf_max, 0.004, 70'000, 1.35,
                      {rare_peak(2e-5, 3.0e7)}, 0x1.03dc69e9dabdbp+12});
      break;
    case SequoiaApp::kIrs:
      fits.push_back({"pf_minor_anon", &M::pf_minor_anon, 2550, 0.14, pf_min, 8'000, 0, 0,
                      1.5, {fast_mode(0.015, 300)}, 0x1.3ff6bb2027d6cp+11});
      fits.push_back({"pf_cow", &M::pf_cow, 5854, 0.20, 1'000, pf_max, 0.008, 40'000, 1.5,
                      {rare_peak(4e-5, 2.8e6)}, 0x1.2f39140fb0304p+12});
      break;
    case SequoiaApp::kLammps:
      // One-sided single mode (Fig 4b), short maximum; pf_cow shares it.
      fits.push_back({"pf_minor_anon", &M::pf_minor_anon, d.page_fault.avg_ns, 0.45, pf_min,
                      pf_max, 0.003, 9'000, 1.4, {fast_mode(0.02, 330)},
                      0x1.6ddd67f346ddcp+11});
      break;
    case SequoiaApp::kSphot:
      // Single mode as well; pf_cow shares it.
      fits.push_back({"pf_minor_anon", &M::pf_minor_anon, d.page_fault.avg_ns, 0.50, pf_min,
                      pf_max, 0.004, 20'000, 1.4,
                      {fast_mode(0.02, 300), rare_peak(4e-4, 6.0e5)},
                      0x1.be774da497454p+10});
      break;
    case SequoiaApp::kUmt:
      fits.push_back({"pf_minor_anon", &M::pf_minor_anon, 2700, 0.16, pf_min, 9'000, 0, 0,
                      1.5, {fast_mode(0.015, 310)}, 0x1.51c320e399817p+11});
      fits.push_back({"pf_cow", &M::pf_cow, 6390, 0.22, 1'000, pf_max, 0.01, 25'000, 1.6, {},
                      0x1.7067226bb7123p+12});
      break;
  }

  // --- scheduling: Fig 6 (rebalance) --------------------------------------
  switch (app) {
    case SequoiaApp::kIrs:
      // "fairly compact distribution with a main pick around 1.80 us".
      fits.push_back({"rebalance", &M::rebalance, 1850, 0.16, 700, 12'000, 0, 0, 1.5, {},
                      0x1.c89e2358f7bfap+10});
      break;
    case SequoiaApp::kUmt:
      // "much larger distribution with average of 3.36 us" — the OS has a
      // tougher balancing job with the Python helpers around.
      fits.push_back({"rebalance", &M::rebalance, 3360, 0.80, 700, 60'000, 0.01, 9'000, 1.4,
                      {}, 0x1.1e0433f634abfp+11});
      break;
    default:
      fits.push_back({"rebalance", &M::rebalance, 2000, 0.40, 600, 30'000, 0, 0, 1.5, {},
                      0x1.cd8ee4703acdep+10});
      break;
  }

  // --- daemons: calibrated so Fig 3's preemption shares emerge -------------
  // rpciod's per-RPC work scales with how much data each application moves
  // per operation (LAMMPS ships large trajectory/checkpoint buffers).
  const auto rpciod = [&](double target, double sigma, double min, double max,
                          double median) {
    fits.push_back({"rpciod_service", &M::rpciod_service, target, sigma, min, max, 0, 0, 1.5,
                    {}, median});
  };
  switch (app) {
    case SequoiaApp::kAmg: rpciod(25'000, 0.4, 4'000, 250'000, 0x1.6897a277adf0dp+14); break;
    case SequoiaApp::kIrs:
      rpciod(135'000, 0.5, 10'000, 1'200'000, 0x1.d16114f40d044p+16);
      break;
    case SequoiaApp::kLammps:
      rpciod(1'450'000, 0.45, 100'000, 9'000'000, 0x1.3fea7434e78c6p+20);
      break;
    case SequoiaApp::kSphot: rpciod(3'500, 0.4, 1'200, 30'000, 0x1.93dd07e233742p+11); break;
    case SequoiaApp::kUmt: rpciod(5'000, 0.4, 1'500, 40'000, 0x1.20794ec624c0ap+12); break;
  }
  return fits;
}

kernel::ActivityModels calibrated_models(SequoiaApp app) {
  kernel::ActivityModels m;
  for (const CalibrationFit& fit : calibration_fits(app)) m.*fit.field = fit.model(fit.median_ns);
  if (app == SequoiaApp::kLammps || app == SequoiaApp::kSphot) m.pf_cow = m.pf_minor_anon;
  // schedule() itself: §IV-C found it negligible and constant.
  m.schedule_fn = stats::DurationModel::lognormal(300, 0.22, 150, 1'800);
  return m;
}

RankParams calibrated_rank_params(SequoiaApp app, DurNs run_duration) {
  const PaperAppData& d = paper_data(app);
  RankParams p;
  p.run_duration = run_duration;
  const double dur_sec =
      static_cast<double>(run_duration) / static_cast<double>(kNsPerSec);
  const double total_faults = d.page_fault.freq * dur_sec;

  switch (app) {
    case SequoiaApp::kAmg:
      // Faults throughout the run with accumulation points (Fig 5a). Bursts
      // are sized per period so their rate contribution is duration-free;
      // one-time budgets are inflated by the measured wall-clock stretch of
      // a barrier-synchronized run.
      p.compute_median = 2 * kNsPerMs;
      p.iters_per_barrier = 10;
      p.init_pages = static_cast<std::uint64_t>(0.04 * total_faults * 1.3);
      p.burst_period = 1'800 * kNsPerMs;
      p.burst_pages = static_cast<std::uint64_t>(0.26 * d.page_fault.freq * 1.8);
      p.steady_faults_per_sec = 0.71 * d.page_fault.freq;
      p.cow_fraction = 0.55;
      p.io_per_sec = 13;
      p.io_rpcs_median = 4;
      break;
    case SequoiaApp::kIrs:
      p.compute_median = 3 * kNsPerMs;
      p.iters_per_barrier = 8;
      p.init_pages = static_cast<std::uint64_t>(0.05 * total_faults * 1.25);
      p.steady_faults_per_sec = 0.95 * d.page_fault.freq;
      p.cow_fraction = 0.50;
      p.io_per_sec = 10;
      p.io_rpcs_median = 4;
      break;
    case SequoiaApp::kLammps:
      // Faults mainly at initialization and the end (Fig 5b).
      p.compute_median = 1'500 * kNsPerUs;
      p.iters_per_barrier = 10;
      p.init_pages = static_cast<std::uint64_t>(0.62 * total_faults * 1.25);
      p.final_pages = static_cast<std::uint64_t>(0.25 * total_faults * 1.25);
      p.steady_faults_per_sec = 0.13 * d.page_fault.freq;
      p.cow_fraction = 0.0;
      p.io_per_sec = 2;
      p.io_rpcs_median = 5;
      break;
    case SequoiaApp::kSphot:
      // Monte Carlo, embarrassingly parallel: no collectives, few faults.
      p.compute_median = 4 * kNsPerMs;
      p.iters_per_barrier = 0;
      p.init_pages = static_cast<std::uint64_t>(0.3 * total_faults);
      p.final_pages = static_cast<std::uint64_t>(0.1 * total_faults);
      p.steady_faults_per_sec = 0.60 * d.page_fault.freq;
      p.cow_fraction = 0.0;
      p.io_per_sec = 3.5;
      p.io_rpcs_median = 5;
      break;
    case SequoiaApp::kUmt:
      p.compute_median = 2'500 * kNsPerUs;
      p.iters_per_barrier = 6;
      p.init_pages = static_cast<std::uint64_t>(0.04 * total_faults * 1.3);
      p.burst_period = 1'500 * kNsPerMs;
      p.burst_pages = static_cast<std::uint64_t>(0.13 * d.page_fault.freq * 1.5);
      p.steady_faults_per_sec = 0.84 * d.page_fault.freq;
      p.cow_fraction = 0.50;
      p.io_per_sec = 10;
      p.io_rpcs_median = 2;
      // Python/pyMPI helper processes.
      p.helper_count = 4;
      p.helper_period = 100 * kNsPerMs;
      p.helper_compute = 100 * kNsPerUs;
      break;
  }
  return p;
}

}  // namespace osn::workloads
