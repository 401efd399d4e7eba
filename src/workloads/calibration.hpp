// Paper reference data and per-application calibration.
//
// The paper measured the LLNL Sequoia benchmarks on its testbed; we cannot
// run those binaries, so each application is modelled as a synthetic
// workload whose kernel-activity duration models and event rates are
// *calibrated to the published measurements* (Tables I-VI, Figs 3-8). This
// header carries both sides of that contract:
//   * PaperAppData — the numbers printed in the paper, used by the bench
//     binaries as the "paper" column and by calibration tests as targets;
//   * per-app ActivityModels and RankParams builders that realize them.
//
// Breakdown percentages not stated in the text (Fig 3 is a chart) are
// estimated from the figure and flagged in EXPERIMENTS.md.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "kernel/activity_models.hpp"
#include "workloads/sequoia.hpp"

namespace osn::workloads {

/// One row of a paper table: freq(ev/sec), avg/max/min (nsec).
struct PaperEventRow {
  double freq = 0;
  double avg_ns = 0;
  double max_ns = 0;
  double min_ns = 0;
};

struct PaperAppData {
  std::string name;
  PaperEventRow page_fault;     // Table I
  PaperEventRow net_irq;        // Table II
  PaperEventRow net_rx;         // Table III
  PaperEventRow net_tx;         // Table IV
  PaperEventRow timer_irq;      // Table V
  PaperEventRow timer_softirq;  // Table VI
  // Fig 3 noise breakdown, percent of total noise. Values quoted in the
  // paper's text are exact; the rest are read off the figure.
  double pct_periodic = 0;
  double pct_page_fault = 0;
  double pct_scheduling = 0;
  double pct_preemption = 0;
  double pct_io = 0;
};

const std::array<PaperAppData, kSequoiaAppCount>& paper_data();
const PaperAppData& paper_data(SequoiaApp app);

/// One fitted kernel-activity duration model: a lognormal main mode plus
/// fixed side modes (`extras`) and an optional Pareto tail, clamped to
/// [min_ns, max_ns]. The main mode's median is the only free parameter; it is
/// fitted so the model's sampled mean matches target_avg_ns (fit_median), and
/// `median_ns` stores the value that fit converged to.
struct CalibrationFit {
  const char* activity = "";  ///< ActivityModels member name, e.g. "net_irq".
  stats::DurationModel kernel::ActivityModels::*field = nullptr;
  double target_avg_ns = 0;
  double sigma = 0;
  double min_ns = 0;
  double max_ns = 0;
  double tail_weight = 0;
  double tail_scale_ns = 0;
  double tail_alpha = 1.5;
  std::vector<stats::LognormalComponent> extras;
  double median_ns = 0;  ///< Stored result of fit_median(*this).

  /// The model with its main mode at `median`.
  stats::DurationModel model(double median) const;
};

/// Every fitted model of one application, each with its stored median.
std::vector<CalibrationFit> calibration_fits(SequoiaApp app);

/// Re-runs the fixed-seed Monte Carlo fit of `fit` (its stored median is
/// ignored) and returns the median of the model the fit settles on. The
/// result depends only on the fit's inputs, so building the models uses the
/// stored medians instead; tests check the two agree bit for bit.
double fit_median(const CalibrationFit& fit);

/// Kernel-activity duration models calibrated for one application, built from
/// the stored medians of calibration_fits(app) without sampling.
kernel::ActivityModels calibrated_models(SequoiaApp app);

/// Workload parameters (fault/I/O rates, phase structure) for one app rank.
RankParams calibrated_rank_params(SequoiaApp app, DurNs run_duration);

}  // namespace osn::workloads
