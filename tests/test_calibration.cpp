// Calibration machinery: the paper reference tables and the fitted duration
// models behind each application.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "stats/summary.hpp"
#include "workloads/calibration.hpp"

namespace osn::workloads {
namespace {

TEST(PaperData, FiveApplications) {
  const auto& all = paper_data();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].name, "AMG");
  EXPECT_EQ(all[4].name, "UMT");
}

TEST(PaperData, TextQuotedValuesTranscribed) {
  // Spot-check against the paper's text and tables.
  EXPECT_EQ(paper_data(SequoiaApp::kAmg).page_fault.freq, 1693);
  EXPECT_EQ(paper_data(SequoiaApp::kAmg).page_fault.avg_ns, 4380);
  EXPECT_EQ(paper_data(SequoiaApp::kAmg).page_fault.max_ns, 69398061);
  EXPECT_EQ(paper_data(SequoiaApp::kAmg).pct_page_fault, 82.4);
  EXPECT_EQ(paper_data(SequoiaApp::kUmt).pct_page_fault, 86.7);
  EXPECT_EQ(paper_data(SequoiaApp::kLammps).pct_preemption, 80.2);
  EXPECT_EQ(paper_data(SequoiaApp::kSphot).pct_preemption, 24.7);
  EXPECT_EQ(paper_data(SequoiaApp::kIrs).pct_preemption, 27.1);
  EXPECT_EQ(paper_data(SequoiaApp::kLammps).net_tx.freq, 2);
  EXPECT_EQ(paper_data(SequoiaApp::kUmt).timer_softirq.avg_ns, 3364);
}

TEST(PaperData, BreakdownPercentagesSumToHundred) {
  for (const auto& d : paper_data()) {
    const double sum = d.pct_periodic + d.pct_page_fault + d.pct_scheduling +
                       d.pct_preemption + d.pct_io;
    EXPECT_NEAR(sum, 100.0, 0.5) << d.name;
  }
}

TEST(PaperData, TimerFrequenciesAreTickRate) {
  for (const auto& d : paper_data()) {
    EXPECT_EQ(d.timer_irq.freq, 100) << d.name;
    EXPECT_EQ(d.timer_softirq.freq, 100) << d.name;
  }
}

class CalibratedModelsTest : public ::testing::TestWithParam<SequoiaApp> {};

TEST_P(CalibratedModelsTest, TimerModelsMatchTableAverages) {
  const auto models = calibrated_models(GetParam());
  const auto& d = paper_data(GetParam());
  Xoshiro256 rng(1);
  EXPECT_NEAR(models.timer_irq.estimate_mean(rng, 100'000), d.timer_irq.avg_ns,
              d.timer_irq.avg_ns * 0.06);
  EXPECT_NEAR(models.timer_softirq.estimate_mean(rng, 100'000), d.timer_softirq.avg_ns,
              d.timer_softirq.avg_ns * 0.08);
}

TEST_P(CalibratedModelsTest, NetModelsMatchTableAverages) {
  const auto models = calibrated_models(GetParam());
  const auto& d = paper_data(GetParam());
  Xoshiro256 rng(2);
  EXPECT_NEAR(models.net_irq.estimate_mean(rng, 100'000), d.net_irq.avg_ns,
              d.net_irq.avg_ns * 0.08);
  EXPECT_NEAR(models.net_rx.estimate_mean(rng, 100'000), d.net_rx.avg_ns,
              d.net_rx.avg_ns * 0.08);
  EXPECT_NEAR(models.net_tx.estimate_mean(rng, 100'000), d.net_tx.avg_ns,
              d.net_tx.avg_ns * 0.08);
}

TEST_P(CalibratedModelsTest, ModelsRespectTableMinMax) {
  const auto models = calibrated_models(GetParam());
  const auto& d = paper_data(GetParam());
  Xoshiro256 rng(3);
  for (int i = 0; i < 20'000; ++i) {
    EXPECT_GE(models.timer_softirq.sample(rng), static_cast<DurNs>(d.timer_softirq.min_ns));
    EXPECT_LE(models.timer_softirq.sample(rng), static_cast<DurNs>(d.timer_softirq.max_ns));
  }
}

TEST_P(CalibratedModelsTest, CombinedPageFaultMeanMatchesTableOne) {
  const auto models = calibrated_models(GetParam());
  const auto params = calibrated_rank_params(GetParam(), sec(10));
  const auto& d = paper_data(GetParam());
  Xoshiro256 rng(4);
  // Mix anon and cow means by the workload's cow_fraction.
  const double anon = models.pf_minor_anon.estimate_mean(rng, 120'000);
  const double cow = models.pf_cow.estimate_mean(rng, 120'000);
  const double combined = anon * (1 - params.cow_fraction) + cow * params.cow_fraction;
  EXPECT_NEAR(combined, d.page_fault.avg_ns, d.page_fault.avg_ns * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Apps, CalibratedModelsTest,
                         ::testing::Values(SequoiaApp::kAmg, SequoiaApp::kIrs,
                                           SequoiaApp::kLammps, SequoiaApp::kSphot,
                                           SequoiaApp::kUmt),
                         [](const ::testing::TestParamInfo<SequoiaApp>& pinfo) {
                           return app_name(pinfo.param);
                         });

TEST(CalibratedModels, IrsRebalanceCompactUmtWide) {
  // Fig 6: IRS compact around 1.8 us; UMT wide with mean 3.36 us.
  Xoshiro256 rng(5);
  const auto irs = calibrated_models(SequoiaApp::kIrs).rebalance;
  const auto umt = calibrated_models(SequoiaApp::kUmt).rebalance;
  stats::StreamingSummary irs_s, umt_s;
  for (int i = 0; i < 50'000; ++i) {
    irs_s.add(static_cast<double>(irs.sample(rng)));
    umt_s.add(static_cast<double>(umt.sample(rng)));
  }
  EXPECT_NEAR(irs_s.mean(), 1850, 150);
  EXPECT_NEAR(umt_s.mean(), 3360, 350);
  // Spread: UMT's coefficient of variation far exceeds IRS's.
  EXPECT_GT(umt_s.stddev() / umt_s.mean(), 2.0 * irs_s.stddev() / irs_s.mean());
}

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// calibrated_models() builds every fitted model from a stored median instead
// of re-running the Monte Carlo fit. Re-run each fit and require the stored
// value bit for bit. On a mismatch the message carries the regenerated table
// (one row per activity, one column per application): copy each literal into
// the matching fit in calibration.cpp.
TEST(CalibrationFits, StoredMediansEqualTheFit) {
  std::map<std::string, std::array<std::string, kSequoiaAppCount>> table;
  std::ostringstream mismatches;
  for (std::size_t i = 0; i < kSequoiaAppCount; ++i) {
    const auto app = static_cast<SequoiaApp>(i);
    for (const CalibrationFit& fit : calibration_fits(app)) {
      const double median = fit_median(fit);
      table[fit.activity][i] = hex(median);
      if (std::bit_cast<std::uint64_t>(median) != std::bit_cast<std::uint64_t>(fit.median_ns))
        mismatches << "  " << app_name(app) << " " << fit.activity << ": stored "
                   << hex(fit.median_ns) << ", fit " << hex(median) << "\n";
    }
  }
  std::ostringstream regenerated;
  regenerated << std::left << std::setw(16) << "activity";
  for (std::size_t i = 0; i < kSequoiaAppCount; ++i)
    regenerated << std::setw(24) << app_name(static_cast<SequoiaApp>(i));
  regenerated << "\n";
  for (const auto& [activity, medians] : table) {
    regenerated << std::setw(16) << activity;
    for (const std::string& m : medians) regenerated << std::setw(24) << (m.empty() ? "-" : m);
    regenerated << "\n";
  }
  EXPECT_TRUE(mismatches.str().empty()) << "stored medians differ from the fit:\n"
                                        << mismatches.str() << "regenerated medians:\n"
                                        << regenerated.str();
}

TEST(CalibrationFits, NineOrEightFitsPerApplication) {
  // LAMMPS and SPHOT fault through a single mode, so pf_cow reuses
  // pf_minor_anon there instead of having a fit of its own.
  const std::array<std::size_t, kSequoiaAppCount> expected{9, 9, 8, 8, 9};
  for (std::size_t i = 0; i < kSequoiaAppCount; ++i) {
    const auto app = static_cast<SequoiaApp>(i);
    EXPECT_EQ(calibration_fits(app).size(), expected[i]) << app_name(app);
  }
}

TEST(CalibratedParams, LammpsIsEdgeLoaded) {
  const auto p = calibrated_rank_params(SequoiaApp::kLammps, sec(10));
  EXPECT_GT(p.init_pages, 0u);
  EXPECT_GT(p.final_pages, 0u);
  // Steady trickle is a small share of the total.
  EXPECT_LT(p.steady_faults_per_sec, 0.2 * paper_data(SequoiaApp::kLammps).page_fault.freq);
}

TEST(CalibratedParams, AmgHasAccumulationBursts) {
  const auto p = calibrated_rank_params(SequoiaApp::kAmg, sec(10));
  EXPECT_GT(p.burst_period, 0u);
  EXPECT_GT(p.burst_pages, 0u);
}

TEST(CalibratedParams, OnlyUmtHasHelpers) {
  for (std::size_t i = 0; i < kSequoiaAppCount; ++i) {
    const auto app = static_cast<SequoiaApp>(i);
    const auto p = calibrated_rank_params(app, sec(10));
    if (app == SequoiaApp::kUmt) {
      EXPECT_GT(p.helper_count, 0u);
    } else {
      EXPECT_EQ(p.helper_count, 0u);
    }
  }
}

TEST(CalibratedParams, OnlySphotSkipsBarriers) {
  for (std::size_t i = 0; i < kSequoiaAppCount; ++i) {
    const auto app = static_cast<SequoiaApp>(i);
    const auto p = calibrated_rank_params(app, sec(10));
    if (app == SequoiaApp::kSphot) {
      EXPECT_EQ(p.iters_per_barrier, 0u);
    } else {
      EXPECT_GT(p.iters_per_barrier, 0u);
    }
  }
}

}  // namespace
}  // namespace osn::workloads
