// Workload-level behaviour: FTQ semantics, determinism, and the Sequoia
// models' paper-shape properties on short runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string_view>

#include "noise/analysis.hpp"
#include "workloads/calibration.hpp"
#include "workloads/ftq.hpp"
#include "workloads/sequoia.hpp"
#include "workloads/workload.hpp"

namespace osn::workloads {
namespace {

FtqParams short_ftq() {
  FtqParams p;
  p.n_quanta = 300;  // 300 ms
  return p;
}

TEST(Ftq, ProducesRequestedQuanta) {
  FtqWorkload ftq(short_ftq());
  run_workload(ftq, 1);
  EXPECT_EQ(ftq.samples().size(), 300u);
}

TEST(Ftq, SamplesOnRegularGrid) {
  FtqWorkload ftq(short_ftq());
  run_workload(ftq, 1);
  const auto& samples = ftq.samples();
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_EQ(samples[i].start - samples[i - 1].start, ftq.params().quantum);
}

TEST(Ftq, NeverExceedsNmax) {
  FtqWorkload ftq(short_ftq());
  run_workload(ftq, 1);
  for (const auto& s : ftq.samples()) EXPECT_LE(s.ops, ftq.nmax());
}

TEST(Ftq, ObservesTickNoise) {
  // Every 10 ms tick steals a few us: some quanta must miss operations.
  FtqWorkload ftq(short_ftq());
  run_workload(ftq, 1);
  std::size_t noisy = 0;
  for (const auto& s : ftq.samples())
    if (s.ops < ftq.nmax()) ++noisy;
  // At least the ~30 tick quanta are noisy.
  EXPECT_GE(noisy, 25u);
}

TEST(Ftq, TraceValidates) {
  FtqWorkload ftq(short_ftq());
  const RunResult run = run_workload(ftq, 1);
  EXPECT_EQ(run.trace.validate(), "");
  EXPECT_TRUE(run.trace.is_app(ftq.ftq_pid()));
}

TEST(Ftq, DeterministicAcrossRuns) {
  FtqWorkload a(short_ftq()), b(short_ftq());
  const RunResult ra = run_workload(a, 7);
  const RunResult rb = run_workload(b, 7);
  EXPECT_EQ(ra.trace, rb.trace);
  EXPECT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i)
    EXPECT_EQ(a.samples()[i].ops, b.samples()[i].ops);
}

TEST(Ftq, SeedChangesTheRun) {
  FtqWorkload a(short_ftq()), b(short_ftq());
  run_workload(a, 1);
  run_workload(b, 2);
  bool any_different = false;
  for (std::size_t i = 0; i < a.samples().size(); ++i)
    if (a.samples()[i].ops != b.samples()[i].ops) any_different = true;
  EXPECT_TRUE(any_different);
}

TEST(Ftq, PageFaultsAtConfiguredCadence) {
  FtqParams p = short_ftq();
  p.fault_period_quanta = 10;
  FtqWorkload ftq(p);
  const RunResult run = run_workload(ftq, 1);
  noise::NoiseAnalysis analysis(run.trace);
  const auto stats = analysis.activity_stats(noise::ActivityKind::kPageFault);
  // ~1 fault per 10 quanta of 1 ms over 300 ms => ~30 faults.
  EXPECT_NEAR(static_cast<double>(stats.count), 30.0, 4.0);
}

// ---------------------------------------------------------------------------
// Sequoia model properties, parameterized over the five applications.
// ---------------------------------------------------------------------------

class SequoiaShortRun : public ::testing::TestWithParam<SequoiaApp> {
 protected:
  static constexpr std::uint64_t kSeconds = 2;

  static const RunResult& run_for(SequoiaApp app) {
    static std::map<SequoiaApp, RunResult> cache = [] {
      std::map<SequoiaApp, RunResult> m;
      for (std::size_t i = 0; i < kSequoiaAppCount; ++i) {
        const auto a = static_cast<SequoiaApp>(i);
        SequoiaWorkload wl(a, sec(kSeconds));
        m.emplace(a, run_workload(wl, 1));
      }
      return m;
    }();
    return cache.at(app);
  }
};

TEST_P(SequoiaShortRun, TraceValidates) {
  EXPECT_EQ(run_for(GetParam()).trace.validate(), "");
}

TEST_P(SequoiaShortRun, AllRanksSpawnAndExit) {
  const auto& run = run_for(GetParam());
  EXPECT_EQ(run.trace.app_pids().size(), 8u);
}

TEST_P(SequoiaShortRun, TimerIrqFrequencyIsTickRate) {
  noise::NoiseAnalysis a(run_for(GetParam()).trace);
  const auto s = a.activity_stats(noise::ActivityKind::kTimerIrq);
  EXPECT_NEAR(s.freq_ev_per_sec, 100.0, 2.0);
}

TEST_P(SequoiaShortRun, TimerSoftirqFollowsEveryTick) {
  noise::NoiseAnalysis a(run_for(GetParam()).trace);
  const auto irq = a.activity_stats(noise::ActivityKind::kTimerIrq);
  const auto softirq = a.activity_stats(noise::ActivityKind::kTimerSoftirq);
  // A tick can be in flight (softirq raised but not yet run) when the last
  // rank exits and the trace closes; allow that boundary slack.
  EXPECT_NEAR(static_cast<double>(irq.count), static_cast<double>(softirq.count),
              static_cast<double>(run_for(GetParam()).trace.cpu_count()));
}

TEST_P(SequoiaShortRun, PageFaultFrequencyNearPaper) {
  noise::NoiseAnalysis a(run_for(GetParam()).trace);
  const auto s = a.activity_stats(noise::ActivityKind::kPageFault);
  const double paper = paper_data(GetParam()).page_fault.freq;
  EXPECT_NEAR(s.freq_ev_per_sec, paper, paper * 0.30 + 6.0);
}

TEST_P(SequoiaShortRun, PageFaultAvgNearPaper) {
  noise::NoiseAnalysis a(run_for(GetParam()).trace);
  const auto s = a.activity_stats(noise::ActivityKind::kPageFault);
  const double paper = paper_data(GetParam()).page_fault.avg_ns;
  EXPECT_NEAR(s.avg_ns, paper, paper * 0.25);
}

TEST_P(SequoiaShortRun, NetTxFasterAndTighterThanRx) {
  // Table IV vs III: the asynchronous DMA kick beats the synchronous copy.
  noise::NoiseAnalysis a(run_for(GetParam()).trace);
  const auto tx = a.activity_stats(noise::ActivityKind::kNetTxTasklet);
  const auto rx = a.activity_stats(noise::ActivityKind::kNetRxTasklet);
  ASSERT_GT(tx.count, 0u);
  ASSERT_GT(rx.count, 0u);
  EXPECT_LT(tx.avg_ns, rx.avg_ns);
  EXPECT_LT(tx.max_ns, rx.max_ns);
}

TEST_P(SequoiaShortRun, DominantCategoryMatchesPaper) {
  noise::NoiseAnalysis a(run_for(GetParam()).trace);
  const auto bd = a.category_breakdown_all();
  const auto& paper = paper_data(GetParam());
  // Which category does the paper say dominates?
  const std::size_t expect_dominant =
      paper.pct_page_fault > paper.pct_preemption
          ? (paper.pct_page_fault > paper.pct_periodic
                 ? static_cast<std::size_t>(noise::NoiseCategory::kPageFault)
                 : static_cast<std::size_t>(noise::NoiseCategory::kPeriodic))
          : (paper.pct_preemption > paper.pct_periodic
                 ? static_cast<std::size_t>(noise::NoiseCategory::kPreemption)
                 : static_cast<std::size_t>(noise::NoiseCategory::kPeriodic));
  std::size_t measured_dominant = 0;
  for (std::size_t c = 1; c < bd.size(); ++c) {
    if (c == static_cast<std::size_t>(noise::NoiseCategory::kRequestedService)) continue;
    if (bd[c] > bd[measured_dominant]) measured_dominant = c;
  }
  EXPECT_EQ(measured_dominant, expect_dominant);
}

TEST_P(SequoiaShortRun, RanksExperienceBarriersExceptSphot) {
  const auto& run = run_for(GetParam());
  noise::NoiseAnalysis a(run.trace);
  const bool has_comm = !a.intervals().comm.empty();
  if (GetParam() == SequoiaApp::kSphot) {
    EXPECT_FALSE(has_comm);
  } else {
    EXPECT_TRUE(has_comm);
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, SequoiaShortRun,
                         ::testing::Values(SequoiaApp::kAmg, SequoiaApp::kIrs,
                                           SequoiaApp::kLammps, SequoiaApp::kSphot,
                                           SequoiaApp::kUmt),
                         [](const ::testing::TestParamInfo<SequoiaApp>& pinfo) {
                           return app_name(pinfo.param);
                         });

TEST(SequoiaProfiles, LammpsFaultsClusterAtEdges) {
  SequoiaWorkload wl(SequoiaApp::kLammps, sec(2));
  const RunResult run = run_workload(wl, 1);
  noise::NoiseAnalysis a(run.trace);
  const TimeNs dur = run.trace.duration();
  std::size_t early = 0, middle = 0, late = 0;
  for (const auto& shard : a.intervals().kernel_by_cpu)
    for (const auto& iv : shard) {
      if (iv.kind != noise::ActivityKind::kPageFault) continue;
      const double f = static_cast<double>(iv.start) / static_cast<double>(dur);
      if (f < 0.25) ++early;
      else if (f > 0.75) ++late;
      else ++middle;
    }
  // Fig 5b: init + end clusters dominate the middle.
  EXPECT_GT(early, middle);
  EXPECT_GT(late, middle / 2);
}

TEST(SequoiaProfiles, AmgFaultsSpreadThroughout) {
  SequoiaWorkload wl(SequoiaApp::kAmg, sec(2));
  const RunResult run = run_workload(wl, 1);
  noise::NoiseAnalysis a(run.trace);
  const TimeNs dur = run.trace.duration();
  std::array<std::size_t, 4> quarters{};
  for (const auto& shard : a.intervals().kernel_by_cpu)
    for (const auto& iv : shard) {
      if (iv.kind != noise::ActivityKind::kPageFault) continue;
      const auto q = std::min<std::size_t>(
          3, static_cast<std::size_t>(4 * iv.start / std::max<TimeNs>(dur, 1)));
      ++quarters[q];
    }
  // Fig 5a: every quarter of the run faults substantially.
  for (const std::size_t count : quarters) EXPECT_GT(count, 200u);
}

TEST(SequoiaProfiles, UmtSpawnsPythonHelpers) {
  SequoiaWorkload wl(SequoiaApp::kUmt, sec(1));
  const RunResult run = run_workload(wl, 1);
  std::size_t helpers = 0;
  for (const auto& [pid, info] : run.trace.tasks())
    if (info.name.starts_with("python")) ++helpers;
  EXPECT_EQ(helpers, 4u);
}

TEST(SequoiaProfiles, StatisticsStableAcrossSeeds) {
  // The calibrated frequencies are properties of the model, not of one lucky
  // seed: three independent runs must agree on the page-fault rate.
  std::vector<double> freqs;
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    SequoiaWorkload wl(SequoiaApp::kAmg, sec(1));
    const RunResult run = run_workload(wl, seed);
    noise::NoiseAnalysis a(run.trace);
    freqs.push_back(
        a.activity_stats(noise::ActivityKind::kPageFault).freq_ev_per_sec);
  }
  const double mean = (freqs[0] + freqs[1] + freqs[2]) / 3.0;
  for (const double f : freqs) EXPECT_NEAR(f, mean, mean * 0.08);
}

TEST(SequoiaProfiles, SacrificialCoreKnobsWork) {
  // Ranks offset to CPUs 1..7 with NIC irqs pinned to CPU 0: no rank ever
  // takes a net interrupt in its own context.
  SequoiaWorkload wl(SequoiaApp::kSphot, sec(1), 7, /*first_cpu=*/1);
  wl.set_pin_net_irqs(true);
  const RunResult run = run_workload(wl, 1);
  noise::NoiseAnalysis a(run.trace);
  for (const auto& iv : a.noise_intervals()) {
    EXPECT_NE(iv.kind, noise::ActivityKind::kNetIrq);
    EXPECT_NE(iv.kind, noise::ActivityKind::kNetRxTasklet);
  }
}

TEST(SequoiaProfiles, DeterministicRun) {
  SequoiaWorkload a(SequoiaApp::kSphot, sec(1));
  SequoiaWorkload b(SequoiaApp::kSphot, sec(1));
  EXPECT_EQ(run_workload(a, 3).trace, run_workload(b, 3).trace);
}

// The simulator's exact output, pinned across builds: an FNV-1a digest of a
// short offline run's merged records, task table and end time, one per
// workload at seed 7. Unlike DeterministicRun, which compares two runs of one
// build, this catches a change that moves any draw or record. A change meant
// to keep the simulator's output must leave every digest as it is; one that
// means to change it updates the constants from the printed digests.
class Fnv1a {
 public:
  void add(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void add(std::string_view s) {
    add(s.size(), 4);
    for (const char ch : s) add(static_cast<unsigned char>(ch), 1);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t run_digest(const RunResult& run) {
  Fnv1a h;
  run.trace.for_each_merged([&](const tracebuf::EventRecord& r) {
    h.add(r.timestamp, 8);
    h.add(r.pid, 4);
    h.add(r.cpu, 2);
    h.add(r.event, 2);
    h.add(r.arg, 8);
  });
  for (const auto& [pid, info] : run.trace.tasks()) {
    h.add(pid, 4);
    h.add(info.name);
    h.add(info.is_app, 1);
    h.add(info.is_kernel_thread, 1);
  }
  h.add(run.trace.meta().end_ns, 8);
  return h.value();
}

void expect_digest(Workload& wl, std::uint64_t want) {
  const std::uint64_t got = run_digest(run_workload(wl, 7));
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llxull", static_cast<unsigned long long>(got));
  EXPECT_EQ(got, want) << wl.name() << " digest is now " << hex;
}

void expect_sequoia_digest(SequoiaApp app, std::uint64_t want) {
  SequoiaWorkload wl(app, sec(1));
  expect_digest(wl, want);
}

TEST(SimulatorGolden, Amg) { expect_sequoia_digest(SequoiaApp::kAmg, 0x2b49a156a996a942ull); }
TEST(SimulatorGolden, Irs) { expect_sequoia_digest(SequoiaApp::kIrs, 0x2afb09fd944618f0ull); }
TEST(SimulatorGolden, Lammps) { expect_sequoia_digest(SequoiaApp::kLammps, 0x633d5e67ad7674e6ull); }
TEST(SimulatorGolden, Sphot) { expect_sequoia_digest(SequoiaApp::kSphot, 0x59eb9cffa3ae1e0bull); }
TEST(SimulatorGolden, Umt) { expect_sequoia_digest(SequoiaApp::kUmt, 0xc9de5b622baf19ccull); }

TEST(SimulatorGolden, Ftq) {
  FtqParams p;
  p.n_quanta = 1000;  // 1 s
  FtqWorkload wl(p);
  expect_digest(wl, 0xbf4844868ed7832bull);
}

}  // namespace
}  // namespace osn::workloads
