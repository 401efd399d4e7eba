// Determinism contract of the sharded analysis pipeline: for any trace,
// --jobs 1 (serial reference path) and --jobs N produce byte-identical
// results — interval lists, noise lists, OSNT stats tables, Paraver
// .prv/.pcf/.row bytes, and the Synthetic Noise Chart rendering.
//
// Traces are randomized: nested kernel activity across 8 CPUs, preemptions
// via sched_switch, barrier (communication) windows, daemon/idle contexts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "export/ascii.hpp"
#include "export/csv.hpp"
#include "export/paraver.hpp"
#include "noise/analysis.hpp"
#include "noise/chart.hpp"
#include "trace_builder.hpp"

namespace osn::noise {
namespace {

using osn::testing::TraceBuilder;
using trace::EventType;

constexpr std::uint16_t kCpus = 8;

/// One random nested kernel-activity tree on `cpu`, rooted at time `t`;
/// returns the timestamp just past its exit.
TimeNs emit_activity(TraceBuilder& b, Xoshiro256& rng, CpuId cpu, Pid pid, TimeNs t,
                     int depth) {
  struct Entry {
    EventType type;
    std::uint64_t arg;
  };
  static const std::vector<Entry> kEntries = {
      {EventType::kIrqEntry, static_cast<std::uint64_t>(trace::IrqVector::kTimer)},
      {EventType::kIrqEntry, static_cast<std::uint64_t>(trace::IrqVector::kNet)},
      {EventType::kIrqEntry, static_cast<std::uint64_t>(trace::IrqVector::kResched)},
      {EventType::kSoftirqEntry, static_cast<std::uint64_t>(trace::SoftirqNr::kTimer)},
      {EventType::kSoftirqEntry, static_cast<std::uint64_t>(trace::SoftirqNr::kSched)},
      {EventType::kSoftirqEntry, static_cast<std::uint64_t>(trace::SoftirqNr::kRcu)},
      {EventType::kSoftirqEntry, static_cast<std::uint64_t>(trace::SoftirqNr::kNetRx)},
      {EventType::kTaskletEntry, static_cast<std::uint64_t>(trace::TaskletId::kNetTx)},
      {EventType::kPageFaultEntry, static_cast<std::uint64_t>(trace::PageFaultKind::kCow)},
      {EventType::kSyscallEntry, static_cast<std::uint64_t>(trace::SyscallNr::kRead)},
      {EventType::kScheduleEntry, 0},
  };
  const Entry& e = kEntries[rng.bounded(kEntries.size())];
  b.ev(cpu, t, pid, e.type, e.arg);
  TimeNs cursor = t + 50 + rng.bounded(2'000);
  if (depth < 3 && rng.bounded(100) < 35)  // nested interruption
    cursor = emit_activity(b, rng, cpu, pid, cursor, depth + 1);
  const TimeNs end = cursor + 50 + rng.bounded(1'000);
  b.ev(cpu, end, pid, trace::exit_of(e.type), e.arg);
  return end + 1 + rng.bounded(500);
}

/// A randomized but well-formed multi-CPU trace: monotonic per-CPU streams,
/// balanced nesting, one app rank and one daemon per CPU, preemptions and
/// barrier windows sprinkled in.
trace::TraceModel random_trace(std::uint64_t seed) {
  TraceBuilder b(kCpus);
  for (CpuId cpu = 0; cpu < kCpus; ++cpu) {
    b.task(cpu + 1, "rank" + std::to_string(cpu), true);
    b.task(100 + cpu, "daemon" + std::to_string(cpu), false, true);
  }
  Xoshiro256 root(seed);
  TimeNs trace_end = 0;
  for (CpuId cpu = 0; cpu < kCpus; ++cpu) {
    Xoshiro256 rng = root.split();
    const Pid app = cpu + 1u;
    const Pid daemon = 100u + cpu;
    TimeNs t = 100 + rng.bounded(1'000);
    bool in_barrier = false;
    for (int burst = 0; burst < 120; ++burst) {
      const std::uint64_t pick = rng.bounded(100);
      if (pick < 60) {
        // Kernel activity in app, daemon or idle context.
        const std::uint64_t ctx = rng.bounded(10);
        const Pid pid = ctx < 7 ? app : (ctx < 9 ? daemon : kIdlePid);
        t = emit_activity(b, rng, cpu, pid, t, 0);
      } else if (pick < 75) {
        // Preemption: the app rank descheduled while runnable, resumed later.
        b.ev(cpu, t, app, EventType::kSchedSwitch,
             trace::pack_switch({app, daemon, true}));
        t += 500 + rng.bounded(5'000);
        b.ev(cpu, t, daemon, EventType::kSchedSwitch,
             trace::pack_switch({daemon, app, false}));
        t += 1 + rng.bounded(500);
      } else if (pick < 90) {
        // Barrier window toggling (enter..exit on the same rank).
        b.ev(cpu, t, app, EventType::kAppMark,
             static_cast<std::uint64_t>(in_barrier ? trace::AppMark::kBarrierExit
                                                   : trace::AppMark::kBarrierEnter));
        in_barrier = !in_barrier;
        t += 200 + rng.bounded(2'000);
      } else {
        // Point events the interval scan must skip over.
        b.ev(cpu, t, app, EventType::kSchedWakeup, daemon);
        t += 1 + rng.bounded(300);
      }
    }
    trace_end = std::max(trace_end, t);
  }
  return b.build(trace_end + 1'000);
}

AnalysisOptions with_jobs(std::size_t jobs) {
  AnalysisOptions opts;
  opts.jobs = jobs;
  return opts;
}

/// The exact table `osn-analyze stats` prints.
std::string stats_table(const NoiseAnalysis& analysis) {
  TextTable table({"activity", "freq(ev/sec)", "avg(nsec)", "max(nsec)", "min(nsec)"});
  for (int k = 0; k < static_cast<int>(ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<ActivityKind>(k);
    const EventStats s = analysis.activity_stats(kind);
    if (s.count == 0) continue;
    table.add_row({std::string(activity_name(kind)), fmt_fixed(s.freq_ev_per_sec, 1),
                   with_commas(static_cast<std::uint64_t>(s.avg_ns)),
                   with_commas(s.max_ns), with_commas(s.min_ns)});
  }
  return table.render();
}

TEST(ParallelAnalysis, SerialAndShardedAreByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const trace::TraceModel model = random_trace(seed);
    ASSERT_EQ(model.validate(), "") << "seed " << seed;

    const NoiseAnalysis serial(model, with_jobs(1));
    const NoiseAnalysis sharded(model, with_jobs(8));

    // Interval and noise lists: element-for-element identical, per CPU
    // shard (there is no merged kernel list) and in the merged noise list.
    ASSERT_EQ(serial.intervals().kernel_by_cpu.size(), kCpus) << "seed " << seed;
    EXPECT_EQ(serial.intervals().kernel_by_cpu, sharded.intervals().kernel_by_cpu)
        << "seed " << seed;
    EXPECT_EQ(serial.intervals().preemption, sharded.intervals().preemption)
        << "seed " << seed;
    EXPECT_EQ(serial.noise_intervals(), sharded.noise_intervals()) << "seed " << seed;
    ASSERT_FALSE(serial.noise_intervals().empty()) << "seed " << seed;

    // OSNT stats table bytes.
    EXPECT_EQ(stats_table(serial), stats_table(sharded)) << "seed " << seed;

    // Paraver export bytes (.prv / .pcf / .row).
    const exporter::ParaverFiles pa = exporter::export_paraver(serial);
    const exporter::ParaverFiles pb = exporter::export_paraver(sharded);
    EXPECT_EQ(pa.prv, pb.prv) << "seed " << seed;
    EXPECT_EQ(pa.pcf, pb.pcf) << "seed " << seed;
    EXPECT_EQ(pa.row, pb.row) << "seed " << seed;

    // CSV rows and the Synthetic Noise Chart rendering.
    EXPECT_EQ(exporter::intervals_csv(serial), exporter::intervals_csv(sharded))
        << "seed " << seed;
    const SyntheticChart ca = build_chart(serial, 1, 0, 10 * kNsPerUs, 64);
    const SyntheticChart cb = build_chart(sharded, 1, 0, 10 * kNsPerUs, 64);
    EXPECT_EQ(exporter::render_spikes(ca), exporter::render_spikes(cb)) << "seed " << seed;
  }
}

TEST(ParallelAnalysis, JobsAutoAndOddCountsAgreeWithSerial) {
  const trace::TraceModel model = random_trace(42);
  const NoiseAnalysis serial(model, with_jobs(1));
  for (const std::size_t jobs : {std::size_t{0}, std::size_t{3}, std::size_t{16}}) {
    const NoiseAnalysis sharded(model, with_jobs(jobs));
    EXPECT_EQ(serial.noise_intervals(), sharded.noise_intervals()) << "jobs " << jobs;
    EXPECT_EQ(stats_table(serial), stats_table(sharded)) << "jobs " << jobs;
  }
}

TEST(ParallelAnalysis, AblationOptionsStayEquivalentToo) {
  const trace::TraceModel model = random_trace(7);
  for (const bool nesting : {true, false}) {
    for (const bool runnable : {true, false}) {
      AnalysisOptions serial_opts;
      serial_opts.resolve_nesting = nesting;
      serial_opts.runnable_filter = runnable;
      AnalysisOptions sharded_opts = serial_opts;
      serial_opts.jobs = 1;
      sharded_opts.jobs = 8;
      const NoiseAnalysis serial(model, serial_opts);
      const NoiseAnalysis sharded(model, sharded_opts);
      EXPECT_EQ(serial.noise_intervals(), sharded.noise_intervals())
          << "nesting " << nesting << " runnable " << runnable;
      EXPECT_EQ(stats_table(serial), stats_table(sharded))
          << "nesting " << nesting << " runnable " << runnable;
    }
  }
}

}  // namespace
}  // namespace osn::noise
