// Determinism contract of the sharded analysis pipeline: for any trace,
// --jobs 1 (serial reference path) and --jobs N produce byte-identical
// results — interval lists, noise lists, OSNT stats tables, Paraver
// .prv/.pcf/.row bytes, and the Synthetic Noise Chart rendering.
//
// Traces are randomized: nested kernel activity across 8 CPUs, preemptions
// via sched_switch, barrier (communication) windows, daemon/idle contexts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "export/ascii.hpp"
#include "export/csv.hpp"
#include "export/paraver.hpp"
#include "noise/analysis.hpp"
#include "noise/chart.hpp"
#include "noise/interval_scanner.hpp"
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

// The noise list refers into the analysis's own shards. A move hands those
// buffers over, so the moved-to analysis lists the same intervals after the
// moved-from one (and its storage) is gone; ASan builds would flag a
// reference left behind.
TEST(ParallelAnalysis, MovedAnalysisKeepsItsNoiseList) {
  const trace::TraceModel model = random_trace(11);
  const trace::TraceModel other_model = random_trace(12);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    auto original = std::make_unique<NoiseAnalysis>(model, with_jobs(jobs));
    const std::vector<Interval> before(original->noise_intervals().begin(),
                                       original->noise_intervals().end());
    ASSERT_FALSE(before.empty());

    NoiseAnalysis moved(std::move(*original));
    original.reset();
    ASSERT_EQ(moved.noise_intervals().size(), before.size()) << "jobs " << jobs;
    for (std::size_t i = 0; i < before.size(); ++i)
      ASSERT_EQ(moved.noise_intervals()[i], before[i]) << "jobs " << jobs << " at " << i;

    NoiseAnalysis assigned(other_model, with_jobs(jobs));
    assigned = std::move(moved);
    EXPECT_EQ(assigned.noise_intervals(), before) << "jobs " << jobs;
  }
}

/// Sched-switch and app-mark records only, on a coarse 100 ns grid, so
/// records on different CPUs share timestamps: ranks migrate, a preemption
/// opened on one CPU may close on another at the same instant, and a
/// barrier mark may tie with either. The (timestamp, cpu) order across CPUs
/// then decides the result. A resume that ties with its preemption sits on
/// a higher CPU, except in every fourth seed, where it may come first and
/// leave the rank preempted twice (a damaged stream). Odd seeds shuffle
/// each CPU's stream, so the streams are not time-sorted.
trace::TraceModel tie_trace(std::uint64_t seed) {
  struct Rec {
    TimeNs t;
    Pid pid;
    EventType type;
    std::uint64_t arg;
  };
  std::vector<std::vector<Rec>> streams(kCpus);
  TraceBuilder b(kCpus);
  Xoshiro256 rng(seed);
  const bool damaged = seed % 4 == 0;
  for (Pid rank = 1; rank <= kCpus; ++rank) {
    b.task(rank, "rank" + std::to_string(rank), true);
    b.task(100 + rank, "daemon" + std::to_string(rank), false, true);
    const Pid daemon = 100 + rank;
    const auto cpu = [&rng] { return static_cast<CpuId>(rng.bounded(kCpus)); };
    // Preempted at t, resumed at the same grid point or a later one.
    for (TimeNs t = 100 * rng.bounded(4); t < 20'000; t += 100 * (1 + rng.bounded(6))) {
      const CpuId from = cpu();
      streams[from].push_back(
          Rec{t, rank, EventType::kSchedSwitch, trace::pack_switch({rank, daemon, true})});
      CpuId to = cpu();
      t += 100 * rng.bounded(3);
      if (!damaged && to <= from) {
        if (from + 1u < kCpus) {
          to = static_cast<CpuId>(from + 1 + rng.bounded(kCpus - from - 1u));
        } else {
          t += 100;
        }
      }
      streams[to].push_back(
          Rec{t, daemon, EventType::kSchedSwitch, trace::pack_switch({daemon, rank, false})});
    }
    bool in_barrier = false;
    for (TimeNs t = 100 * rng.bounded(4); t < 20'000; t += 100 * rng.bounded(5)) {
      streams[cpu()].push_back(Rec{t, rank, EventType::kAppMark,
                                   static_cast<std::uint64_t>(
                                       in_barrier ? trace::AppMark::kBarrierExit
                                                  : trace::AppMark::kBarrierEnter)});
      in_barrier = !in_barrier;
    }
  }
  for (CpuId cpu = 0; cpu < kCpus; ++cpu) {
    std::vector<Rec>& stream = streams[cpu];
    if (seed % 2 == 0) {
      std::stable_sort(stream.begin(), stream.end(),
                       [](const Rec& x, const Rec& y) { return x.t < y.t; });
    } else {
      for (std::size_t i = stream.size(); i > 1; --i)
        std::swap(stream[i - 1], stream[rng.bounded(i)]);
    }
    for (const Rec& r : stream) b.ev(cpu, r.t, r.pid, r.type, r.arg);
  }
  return b.build(25'000);
}

/// What a task scan produced: its preemptions and windows, or its error.
struct TaskScan {
  std::string error;
  std::vector<Interval> preemption;
  std::vector<std::tuple<Pid, TimeNs, TimeNs>> comm;

  friend bool operator==(const TaskScan&, const TaskScan&) = default;
};

TaskScan task_scan_of(const IntervalSet& set) {
  TaskScan out;
  out.preemption = set.preemption;
  for (const CommWindow& w : set.comm) out.comm.emplace_back(w.task, w.start, w.end);
  return out;
}

/// The task scan in model order: every CPU's sched-switch and app-mark
/// records concatenated CPU-major, stable-sorted by (timestamp, cpu), and
/// run through the shared TaskTracker.
TaskScan reference_task_scan(const trace::TraceModel& model) {
  std::vector<tracebuf::EventRecord> records;
  for (CpuId cpu = 0; cpu < model.cpu_count(); ++cpu)
    for (const auto& rec : model.cpu_events(cpu)) {
      const auto type = static_cast<EventType>(rec.event);
      if (type == EventType::kSchedSwitch || type == EventType::kAppMark)
        records.push_back(rec);
    }
  std::stable_sort(records.begin(), records.end(),
                   [](const tracebuf::EventRecord& x, const tracebuf::EventRecord& y) {
                     return x.timestamp != y.timestamp ? x.timestamp < y.timestamp
                                                       : x.cpu < y.cpu;
                   });
  IntervalSet set;
  TaskTracker tracker;
  const auto is_app = [&model](Pid pid) { return model.is_app(pid); };
  const auto on_preemption = [&set](const Interval& iv, bool) { set.preemption.push_back(iv); };
  const auto on_comm = [&set](const CommWindow& w) { set.comm.push_back(w); };
  try {
    for (const auto& rec : records) {
      if (static_cast<EventType>(rec.event) == EventType::kSchedSwitch) {
        const ScanFault fault = tracker.on_switch(rec, is_app, on_preemption);
        if (fault != ScanFault::kNone) throw_scan_fault(rec.cpu, rec.timestamp, fault);
      } else {
        (void)tracker.on_mark(rec, on_comm);
      }
    }
  } catch (const trace::TraceReadError& e) {
    return TaskScan{e.what(), {}, {}};
  }
  tracker.close_all(model.meta().end_ns, on_preemption, on_comm);
  std::sort(set.preemption.begin(), set.preemption.end(), interval_before);
  return task_scan_of(set);
}

TEST(ParallelAnalysis, GatheredTaskScanMatchesModelOrderAcrossTies) {
  int clean = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const trace::TraceModel model = tie_trace(seed);
    const TaskScan want = reference_task_scan(model);
    clean += want.error.empty() ? 1 : 0;
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const auto pool = jobs > 1 ? std::make_unique<ThreadPool>(jobs) : nullptr;
      TaskScan got;
      try {
        got = task_scan_of(build_intervals(model, pool.get()));
      } catch (const trace::TraceReadError& e) {
        got.error = e.what();
      }
      EXPECT_EQ(got, want) << "seed " << seed << " jobs " << jobs << ": " << got.error
                           << " / " << want.error;
    }
  }
  // The undamaged seeds scan cleanly, so the lists above compare something.
  EXPECT_EQ(clean, 30);
}

}  // namespace
}  // namespace osn::noise
