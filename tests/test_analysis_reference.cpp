// Equivalence by reference: the per-CPU filter-then-merge analysis against a
// brute-force reference kept here, on every Sequoia application, several
// seeds and jobs 1/2/4/8.
//
// The reference does everything the slow, obvious way: it re-derives
// preemptions and communication windows from the full TraceModel::merged()
// stream, concatenates the per-CPU kernel shards and sorts them, filters
// through TraceModel::is_app and a linear search over every communication
// window, and takes per-rank breakdowns from category_breakdown(pid).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "export/json.hpp"
#include "noise/analysis.hpp"
#include "trace/schema.hpp"
#include "workloads/sequoia.hpp"
#include "workloads/workload.hpp"

namespace osn::noise {
namespace {

using trace::EventType;

struct Reference {
  std::vector<Interval> kernel;  ///< every CPU, sorted by interval_before
  std::vector<Interval> preemption;
  std::vector<CommWindow> comm;
};

/// Preemption intervals and communication windows from the full merged
/// stream, one record at a time.
void reference_task_scan(const trace::TraceModel& model, Reference& ref) {
  struct TaskState {
    bool preempted = false;
    TimeNs preempt_start = 0;
    CpuId preempt_cpu = 0;
    Pid preemptor = 0;
    bool in_comm = false;
    TimeNs comm_start = 0;
  };
  std::map<Pid, TaskState> tasks;
  auto preemption = [&](Pid task, const TaskState& s, TimeNs end) {
    Interval iv;
    iv.kind = ActivityKind::kPreemption;
    iv.detail = s.preemptor;
    iv.cpu = s.preempt_cpu;
    iv.task = task;
    iv.start = s.preempt_start;
    iv.end = end;
    iv.self = end - s.preempt_start;
    return iv;
  };
  for (const auto& rec : model.merged()) {
    const auto type = static_cast<EventType>(rec.event);
    if (type == EventType::kSchedSwitch) {
      const trace::SwitchArg sw = trace::unpack_switch(rec.arg);
      if (sw.prev != kIdlePid && model.is_app(sw.prev) && sw.prev_runnable) {
        TaskState& s = tasks[sw.prev];
        s.preempted = true;
        s.preempt_start = rec.timestamp;
        s.preempt_cpu = rec.cpu;
        s.preemptor = sw.next;
      }
      if (sw.next != kIdlePid && model.is_app(sw.next) && tasks[sw.next].preempted) {
        ref.preemption.push_back(preemption(sw.next, tasks[sw.next], rec.timestamp));
        tasks[sw.next].preempted = false;
      }
    } else if (type == EventType::kAppMark) {
      TaskState& s = tasks[rec.pid];
      if (rec.arg == static_cast<std::uint64_t>(trace::AppMark::kBarrierEnter)) {
        s.in_comm = true;
        s.comm_start = rec.timestamp;
      } else if (rec.arg == static_cast<std::uint64_t>(trace::AppMark::kBarrierExit) &&
                 s.in_comm) {
        ref.comm.push_back(CommWindow{rec.pid, s.comm_start, rec.timestamp});
        s.in_comm = false;
      }
    }
  }
  for (const auto& [pid, s] : tasks) {
    if (s.preempted) ref.preemption.push_back(preemption(pid, s, model.meta().end_ns));
    if (s.in_comm) ref.comm.push_back(CommWindow{pid, s.comm_start, model.meta().end_ns});
  }
  std::sort(ref.preemption.begin(), ref.preemption.end(), interval_before);
}

Reference reference_intervals(const trace::TraceModel& model) {
  Reference ref;
  for (CpuId cpu = 0; cpu < model.cpu_count(); ++cpu) {
    const std::vector<Interval> shard = scan_cpu_kernel(model, cpu);
    ref.kernel.insert(ref.kernel.end(), shard.begin(), shard.end());
  }
  std::sort(ref.kernel.begin(), ref.kernel.end(), interval_before);
  reference_task_scan(model, ref);
  return ref;
}

bool reference_qualifies(const trace::TraceModel& model, const Reference& ref,
                         const AnalysisOptions& opts, const Interval& iv) {
  if (categorize(iv.kind) == NoiseCategory::kRequestedService &&
      !opts.include_requested_service)
    return false;
  if (!opts.runnable_filter) return true;
  if (!model.is_app(iv.task)) return false;
  for (const CommWindow& w : ref.comm)
    if (w.task == iv.task && w.start <= iv.start && iv.start < w.end) return false;
  return true;
}

void expect_matches_reference(const trace::TraceModel& model, const AnalysisOptions& opts,
                              const std::string& label) {
  const Reference ref = reference_intervals(model);
  const NoiseAnalysis analysis(model, opts);
  const IntervalSet& set = analysis.intervals();

  // Intervals: each per-CPU shard is the scan of that CPU, the shards merge
  // to the sorted concatenation, and the task scan matches merged() order.
  ASSERT_EQ(set.kernel_by_cpu.size(), model.cpu_count()) << label;
  for (CpuId cpu = 0; cpu < model.cpu_count(); ++cpu)
    ASSERT_EQ(set.kernel_by_cpu[cpu], scan_cpu_kernel(model, cpu)) << label << " cpu " << cpu;
  ASSERT_EQ(merge_kernel_shards(set.kernel_by_cpu), ref.kernel) << label;
  ASSERT_EQ(set.preemption, ref.preemption) << label;
  ASSERT_EQ(set.comm.size(), ref.comm.size()) << label;
  for (std::size_t i = 0; i < ref.comm.size(); ++i) {
    EXPECT_EQ(set.comm[i].task, ref.comm[i].task) << label << " window " << i;
    EXPECT_EQ(set.comm[i].start, ref.comm[i].start) << label << " window " << i;
    EXPECT_EQ(set.comm[i].end, ref.comm[i].end) << label << " window " << i;
  }

  // Noise list: filter everything, then sort once.
  std::vector<Interval> noise;
  for (const auto* list : {&ref.kernel, &ref.preemption})
    for (const Interval& iv : *list)
      if (reference_qualifies(model, ref, opts, iv)) noise.push_back(iv);
  std::sort(noise.begin(), noise.end(), interval_before);
  ASSERT_EQ(analysis.noise_intervals(), noise) << label;

  // Activity rows over every kernel interval plus the preemptions.
  ActivityAccumArray kinds{};
  for (const auto* list : {&ref.kernel, &ref.preemption})
    for (const Interval& iv : *list)
      kinds[static_cast<std::size_t>(iv.kind)].add(analysis.charged(iv));
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const EventStats want = to_stats(kinds[k], model.duration(), model.cpu_count());
    const EventStats got = analysis.activity_stats(static_cast<ActivityKind>(k));
    EXPECT_EQ(got.count, want.count) << label << " kind " << k;
    EXPECT_EQ(got.freq_ev_per_sec, want.freq_ev_per_sec) << label << " kind " << k;
    EXPECT_EQ(got.avg_ns, want.avg_ns) << label << " kind " << k;
    EXPECT_EQ(got.max_ns, want.max_ns) << label << " kind " << k;
    EXPECT_EQ(got.min_ns, want.min_ns) << label << " kind " << k;
  }

  // One-pass rank breakdowns against the per-pid scan.
  const std::vector<Pid> pids = model.app_pids();
  ASSERT_EQ(analysis.rank_breakdowns().size(), pids.size()) << label;
  CategoryBreakdown all{};
  for (std::size_t i = 0; i < pids.size(); ++i) {
    const CategoryBreakdown want = analysis.category_breakdown(pids[i]);
    EXPECT_EQ(analysis.rank_breakdowns()[i], want) << label << " pid " << pids[i];
    EXPECT_EQ(analysis.total_noise(pids[i]), noise_total(want)) << label;
    for (std::size_t c = 0; c < all.size(); ++c) all[c] += want[c];
  }
  EXPECT_EQ(analysis.category_breakdown_all(), all) << label;
}

class AnalysisReference : public ::testing::TestWithParam<workloads::SequoiaApp> {};

TEST_P(AnalysisReference, MatchesBruteForceAtEveryJobsCount) {
  for (const std::uint64_t seed : {1u, 5u}) {
    workloads::SequoiaWorkload wl(GetParam(), 400 * kNsPerMs);
    const trace::TraceModel model = workloads::run_workload(wl, seed).trace;
    std::string serial_summary;
    for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
      AnalysisOptions opts;
      opts.jobs = jobs;
      const std::string label = workloads::app_name(GetParam()) + " seed " +
                                std::to_string(seed) + " jobs " + std::to_string(jobs);
      expect_matches_reference(model, opts, label);
      const std::string summary = exporter::summary_json(NoiseAnalysis(model, opts));
      if (jobs == 1) serial_summary = summary;
      EXPECT_EQ(summary, serial_summary) << label;
    }
  }
}

TEST_P(AnalysisReference, AblationsMatchBruteForce) {
  workloads::SequoiaWorkload wl(GetParam(), 200 * kNsPerMs);
  const trace::TraceModel model = workloads::run_workload(wl, 3).trace;
  for (const bool runnable : {true, false}) {
    for (const bool requested : {false, true}) {
      AnalysisOptions opts;
      opts.runnable_filter = runnable;
      opts.include_requested_service = requested;
      opts.resolve_nesting = requested;  // both charge modes, across the grid
      opts.jobs = 4;
      expect_matches_reference(model, opts,
                               workloads::app_name(GetParam()) + " runnable " +
                                   std::to_string(runnable) + " requested " +
                                   std::to_string(requested));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, AnalysisReference,
                         ::testing::Values(workloads::SequoiaApp::kAmg,
                                           workloads::SequoiaApp::kIrs,
                                           workloads::SequoiaApp::kLammps,
                                           workloads::SequoiaApp::kSphot,
                                           workloads::SequoiaApp::kUmt),
                         [](const ::testing::TestParamInfo<workloads::SequoiaApp>& p) {
                           return workloads::app_name(p.param);
                         });

}  // namespace
}  // namespace osn::noise
