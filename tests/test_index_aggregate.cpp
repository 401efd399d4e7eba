// IndexAggregator's per-chunk lists against a reference fold kept here: the
// same interval semantics written with std::map state, so the aggregator's
// own containers (whatever they are) must drain exactly what an ordered-map
// fold drains — sorted sparse lists, the same observer calls and the same
// quiescence answers — on random, hostile and damaged streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "noise/index_aggregate.hpp"
#include "noise/interval_scanner.hpp"
#include "trace/schema.hpp"

namespace {

using namespace osn;
using noise::NoiseCategory;
using trace::EventType;

/// (task, category, end, charged) of one observer call.
using Observation = std::tuple<Pid, NoiseCategory, TimeNs, DurNs>;

/// The reference: IndexAggregator's documented semantics over std::map.
class ReferenceFold {
 public:
  void on_record(const tracebuf::EventRecord& rec) {
    if (dirty_) return;
    ++cpu_events_[rec.cpu];
    const auto type = static_cast<EventType>(rec.event);
    if (rec.cpu >= stacks_.size()) stacks_.resize(rec.cpu + std::size_t{1});
    if (trace::is_entry(type)) {
      const auto it = tasks_.find(rec.pid);
      const Entry entry{rec.pid, it != tasks_.end() && it->second.in_comm};
      dirty_ = stacks_[rec.cpu].enter(rec, entry) != noise::ScanFault::kNone;
    } else if (trace::is_exit(type)) {
      noise::NestingStack<Entry>::Closed closed;
      dirty_ = stacks_[rec.cpu].exit(rec, closed) != noise::ScanFault::kNone;
      if (!dirty_) add_kernel(closed);
    } else if (type == EventType::kSchedSwitch) {
      const trace::SwitchArg sw = trace::unpack_switch(rec.arg);
      if (sw.prev != kIdlePid && sw.prev_runnable) {
        Task& task = tasks_[sw.prev];
        if (task.preempted) {
          dirty_ = true;
          return;
        }
        task = Task{true, task.in_comm, task.in_comm, rec.cpu, rec.timestamp, task.comm_start};
      }
      if (sw.next != kIdlePid) {
        const auto it = tasks_.find(sw.next);
        if (it != tasks_.end() && it->second.preempted) close(sw.next, it->second, rec.timestamp, true);
      }
    } else if (type == EventType::kAppMark) {
      Task& task = tasks_[rec.pid];
      const auto mark = static_cast<trace::AppMark>(rec.arg);
      if (mark == trace::AppMark::kBarrierEnter) {
        dirty_ = task.in_comm;  // a re-entered window vetoes
        task.in_comm = true;
        task.comm_start = rec.timestamp;
      } else if (mark == trace::AppMark::kBarrierExit) {
        task.in_comm = false;
      }
    }
  }

  trace::ChunkAggregate take_chunk() {
    trace::ChunkAggregate out;
    for (const auto& [cls, acc] : classes_) out.classes.push_back({cls, acc});
    for (const auto& [task, p] : preempt_)
      out.preempt.push_back({task, p.acc, p.cex_count, p.cex_sum});
    for (const auto& [key, val] : noise_)
      out.noise.push_back({key.first, key.second, val.first, val.second});
    for (const auto& [cpu, count] : cpu_events_) out.cpu_events.push_back({cpu, count});
    classes_.clear();
    preempt_.clear();
    noise_.clear();
    cpu_events_.clear();
    return out;
  }

  std::optional<trace::ChunkAggregate> take_tail(TimeNs end) {
    if (dirty_ || !stacks_empty()) return std::nullopt;
    for (auto& [pid, task] : tasks_)
      if (task.preempted) close(pid, task, end, false);
    tasks_.clear();
    return take_chunk();
  }

  bool stacks_empty() const {
    return std::all_of(stacks_.begin(), stacks_.end(),
                       [](const auto& s) { return s.empty(); });
  }
  bool quiescent() const {
    if (dirty_ || !stacks_empty()) return false;
    for (const auto& [pid, task] : tasks_)
      if (task.preempted || task.in_comm) return false;
    return true;
  }

  std::vector<Observation> observed;

 private:
  struct Entry {
    Pid task = 0;
    bool in_comm = false;
  };
  struct Task {
    bool preempted = false;
    bool pre_in_comm = false;
    bool in_comm = false;
    CpuId pre_cpu = 0;
    TimeNs pre_start = 0;
    TimeNs comm_start = 0;
  };
  struct PreAccum {
    trace::AggAccum acc;
    std::uint64_t cex_count = 0;
    std::uint64_t cex_sum = 0;
  };

  void add_kernel(const noise::NestingStack<Entry>::Closed& closed) {
    classes_[static_cast<std::uint64_t>(closed.kind)].add(closed.self);
    const NoiseCategory cat = noise::categorize(closed.kind);
    if (cat == NoiseCategory::kRequestedService || closed.payload.in_comm) return;
    auto& [count, sum] = noise_[{closed.payload.task, static_cast<std::uint64_t>(cat)}];
    ++count;
    sum += closed.self;
    observed.emplace_back(closed.payload.task, cat, closed.end, closed.self);
  }

  void close(Pid pid, Task& task, TimeNs end, bool notify) {
    task.preempted = false;
    const DurNs self = end - task.pre_start;
    PreAccum& acc = preempt_[pid];
    acc.acc.add(self);
    if (task.pre_in_comm) return;
    ++acc.cex_count;
    acc.cex_sum += self;
    if (notify) observed.emplace_back(pid, NoiseCategory::kPreemption, end, self);
  }

  bool dirty_ = false;
  std::vector<noise::NestingStack<Entry>> stacks_;
  std::map<Pid, Task> tasks_;
  std::map<std::uint64_t, trace::AggAccum> classes_;
  std::map<Pid, PreAccum> preempt_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::pair<std::uint64_t, std::uint64_t>>
      noise_;
  std::map<std::uint64_t, std::uint64_t> cpu_events_;
};

constexpr Pid kHostilePid = 0xFFFFFFFF;
constexpr Pid kSwitchPidMax = (1u << 24) - 1;  ///< sched_switch packs 24-bit pids

/// Stream shapes. Every stream is in merged order (one global clock).
struct StreamSpec {
  std::uint64_t seed = 1;
  std::size_t records = 4000;
  std::uint16_t cpus = 4;
  std::uint32_t pid_pool = 8;  ///< tasks drawn from 1..pid_pool
  bool hostile = false;        ///< mismatched exits, nested preemption, re-entry
  bool huge_cpu = false;       ///< one cpu well past 63 as well
};

std::vector<tracebuf::EventRecord> make_stream(const StreamSpec& spec) {
  std::mt19937_64 rng(spec.seed);
  const std::pair<EventType, std::uint64_t> kinds[] = {
      {EventType::kIrqEntry, 0},       {EventType::kIrqEntry, 1},
      {EventType::kIrqEntry, 2},       {EventType::kSoftirqEntry, 1},
      {EventType::kSoftirqEntry, 7},   {EventType::kSoftirqEntry, 9},
      {EventType::kSoftirqEntry, 3},   {EventType::kTaskletEntry, 1},
      {EventType::kPageFaultEntry, 0}, {EventType::kSyscallEntry, 5},
      {EventType::kScheduleEntry, 0},
  };
  std::vector<CpuId> cpus;
  for (std::uint16_t c = 0; c < spec.cpus; ++c) cpus.push_back(c);
  if (spec.huge_cpu) cpus.push_back(200);
  std::map<CpuId, std::vector<std::pair<EventType, std::uint64_t>>> open;
  std::map<Pid, bool> preempted;
  std::map<Pid, bool> in_comm;
  const auto draw_pid = [&]() -> Pid {
    if (rng() % 50 == 0) return kHostilePid;
    return static_cast<Pid>(1 + rng() % spec.pid_pool);
  };

  std::vector<tracebuf::EventRecord> out;
  TimeNs t = 1'000;
  while (out.size() < spec.records) {
    const CpuId cpu = cpus[rng() % cpus.size()];
    const Pid pid = draw_pid();
    t += rng() % 300;  // zero steps too: equal timestamps across cpus
    auto& stack = open[cpu];
    switch (rng() % 6) {
      case 0:
      case 1: {  // kernel entry, nested up to depth 3
        if (stack.size() >= 3) break;
        const auto& [entry, arg] = kinds[rng() % std::size(kinds)];
        out.push_back(trace::make_record(t, cpu, pid, entry, arg));
        stack.emplace_back(entry, arg);
        break;
      }
      case 2: {  // kernel exit of the innermost frame
        if (stack.empty()) break;
        auto [entry, arg] = stack.back();
        stack.pop_back();
        if (spec.hostile && rng() % 400 == 0) arg ^= 1;  // mismatched exit
        out.push_back(trace::make_record(t, cpu, pid, trace::exit_of(entry), arg));
        break;
      }
      case 3: {  // preempt a runnable task, or resume one
        const auto a = static_cast<Pid>(1 + rng() % spec.pid_pool);
        const auto b = static_cast<Pid>(1 + rng() % spec.pid_pool);
        const bool nest = spec.hostile && rng() % 300 == 0;
        if (!preempted[a] || nest) {
          out.push_back(trace::make_record(t, cpu, pid, EventType::kSchedSwitch,
                                           trace::pack_switch({a, b, true})));
          preempted[a] = true;
          preempted[b] = false;  // b runs (a == b: descheduled and resumed at once)
        } else {
          out.push_back(trace::make_record(t, cpu, pid, EventType::kSchedSwitch,
                                           trace::pack_switch({b, a, false})));
          preempted[a] = false;
        }
        break;
      }
      case 4: {  // communication window toggle
        const bool reenter = spec.hostile && in_comm[pid] && rng() % 40 == 0;
        const auto mark = in_comm[pid] && !reenter ? trace::AppMark::kBarrierExit
                                                   : trace::AppMark::kBarrierEnter;
        out.push_back(trace::make_record(t, cpu, pid, EventType::kAppMark,
                                         static_cast<std::uint64_t>(mark)));
        in_comm[pid] = mark == trace::AppMark::kBarrierEnter;
        break;
      }
      case 5:  // point events the aggregator only counts
        out.push_back(trace::make_record(t, cpu, pid, EventType::kSchedWakeup, pid));
        break;
    }
  }
  // Close what is open so most streams end clean (the tail then exercises
  // end-of-trace preemption closes instead of a veto).
  for (auto& [cpu, stack] : open)
    while (!stack.empty()) {
      const auto [entry, arg] = stack.back();
      stack.pop_back();
      out.push_back(trace::make_record(t += 10, cpu, 1, trace::exit_of(entry), arg));
    }
  return out;
}

/// Feeds `stream` to both folds, draining every `chunk` records, and
/// compares every drained list, observer call and quiescence answer.
/// Quiescence is compared at every `check_every`-th record (the reference
/// answers it by walking every task). Returns whether the tail vetoed.
bool expect_same_drains(const std::vector<tracebuf::EventRecord>& stream, std::size_t chunk,
                        const char* label, std::size_t check_every = 1) {
  SCOPED_TRACE(label);
  noise::IndexAggregator agg;
  ReferenceFold ref;
  std::vector<Observation> seen;
  agg.set_observer([&seen](Pid task, NoiseCategory cat, TimeNs end, DurNs charged) {
    seen.emplace_back(task, cat, end, charged);
  });
  std::size_t in_chunk = 0;
  std::size_t drains = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    agg.on_record(stream[i]);
    ref.on_record(stream[i]);
    if (i % check_every == 0) {
      EXPECT_EQ(agg.quiescent(), ref.quiescent()) << "record " << i;
      EXPECT_EQ(agg.stacks_empty(), ref.stacks_empty()) << "record " << i;
    }
    if (++in_chunk == chunk) {
      EXPECT_EQ(agg.take_chunk(), ref.take_chunk()) << "chunk " << drains;
      ++drains;
      in_chunk = 0;
    }
    if (::testing::Test::HasFailure()) return false;  // one report, not thousands
  }
  EXPECT_EQ(agg.take_chunk(), ref.take_chunk());
  EXPECT_EQ(seen, ref.observed);
  trace::TraceMeta meta;
  meta.end_ns = stream.empty() ? 1 : stream.back().timestamp + 1;
  const auto tail = ref.take_tail(meta.end_ns);
  EXPECT_EQ(agg.take_tail(meta), tail);
  return !tail.has_value();
}

TEST(IndexAggregate, RandomStreamsMatchReferenceFold) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    StreamSpec spec;
    spec.seed = seed;
    spec.pid_pool = 3 + static_cast<std::uint32_t>(seed % 5) * 7;
    spec.cpus = static_cast<std::uint16_t>(1 + seed % 4);
    const auto stream = make_stream(spec);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{512}})
      EXPECT_FALSE(expect_same_drains(stream, chunk, ("seed " + std::to_string(seed)).c_str()))
          << "a well-formed stream vetoed";
  }
}

TEST(IndexAggregate, ManyPidsAndWideCpusMatchReferenceFold) {
  // More than 4096 distinct tasks in one chunk, every cpu 0..63 plus one
  // past the 64-bit mask, and the all-ones pid.
  StreamSpec spec;
  spec.seed = 99;
  spec.records = 60'000;
  spec.cpus = 64;
  spec.pid_pool = 20'000;
  spec.huge_cpu = true;
  const auto stream = make_stream(spec);
  std::map<Pid, bool> pids;
  for (const auto& rec : stream) pids[rec.pid] = true;
  ASSERT_GT(pids.size(), 4096u);
  ASSERT_TRUE(pids.count(kHostilePid));
  EXPECT_FALSE(expect_same_drains(stream, stream.size(), "one chunk", 499));
  EXPECT_FALSE(expect_same_drains(stream, 8192, "default chunk", 499));
}

TEST(IndexAggregate, HostileStreamsMatchReferenceFold) {
  // Mismatched exits, nested preemptions and re-entered comm windows dirty
  // both folds at the same record; what was drained before must agree and
  // both tails veto.
  std::size_t vetoed = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    StreamSpec spec;
    spec.seed = 1000 + seed;
    spec.hostile = true;
    spec.huge_cpu = seed % 2 == 0;
    const auto stream = make_stream(spec);
    if (expect_same_drains(stream, 97, ("hostile seed " + std::to_string(seed)).c_str()))
      ++vetoed;
  }
  EXPECT_GT(vetoed, 0u);  // the hostile shapes did reach the veto
}

TEST(IndexAggregate, ReenteredCommWindowVetoesAtTheRecord) {
  const std::vector<tracebuf::EventRecord> stream = {
      trace::make_record(10, 0, kHostilePid, EventType::kAppMark,
                         static_cast<std::uint64_t>(trace::AppMark::kBarrierEnter)),
      trace::make_record(20, 0, kHostilePid, EventType::kIrqEntry, 0),
      trace::make_record(30, 0, kHostilePid, EventType::kIrqExit, 0),
      trace::make_record(40, 0, kHostilePid, EventType::kAppMark,
                         static_cast<std::uint64_t>(trace::AppMark::kBarrierEnter)),
      trace::make_record(50, 0, 7, EventType::kIrqEntry, 0),
  };
  EXPECT_TRUE(expect_same_drains(stream, 2, "re-entered window"));
  noise::IndexAggregator agg;
  for (const auto& rec : stream) agg.on_record(rec);
  EXPECT_FALSE(agg.quiescent());
  EXPECT_FALSE(agg.take_tail(trace::TraceMeta{}).has_value());
}

TEST(TaskTracker, CloseAllCallsBackInAscendingPidOrder) {
  // Tasks first met in a scrambled order, enough of them to outgrow any
  // small initial table, with the extreme pids of both record fields.
  std::vector<Pid> pids;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 300; ++i) pids.push_back(static_cast<Pid>(1 + rng() % kSwitchPidMax));
  pids.push_back(kSwitchPidMax);
  pids.push_back(1);
  std::shuffle(pids.begin(), pids.end(), rng);

  noise::TaskTracker tracker;
  TimeNs t = 100;
  const auto always = [](Pid) { return true; };
  const auto never = [](const noise::Interval&, bool) { FAIL() << "closed early"; };
  std::map<Pid, bool> preempted;
  for (const Pid pid : pids) {
    if (preempted[pid]) continue;  // a drawn duplicate
    preempted[pid] = true;
    const auto rec = trace::make_record(t++, 0, pid, EventType::kSchedSwitch,
                                        trace::pack_switch({pid, kIdlePid, true}));
    ASSERT_EQ(tracker.on_switch(rec, always, never), noise::ScanFault::kNone);
  }
  // Comm windows on the preempted tasks' neighbours and on the all-ones pid.
  std::vector<Pid> comm = {kHostilePid, pids[0] + 1, pids[1] + 1};
  for (const Pid pid : comm)
    (void)tracker.on_mark(trace::make_record(t++, 0, pid, EventType::kAppMark,
                                             static_cast<std::uint64_t>(
                                                 trace::AppMark::kBarrierEnter)),
                          [](const noise::CommWindow&) {});
  EXPECT_FALSE(tracker.all_idle());

  std::vector<std::pair<Pid, char>> calls;
  tracker.close_all(
      t, [&calls](const noise::Interval& iv, bool) { calls.emplace_back(iv.task, 'p'); },
      [&calls](const noise::CommWindow& w) { calls.emplace_back(w.task, 'c'); });
  std::vector<std::pair<Pid, char>> want;
  std::map<Pid, std::vector<char>> by_pid;
  for (const auto& [pid, flag] : preempted) by_pid[pid].push_back('p');
  for (const Pid pid : comm) by_pid[pid].push_back('c');
  for (const auto& [pid, kinds] : by_pid)
    for (const char k : kinds) want.emplace_back(pid, k);
  EXPECT_EQ(calls, want);
  EXPECT_TRUE(tracker.all_idle());

  // close_all forgets every task.
  calls.clear();
  tracker.close_all(
      t, [&calls](const noise::Interval& iv, bool) { calls.emplace_back(iv.task, 'p'); },
      [&calls](const noise::CommWindow& w) { calls.emplace_back(w.task, 'c'); });
  EXPECT_TRUE(calls.empty());
}

TEST(TaskTracker, AllIdleFollowsEveryTransition) {
  noise::TaskTracker tracker;
  const auto always = [](Pid) { return true; };
  const auto ignore = [](const noise::Interval&, bool) {};
  const auto mark = [&](TimeNs t, Pid pid, trace::AppMark m) {
    return tracker.on_mark(
        trace::make_record(t, 0, pid, EventType::kAppMark, static_cast<std::uint64_t>(m)),
        [](const noise::CommWindow&) {});
  };
  const auto sw = [&](TimeNs t, Pid prev, Pid next, bool runnable) {
    return tracker.on_switch(trace::make_record(t, 0, prev, EventType::kSchedSwitch,
                                                trace::pack_switch({prev, next, runnable})),
                             always, ignore);
  };
  EXPECT_TRUE(tracker.all_idle());
  EXPECT_FALSE(tracker.in_comm(kHostilePid));
  EXPECT_FALSE(mark(1, kHostilePid, trace::AppMark::kBarrierEnter));
  EXPECT_TRUE(tracker.in_comm(kHostilePid));
  EXPECT_FALSE(tracker.all_idle());
  EXPECT_TRUE(mark(2, kHostilePid, trace::AppMark::kBarrierEnter));  // re-entered
  EXPECT_FALSE(mark(3, kHostilePid, trace::AppMark::kBarrierExit));
  EXPECT_TRUE(tracker.all_idle());
  EXPECT_FALSE(mark(4, 5, trace::AppMark::kBarrierExit));  // exit without enter
  EXPECT_TRUE(tracker.all_idle());

  EXPECT_EQ(sw(5, 5, 6, true), noise::ScanFault::kNone);
  EXPECT_FALSE(tracker.all_idle());
  EXPECT_EQ(sw(6, 5, 6, true), noise::ScanFault::kNestedPreemption);
  EXPECT_EQ(sw(7, 6, 5, false), noise::ScanFault::kNone);  // 5 resumes
  EXPECT_TRUE(tracker.all_idle());
  EXPECT_EQ(sw(8, 5, 5, true), noise::ScanFault::kNone);  // descheduled and resumed at once
  EXPECT_TRUE(tracker.all_idle());
}

}  // namespace
