// Randomized round-trip property: any structurally valid trace — random CPU
// counts, task tables, event mixes, timestamp gaps spanning nine orders of
// magnitude — must survive OSNT serialization bit-for-bit and keep passing
// structural validation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "common/rng.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn::trace {
namespace {

TraceModel random_trace(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto n_cpus = static_cast<std::uint16_t>(1 + rng.bounded(8));
  osn::testing::TraceBuilder b(n_cpus);

  const std::size_t n_tasks = 1 + rng.bounded(6);
  std::vector<Pid> pids;
  for (std::size_t t = 0; t < n_tasks; ++t) {
    const auto pid = static_cast<Pid>(1 + t);
    b.task(pid, "task" + std::to_string(pid), rng.bounded(2) == 0,
           rng.bounded(3) == 0);
    pids.push_back(pid);
  }

  static constexpr EventType kEntries[] = {
      EventType::kIrqEntry, EventType::kSoftirqEntry, EventType::kTaskletEntry,
      EventType::kPageFaultEntry, EventType::kSyscallEntry, EventType::kScheduleEntry};

  for (CpuId cpu = 0; cpu < n_cpus; ++cpu) {
    TimeNs t = rng.bounded(1000);
    const std::size_t n_events = rng.bounded(200);
    std::vector<std::pair<EventType, std::uint64_t>> open;
    for (std::size_t i = 0; i < n_events; ++i) {
      // Gaps from 1 ns to ~1 s exercise every varint width.
      t += 1 + (rng.next() % (1ULL << (1 + rng.bounded(30))));
      const Pid pid = pids[rng.bounded(pids.size())];
      const std::uint64_t roll = rng.bounded(10);
      if (roll < 3 && open.size() < 4) {
        const EventType entry = kEntries[rng.bounded(std::size(kEntries))];
        const std::uint64_t arg = rng.bounded(4);
        b.ev(cpu, t, pid, entry, arg);
        open.emplace_back(entry, arg);
      } else if (roll < 6 && !open.empty()) {
        const auto [entry, arg] = open.back();
        open.pop_back();
        b.ev(cpu, t, pid, exit_of(entry), arg);
      } else if (roll < 8) {
        b.ev(cpu, t, pid, EventType::kSchedWakeup, pids[rng.bounded(pids.size())]);
      } else {
        b.ev(cpu, t, pid, EventType::kSchedSwitch,
             pack_switch({pids[rng.bounded(pids.size())],
                          pids[rng.bounded(pids.size())], rng.bounded(2) == 0}));
      }
    }
    // Close whatever is still open so the trace stays well-formed.
    while (!open.empty()) {
      const auto [entry, arg] = open.back();
      open.pop_back();
      t += 1 + rng.bounded(1000);
      b.ev(cpu, t, pids[0], exit_of(entry), arg);
    }
  }
  return b.build();
}

class TraceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceFuzz, RoundTripsAndValidates) {
  const TraceModel original = random_trace(GetParam());
  ASSERT_EQ(original.validate(), "");
  const std::string path = ::testing::TempDir() + "/osn_fuzz_" +
                           std::to_string(::getpid()) + ".osnt";
  ASSERT_TRUE(write_trace_file(original, path));
  const TraceModel restored = read_trace_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(original, restored);
  EXPECT_EQ(restored.validate(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144,
                                           233, 377, 610, 987));

}  // namespace
}  // namespace osn::trace
