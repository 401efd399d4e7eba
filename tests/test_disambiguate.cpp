#include <gtest/gtest.h>

#include "noise/disambiguate.hpp"

namespace osn::noise {
namespace {

Interruption make_interruption(TimeNs start, std::vector<std::pair<ActivityKind, DurNs>> parts) {
  Interruption in;
  in.start = start;
  TimeNs t = start;
  for (const auto& [kind, dur] : parts) {
    Interval iv;
    iv.kind = kind;
    iv.start = t;
    iv.end = t + dur;
    iv.self = dur;
    iv.task = 1;
    in.parts.push_back(iv);
    in.total += dur;
    t += dur;
  }
  in.end = t;
  return in;
}

TEST(Disambiguate, SignatureSortsKinds) {
  const auto in = make_interruption(
      0, {{ActivityKind::kTimerSoftirq, 100}, {ActivityKind::kTimerIrq, 100}});
  const auto sig = composition_signature(in);
  ASSERT_EQ(sig.size(), 2u);
  EXPECT_EQ(sig[0], ActivityKind::kTimerIrq);
  EXPECT_EQ(sig[1], ActivityKind::kTimerSoftirq);
}

TEST(Disambiguate, FindsThePaperFig10Pair) {
  // A 2913 ns page fault vs a 2902 ns timer irq + softirq: identical from
  // the outside, different composition.
  std::vector<Interruption> ins;
  ins.push_back(make_interruption(1'000, {{ActivityKind::kPageFault, 2'913}}));
  ins.push_back(make_interruption(
      9'000, {{ActivityKind::kTimerIrq, 2'648}, {ActivityKind::kTimerSoftirq, 254}}));
  const auto pairs = find_lookalikes(ins, 0.02);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_LT(pairs[0].relative_difference, 0.005);
  EXPECT_NE(composition_signature(pairs[0].a), composition_signature(pairs[0].b));
}

TEST(Disambiguate, SameCompositionNotReported) {
  std::vector<Interruption> ins;
  ins.push_back(make_interruption(0, {{ActivityKind::kPageFault, 2'900}}));
  ins.push_back(make_interruption(9'000, {{ActivityKind::kPageFault, 2'910}}));
  EXPECT_TRUE(find_lookalikes(ins).empty());
}

TEST(Disambiguate, DissimilarDurationsNotReported) {
  std::vector<Interruption> ins;
  ins.push_back(make_interruption(0, {{ActivityKind::kPageFault, 1'000}}));
  ins.push_back(make_interruption(9'000, {{ActivityKind::kTimerIrq, 5'000}}));
  EXPECT_TRUE(find_lookalikes(ins, 0.02).empty());
}

TEST(Disambiguate, MaxPairsRespected) {
  std::vector<Interruption> ins;
  for (int i = 0; i < 40; ++i) {
    const auto kind = i % 2 == 0 ? ActivityKind::kPageFault : ActivityKind::kTimerIrq;
    ins.push_back(make_interruption(static_cast<TimeNs>(i) * 10'000,
                                    {{kind, 2'900 + static_cast<DurNs>(i % 3)}}));
  }
  EXPECT_LE(find_lookalikes(ins, 0.05, 5).size(), 5u);
}

TEST(Disambiguate, CompositeQuantumFound) {
  // Fig 9: a page fault and a timer interrupt, separated by user time, both
  // inside one 1 ms quantum.
  SyntheticChart chart;
  chart.origin = 0;
  chart.quantum = 1'000'000;
  chart.quanta.resize(3);
  for (std::size_t i = 0; i < 3; ++i)
    chart.quanta[i].start = static_cast<TimeNs>(i) * chart.quantum;
  chart.quanta[1].total = 7'500;

  std::vector<Interruption> ins;
  ins.push_back(make_interruption(1'200'000, {{ActivityKind::kPageFault, 2'500}}));
  ins.push_back(make_interruption(1'400'000, {{ActivityKind::kTimerIrq, 2'200},
                                              {ActivityKind::kTimerSoftirq, 1'800}}));
  const auto composites = find_composite_quanta(chart, ins, 10'000);
  ASSERT_EQ(composites.size(), 1u);
  EXPECT_EQ(composites[0].quantum_index, 1u);
  EXPECT_EQ(composites[0].interruptions.size(), 2u);
}

TEST(Disambiguate, SingleInterruptionQuantumNotComposite) {
  SyntheticChart chart;
  chart.origin = 0;
  chart.quantum = 1'000'000;
  chart.quanta.resize(1);
  chart.quanta[0].start = 0;
  std::vector<Interruption> ins;
  ins.push_back(make_interruption(100'000, {{ActivityKind::kTimerIrq, 2'200}}));
  EXPECT_TRUE(find_composite_quanta(chart, ins).empty());
}

TEST(Disambiguate, BackToBackEventsNotComposite) {
  // Two interruptions closer than min_separation: one logical interruption.
  SyntheticChart chart;
  chart.origin = 0;
  chart.quantum = 1'000'000;
  chart.quanta.resize(1);
  chart.quanta[0].start = 0;
  std::vector<Interruption> ins;
  ins.push_back(make_interruption(100'000, {{ActivityKind::kTimerIrq, 2'200}}));
  ins.push_back(make_interruption(103'000, {{ActivityKind::kPageFault, 2'500}}));
  EXPECT_TRUE(find_composite_quanta(chart, ins, 10'000).empty());
}

}  // namespace
}  // namespace osn::noise
