// The Synthetic OS Noise Chart (§III, Fig 1b) and interruption grouping.
//
// The chart is LTTNG-NOISE's answer to FTQ's output: for every fixed time
// quantum it reports not just *how much* time the OS stole from the
// application but *which kernel activities* the interruption consisted of —
// the decomposition FTQ cannot provide (e.g. Fig 1b point X1: 6.96 us =
// timer_interrupt + run_timer_softirq + preemption of the eventd daemon).
//
// An Interruption groups temporally adjacent noise intervals of one task
// into the single "OS interruption" a micro-benchmark would observe: a timer
// irq immediately followed by run_timer_softirq, schedule and a preemption
// reads as one spike from the outside (Fig 2b).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "noise/analysis.hpp"

namespace osn::noise {

struct ChartComponent {
  ActivityKind kind = ActivityKind::kMaxKind;
  std::uint64_t detail = 0;
  DurNs duration = 0;  ///< charged time inside this quantum
};

struct QuantumNoise {
  TimeNs start = 0;
  DurNs total = 0;
  std::vector<ChartComponent> components;
};

struct SyntheticChart {
  TimeNs origin = 0;
  DurNs quantum = 0;
  std::vector<QuantumNoise> quanta;  ///< dense, one entry per quantum
};

/// Builds the chart for one application task over [origin, origin +
/// n_quanta*quantum). Charged time of intervals straddling a boundary is
/// split proportionally.
SyntheticChart build_chart(const NoiseAnalysis& analysis, Pid task, TimeNs origin,
                           DurNs quantum, std::size_t n_quanta);

/// Node-wide noise of one activity (or all of them) bucketed on a quantum
/// grid — the `timeseries` query op. Unlike the synthetic chart, which
/// decomposes one task's interruptions, the series tracks a single activity
/// across every application task: "when do timer softirqs bite?".
struct ActivitySeries {
  ActivityKind kind = ActivityKind::kMaxKind;  ///< kMaxKind = every activity
  TimeNs origin = 0;
  DurNs quantum = 0;
  std::vector<DurNs> totals;          ///< charged ns per quantum (dense)
  std::vector<std::uint64_t> counts;  ///< noise intervals starting in each quantum
};

/// Builds the per-activity series over [origin, origin + n_quanta*quantum),
/// summing charged time of noise intervals of `kind` (every kind when
/// kMaxKind) across all tasks. Straddling intervals split proportionally,
/// with the same arithmetic as build_chart.
ActivitySeries build_activity_series(const NoiseAnalysis& analysis, ActivityKind kind,
                                     TimeNs origin, DurNs quantum, std::size_t n_quanta);

/// Per-CPU noise totals — one row of the `topk` query op.
struct CpuNoise {
  CpuId cpu = 0;
  DurNs total_ns = 0;            ///< summed charged noise on this cpu
  std::uint64_t intervals = 0;  ///< noise intervals attributed to it
};

/// The k noisiest CPUs, ordered by total charged noise descending with cpu id
/// as the tie-breaker (deterministic bytes for equal inputs). CPUs with zero
/// noise are omitted; fewer than k rows may return.
std::vector<CpuNoise> top_noisy_cpus(const NoiseAnalysis& analysis, std::size_t k);

struct Interruption {
  TimeNs start = 0;
  TimeNs end = 0;
  DurNs total = 0;  ///< summed charged time of the parts
  std::vector<Interval> parts;
};

/// Groups a task's noise intervals into externally-visible interruptions:
/// consecutive intervals separated by at most `max_gap` of user time.
std::vector<Interruption> group_interruptions(const NoiseAnalysis& analysis, Pid task,
                                              DurNs max_gap = 200);

/// One-line rendering of an interruption's composition, e.g.
/// "timer_interrupt(2178) + run_timer_softirq(1842) + preemption(2215)".
std::string describe_interruption(const Interruption& in);

}  // namespace osn::noise
