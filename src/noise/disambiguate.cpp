#include "noise/disambiguate.hpp"

#include <algorithm>
#include <cmath>

namespace osn::noise {

std::vector<ActivityKind> composition_signature(const Interruption& in) {
  std::vector<ActivityKind> sig;
  sig.reserve(in.parts.size());
  for (const Interval& iv : in.parts) sig.push_back(iv.kind);
  std::sort(sig.begin(), sig.end());
  return sig;
}

std::vector<LookalikePair> find_lookalikes(const std::vector<Interruption>& interruptions,
                                           double tolerance, std::size_t max_pairs) {
  // Sort indices by total duration; lookalikes are neighbours in that order.
  std::vector<std::size_t> order(interruptions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return interruptions[a].total < interruptions[b].total;
  });

  std::vector<LookalikePair> out;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    const Interruption& a = interruptions[order[i]];
    const Interruption& b = interruptions[order[i + 1]];
    if (a.total == 0 || b.total == 0) continue;
    const double rel = static_cast<double>(b.total - a.total) /
                       static_cast<double>(std::max(a.total, b.total));
    if (rel > tolerance) continue;
    if (composition_signature(a) == composition_signature(b)) continue;
    out.push_back(LookalikePair{a, b, rel});
  }
  std::sort(out.begin(), out.end(), [](const LookalikePair& x, const LookalikePair& y) {
    return x.relative_difference < y.relative_difference;
  });
  if (out.size() > max_pairs) out.resize(max_pairs);
  return out;
}

std::vector<CompositeQuantum> find_composite_quanta(
    const SyntheticChart& chart, const std::vector<Interruption>& interruptions,
    DurNs min_separation) {
  std::vector<CompositeQuantum> out;
  std::size_t cursor = 0;
  for (std::size_t qi = 0; qi < chart.quanta.size(); ++qi) {
    const TimeNs q_start = chart.quanta[qi].start;
    const TimeNs q_end = q_start + chart.quantum;

    CompositeQuantum cq;
    cq.quantum_index = qi;
    cq.start = q_start;
    cq.total = chart.quanta[qi].total;
    while (cursor < interruptions.size() && interruptions[cursor].end <= q_start) ++cursor;
    for (std::size_t i = cursor; i < interruptions.size(); ++i) {
      const Interruption& in = interruptions[i];
      if (in.start >= q_end) break;
      cq.interruptions.push_back(in);
    }
    if (cq.interruptions.size() < 2) continue;
    // Require genuinely unrelated events: some pair separated by user time.
    bool separated = false;
    for (std::size_t i = 0; i + 1 < cq.interruptions.size(); ++i) {
      if (cq.interruptions[i + 1].start >
          cq.interruptions[i].end + min_separation) {
        separated = true;
        break;
      }
    }
    if (separated) out.push_back(std::move(cq));
  }
  return out;
}

}  // namespace osn::noise
