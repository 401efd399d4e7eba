#include "query/plan.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace osn::query {

const char* aggregate_name(Aggregate a) {
  switch (a) {
    case Aggregate::kSummary: return "summary";
    case Aggregate::kChart: return "chart";
    case Aggregate::kTimeseries: return "timeseries";
    case Aggregate::kTopK: return "topk";
  }
  return "?";
}

std::optional<TimeNs> ns_from_ms(double ms) {
  if (!std::isfinite(ms) || ms < 0) return std::nullopt;
  const double ns = ms * static_cast<double>(kNsPerMs);
  // 2^64 as a double is exact; any product at or above it would make the
  // cast below undefined behaviour, and "past the end of representable
  // time" can only mean the open end of the trace.
  constexpr double kTwoPow64 = 18446744073709551616.0;
  if (ns >= kTwoPow64) return kTimeInfinity;
  return static_cast<TimeNs>(ns);
}

bool window_from_ms(Plan& plan, double from_ms, double to_ms) {
  const auto t0 = ns_from_ms(from_ms);
  const auto t1 = ns_from_ms(to_ms);
  if (!t0.has_value() || !t1.has_value() || *t1 <= *t0) return false;
  plan.t0 = *t0;
  plan.t1 = *t1;
  return true;
}

std::size_t chart_buckets(DurNs duration, DurNs quantum) {
  OSN_ASSERT(quantum > 0);
  const DurNs buckets = duration / quantum;
  if (buckets > kMaxBuckets)
    throw PlanError(PlanError::Kind::kBadPlan,
                    "quantum too small: " + std::to_string(buckets) +
                        " buckets, the limit is " + std::to_string(kMaxBuckets));
  return std::max<std::size_t>(static_cast<std::size_t>(buckets), 1);
}

std::string fingerprint(const Plan& plan) {
  std::string f = "agg=";
  f += aggregate_name(plan.aggregate);
  f += "|w=";
  if (plan.t0 == 0 && plan.t1 == kTimeInfinity) {
    f += "full";
  } else {
    f += std::to_string(plan.t0);
    f += ':';
    f += std::to_string(plan.t1);
  }
  if (plan.cpu.has_value()) f += "|cpu=" + std::to_string(*plan.cpu);
  switch (plan.aggregate) {
    case Aggregate::kSummary:
      break;
    case Aggregate::kChart:
      f += "|task=";
      f += plan.task.has_value() ? std::to_string(*plan.task) : "auto";
      f += "|q=" + std::to_string(plan.quantum);
      break;
    case Aggregate::kTimeseries:
      f += "|act=";
      f += plan.activity == noise::ActivityKind::kMaxKind
               ? "all"
               : std::string(noise::activity_name(plan.activity));
      f += "|q=" + std::to_string(plan.quantum);
      break;
    case Aggregate::kTopK:
      f += "|k=" + std::to_string(plan.k);
      break;
  }
  // Ablation switches change the produced bytes; jobs does not.
  if (!plan.options.resolve_nesting) f += "|nonest";
  if (!plan.options.runnable_filter) f += "|norunnable";
  if (plan.options.include_requested_service) f += "|svc";
  return f;
}

}  // namespace osn::query
