#include "noise/classify.hpp"

#include "common/assert.hpp"

namespace osn::noise {

NoiseCategory categorize(ActivityKind kind) {
  switch (kind) {
    case ActivityKind::kTimerIrq:
    case ActivityKind::kTimerSoftirq:
      return NoiseCategory::kPeriodic;
    case ActivityKind::kPageFault:
      return NoiseCategory::kPageFault;
    case ActivityKind::kSchedule:
    case ActivityKind::kRebalanceSoftirq:
    case ActivityKind::kRcuSoftirq:
    case ActivityKind::kReschedIpi:
      return NoiseCategory::kScheduling;
    case ActivityKind::kPreemption:
      return NoiseCategory::kPreemption;
    case ActivityKind::kNetIrq:
    case ActivityKind::kNetRxTasklet:
    case ActivityKind::kNetTxTasklet:
      return NoiseCategory::kIo;
    case ActivityKind::kSyscall:
      return NoiseCategory::kRequestedService;
    case ActivityKind::kMaxKind:
      break;
  }
  OSN_ASSERT_MSG(false, "unclassifiable activity");
}

std::string_view category_name(NoiseCategory c) {
  switch (c) {
    case NoiseCategory::kPeriodic: return "periodic";
    case NoiseCategory::kPageFault: return "page fault";
    case NoiseCategory::kScheduling: return "scheduling";
    case NoiseCategory::kPreemption: return "preemption";
    case NoiseCategory::kIo: return "I/O";
    case NoiseCategory::kRequestedService: return "requested service";
    case NoiseCategory::kMaxCategory: break;
  }
  return "unknown";
}

DurNs noise_total(const CategoryBreakdown& breakdown) {
  DurNs total = 0;
  for (std::size_t c = 0; c < breakdown.size(); ++c)
    if (c != static_cast<std::size_t>(NoiseCategory::kRequestedService)) total += breakdown[c];
  return total;
}

}  // namespace osn::noise
