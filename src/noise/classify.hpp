// The paper's five-category noise classification (§IV-A).
//
//   periodic    — timer interrupt handler and run_timer_softirq
//   page fault  — the page fault exception handler
//   scheduling  — schedule() and the related softirqs
//                 (rcu_process_callbacks, run_rebalance_domains) plus the
//                 rescheduling IPI
//   preemption  — kernel and user daemons preempting application processes
//   I/O         — network interrupt handler, softirqs and tasklets
//
// Syscalls are services explicitly requested by the application and are
// *not* noise ("activities that are not explicitly requested by the
// applications but that are necessary for the correct functioning of the
// compute node").
#pragma once

#include <array>
#include <string_view>

#include "noise/interval.hpp"

namespace osn::noise {

enum class NoiseCategory : std::uint8_t {
  kPeriodic,
  kPageFault,
  kScheduling,
  kPreemption,
  kIo,
  kRequestedService,  ///< syscalls: not noise
  kMaxCategory
};

NoiseCategory categorize(ActivityKind kind);
std::string_view category_name(NoiseCategory c);

/// Charged noise per category (one Fig 3 row).
using CategoryBreakdown =
    std::array<DurNs, static_cast<std::size_t>(NoiseCategory::kMaxCategory)>;

/// A row's total noise: every category but requested service.
DurNs noise_total(const CategoryBreakdown& breakdown);

}  // namespace osn::noise
