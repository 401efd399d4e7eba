// Interrupts, softirqs, tasklets, the periodic tick, and software timers.
//
// The structures reproduced from the paper's kernel:
//  * the periodic timer interrupt (top half) always raises the TIMER softirq
//    (run_timer_softirq — the paper's "bottom half") which fires expired
//    software timers, so both appear at exactly tick frequency (Tables V/VI);
//  * softirqs run at the outermost kernel exit, one at a time per CPU, in
//    ascending softirq-number order;
//  * tasklets of the same type are serialized across CPUs (footnote 5 of the
//    paper) while different softirqs may run concurrently on different CPUs.
#include <algorithm>

#include "common/assert.hpp"
#include "kernel/kernel.hpp"

namespace osn::kernel {

void Kernel::deliver_irq(CpuId cpu, trace::IrqVector vector) {
  CpuState& c = cpus_[cpu];
  DurNs duration = 0;
  switch (vector) {
    case trace::IrqVector::kTimer: duration = models_.timer_irq.sample(c.rng); break;
    case trace::IrqVector::kNet: duration = models_.net_irq.sample(c.rng); break;
    case trace::IrqVector::kResched: duration = models_.resched_ipi.sample(c.rng); break;
  }
  push_frame(cpu, FrameKind::kIrq, static_cast<std::uint64_t>(vector), duration,
             [cpu, vector](Kernel& k) { k.irq_completed(cpu, vector); });
}

void Kernel::irq_completed(CpuId cpu, trace::IrqVector vector) {
  CpuState& c = cpus_[cpu];
  switch (vector) {
    case trace::IrqVector::kTimer: {
      // The local timer fires for the periodic tick and for expired
      // high-resolution timers (§IV-E); the same vector serves both.
      if (c.tick_pending) {
        c.tick_pending = false;
        // Tick bookkeeping happens in the handler; its effects materialize
        // at handler end: raise the timer softirq, periodic RCU, the
        // scheduler tick, and the domain-rebalance trigger.
        raise_softirq(cpu, trace::SoftirqNr::kTimer);
        if (config_.rcu_period_ticks > 0 && c.ticks % config_.rcu_period_ticks == 0)
          raise_softirq(cpu, trace::SoftirqNr::kRcu);
        scheduler_tick(cpu);
        if (config_.rebalance_period_ticks > 0 &&
            c.ticks % config_.rebalance_period_ticks ==
                cpu % config_.rebalance_period_ticks)
          raise_softirq(cpu, trace::SoftirqNr::kSched);
      }
      if (!c.expired_hrtimers.empty()) {
        std::vector<SoftTimer> fired = std::move(c.expired_hrtimers);
        c.expired_hrtimers.clear();
        for (SoftTimer& timer : fired) {
          trace_event(cpu, trace::EventType::kTimerExpire, timer.id);
          timer.fn(*this, cpu);
        }
      }
      break;
    }
    case trace::IrqVector::kNet: {
      if (!net_.rx_queue.empty()) raise_softirq(cpu, trace::SoftirqNr::kNetRx);
      break;
    }
    case trace::IrqVector::kResched: {
      c.need_resched = true;
      break;
    }
  }
}

void Kernel::raise_softirq(CpuId cpu, trace::SoftirqNr nr) {
  cpus_[cpu].softirq_pending |= 1u << static_cast<std::uint32_t>(nr);
}

void Kernel::do_softirq(CpuId cpu) {
  CpuState& c = cpus_[cpu];
  OSN_ASSERT_MSG(c.stack.empty(), "softirqs run only at the outermost kernel exit");
  OSN_ASSERT(c.softirq_pending != 0);
  // Lowest pending softirq number first (Linux priority order).
  const auto bit = static_cast<std::uint32_t>(__builtin_ctz(c.softirq_pending));
  c.softirq_pending &= ~(1u << bit);
  run_softirq(cpu, static_cast<trace::SoftirqNr>(bit));
}

void Kernel::run_softirq(CpuId cpu, trace::SoftirqNr nr) {
  CpuState& c = cpus_[cpu];
  switch (nr) {
    case trace::SoftirqNr::kTimer: {
      // Collect the software timers this tick expires; the handler's
      // duration includes a per-callback cost, which is why
      // run_timer_softirq varies so much more than the top half (Fig. 8).
      auto& pending = timers_[cpu];
      std::vector<SoftTimer> expired;
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->expiry <= now()) {
          expired.push_back(std::move(*it));
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
      std::sort(expired.begin(), expired.end(),
                [](const SoftTimer& a, const SoftTimer& b) {
                  if (a.expiry != b.expiry) return a.expiry < b.expiry;
                  return a.id < b.id;
                });
      DurNs duration = models_.timer_softirq.sample(c.rng);
      for (std::size_t i = 0; i < expired.size(); ++i)
        duration += models_.timer_callback.sample(c.rng);
      OSN_ASSERT(c.expired_timers.empty());
      c.expired_timers = std::move(expired);
      push_frame(cpu, FrameKind::kSoftirq, static_cast<std::uint64_t>(nr), duration,
                 [cpu](Kernel& k) {
                   std::vector<SoftTimer>& fired = k.cpus_[cpu].expired_timers;
                   for (SoftTimer& timer : fired) {
                     k.trace_event(cpu, trace::EventType::kTimerExpire, timer.id);
                     timer.fn(k, cpu);
                   }
                   fired.clear();
                 });
      break;
    }
    case trace::SoftirqNr::kSched: {
      const DurNs duration = models_.rebalance.sample(c.rng);
      push_frame(cpu, FrameKind::kSoftirq, static_cast<std::uint64_t>(nr), duration,
                 [cpu](Kernel& k) { k.run_rebalance(cpu); });
      break;
    }
    case trace::SoftirqNr::kRcu: {
      const DurNs duration = models_.rcu.sample(c.rng);
      push_frame(cpu, FrameKind::kSoftirq, static_cast<std::uint64_t>(nr), duration,
                 [](Kernel&) {});
      break;
    }
    case trace::SoftirqNr::kNetRx: {
      run_tasklet(cpu, trace::TaskletId::kNetRx);
      break;
    }
    case trace::SoftirqNr::kNetTx: {
      run_tasklet(cpu, trace::TaskletId::kNetTx);
      break;
    }
    default: {
      // Other softirqs (HI, BLOCK, TASKLET) are not raised by this node.
      OSN_ASSERT_MSG(false, "unexpected softirq raised");
    }
  }
}

void Kernel::tick(CpuId cpu) {
  CpuState& c = cpus_[cpu];
  ++c.ticks;
  // Re-arm on the fixed grid, independent of handler durations.
  c.next_tick += config_.tick_period;
  engine_.schedule_at(c.next_tick, [this, cpu] { tick(cpu); });
  c.tick_pending = true;
  deliver_irq(cpu, trace::IrqVector::kTimer);
}

std::uint64_t Kernel::arm_timer(CpuId cpu, DurNs delay,
                                std::function<void(Kernel&, CpuId)> fn) {
  const std::uint64_t id = next_timer_id_++;
  timers_[cpu].push_back(SoftTimer{now() + delay, id, std::move(fn)});
  return id;
}

std::uint64_t Kernel::arm_hrtimer(CpuId cpu, DurNs delay,
                                  std::function<void(Kernel&, CpuId)> fn) {
  const std::uint64_t id = next_timer_id_++;
  auto timer = std::make_shared<SoftTimer>(SoftTimer{now() + delay, id, std::move(fn)});
  engine_.schedule_after(delay, [this, cpu, timer] {
    cpus_[cpu].expired_hrtimers.push_back(std::move(*timer));
    deliver_irq(cpu, trace::IrqVector::kTimer);
  });
  return id;
}

}  // namespace osn::kernel
