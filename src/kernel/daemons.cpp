#include "kernel/daemons.hpp"

namespace osn::kernel {

Action RpciodProgram::next(Kernel& k, Task& self) {
  if (in_hand_) {
    // The work for the previous RPC is done: deliver its completion (which
    // may wake the issuing rank on this CPU).
    k.complete_rpc(*in_hand_, self.cpu);
    in_hand_.reset();
  }
  auto& queue = k.rpciod_work();
  if (queue.empty()) return ActBlock{};
  in_hand_ = queue.front();
  queue.pop_front();
  return ActCompute{k.models().rpciod_service.sample(self.rng)};
}

Action EventsProgram::next(Kernel& k, Task& self) {
  if (work_pending_) {
    work_pending_ = false;
    // Re-arm the next activation before doing this round's bookkeeping.
    const Pid pid = self.pid;
    const DurNs period = k.models().events_period.sample(self.rng);
    k.arm_timer(self.cpu, period, [pid](Kernel& kk, CpuId timer_cpu) {
      Task& t = kk.task(pid);
      t.op = OpNone{};
      kk.wake(pid, timer_cpu);
    });
    return ActCompute{k.models().events_service.sample(self.rng)};
  }
  work_pending_ = true;  // next() after wakeup starts a new round
  return ActBlock{};
}

}  // namespace osn::kernel
