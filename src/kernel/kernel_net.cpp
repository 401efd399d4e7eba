// Syscalls, NFS-over-network I/O, barriers, and blocking.
//
// The I/O pipeline reproduced from §IV-D of the paper:
//
//   app read()/write() syscall
//     -> RPCs queued (rsize/wsize chunks), NET_TX softirq raised
//     -> net_tx_action tasklet: kicks the DMA engine and returns immediately
//        (asynchronous -> fast, low-variance; Table IV)
//     -> NIC raises a tx-done interrupt once the DMA completes
//     -> modelled NFS server turns the request around
//     -> reply packet: net interrupt on a (round-robin) CPU
//     -> net_rx_action tasklet: synchronous copy from the NIC buffer
//        (slow, high-variance; Table III); tasklets of one type are
//        serialized across CPUs, which naturally coalesces bursts
//     -> rpciod woken: processes the completion in task context, preempting
//        whatever rank runs on that CPU, and wakes the blocked app task
//        "in the order I/O operations complete and on the CPU that receives
//        the network interrupt" -- triggering migrations and rebalances.
#include <algorithm>

#include "common/assert.hpp"
#include "kernel/kernel.hpp"

namespace osn::kernel {

void Kernel::block_current(CpuId cpu, TaskOp op) {
  CpuState& c = cpus_[cpu];
  OSN_ASSERT(c.current != kIdlePid);
  Task& t = task(c.current);
  OSN_ASSERT(t.state == TaskState::kRunning);
  t.op = std::move(op);
  t.state = TaskState::kBlocked;
  // The actual deschedule happens when the frame stack unwinds to
  // resume_context, which sees a non-running current task.
}

void Kernel::start_io(CpuId cpu, Task& t, const ActIo& io) {
  const Pid pid = t.pid;
  const bool is_read = io.is_read;
  const std::uint64_t chunk = config_.rpc_chunk_bytes;
  const auto n_rpcs = static_cast<std::uint32_t>((io.bytes + chunk - 1) / chunk);
  OSN_ASSERT_MSG(n_rpcs > 0, "zero-byte I/O");
  const trace::SyscallNr nr = is_read ? trace::SyscallNr::kRead : trace::SyscallNr::kWrite;
  begin_syscall(cpu, t, nr, [cpu, pid, n_rpcs, is_read](Kernel& k) {
    for (std::uint32_t i = 0; i < n_rpcs; ++i) {
      k.net_.tx_queue.push_back(Rpc{pid, is_read});
      ++k.net_.rpcs_sent;
    }
    k.raise_softirq(cpu, trace::SoftirqNr::kNetTx);
    k.block_current(cpu, OpIo{n_rpcs, is_read});
  });
}

void Kernel::run_tasklet(CpuId cpu, trace::TaskletId id) {
  CpuState& c = cpus_[cpu];
  const auto idx = static_cast<std::size_t>(id);
  if (net_.tasklet_running[idx]) {
    // Serialized per type: the running instance re-checks the shared queue
    // when it finishes, so dropping this activation loses no work.
    return;
  }

  std::deque<Rpc>& batch = net_.tasklet_batch[idx];
  if (id == trace::TaskletId::kNetTx) {
    if (net_.tx_queue.empty()) return;
    // Claim the whole queue: the DMA kick covers all queued descriptors.
    batch.swap(net_.tx_queue);
    net_.tasklet_running[idx] = true;
    const DurNs duration = models_.net_tx.sample(c.rng);
    push_frame(cpu, FrameKind::kTasklet, static_cast<std::uint64_t>(id), duration,
               [cpu](Kernel& k) { k.kick_tx_dma(cpu); });
    return;
  }

  OSN_ASSERT(id == trace::TaskletId::kNetRx);
  if (net_.rx_queue.empty()) return;
  batch.swap(net_.rx_queue);
  net_.tasklet_running[idx] = true;
  // The synchronous copy costs a base plus a per-packet term.
  DurNs duration = models_.net_rx.sample(c.rng);
  for (std::size_t i = 1; i < batch.size(); ++i)
    duration += models_.net_rx.sample(c.rng) / 2;
  push_frame(cpu, FrameKind::kTasklet, static_cast<std::uint64_t>(id), duration,
             [cpu](Kernel& k) {
               constexpr auto kRx = static_cast<std::size_t>(trace::TaskletId::kNetRx);
               k.net_.tasklet_running[kRx] = false;
               std::deque<Rpc>& rx = k.net_.tasklet_batch[kRx];
               for (const Rpc& rpc : rx) k.rpciod_work().push_back(rpc);
               if (!rx.empty()) k.wake(k.rpciod_pid(), cpu);
               rx.clear();
               // New replies may have queued while we ran: re-raise locally.
               if (!k.net_.rx_queue.empty())
                 k.raise_softirq(cpu, trace::SoftirqNr::kNetRx);
             });
}

void Kernel::kick_tx_dma(CpuId cpu) {
  constexpr auto kTx = static_cast<std::size_t>(trace::TaskletId::kNetTx);
  net_.tasklet_running[kTx] = false;
  std::deque<Rpc>& batch = net_.tasklet_batch[kTx];
  CpuState& c = cpus_[cpu];

  // DMA drains the descriptors asynchronously; one tx-done interrupt fires
  // after the last descriptor leaves (interrupt mitigation).
  const DurNs dma_time = 2'000 + 500 * batch.size();
  const CpuId tx_irq_cpu = net_.next_irq_cpu;
  if (config_.net_irq_round_robin)
    net_.next_irq_cpu = static_cast<CpuId>((net_.next_irq_cpu + 1) % config_.n_cpus);
  engine_.schedule_after(dma_time,
                         [this, tx_irq_cpu] { deliver_irq(tx_irq_cpu, trace::IrqVector::kNet); });

  // The NFS server is a FIFO queue: each request waits for the server to
  // free up, is serviced, and the reply travels back as
  // config_.fragments_per_reply wire fragments — each raising a net
  // interrupt, with only the last carrying the completed RPC.
  for (const Rpc& rpc : batch) {
    const TimeNs arrival = now() + dma_time + models_.nfs_wire_latency.sample(c.rng);
    const TimeNs service_start = std::max(arrival, net_.server_free_at);
    const TimeNs service_done =
        service_start + models_.nfs_server_service.sample(c.rng);
    net_.server_free_at = service_done;
    const TimeNs reply_at = service_done + models_.nfs_wire_latency.sample(c.rng);

    const Rpc reply = rpc;
    const std::uint32_t frags = std::max<std::uint32_t>(1, config_.fragments_per_reply);
    for (std::uint32_t f = 0; f + 1 < frags; ++f) {
      const TimeNs at = reply_at + f * config_.fragment_gap;
      const CpuId frag_cpu = net_.next_irq_cpu;
      if (config_.net_irq_round_robin)
        net_.next_irq_cpu = static_cast<CpuId>((net_.next_irq_cpu + 1) % config_.n_cpus);
      engine_.schedule_at(at,
                          [this, frag_cpu] { deliver_irq(frag_cpu, trace::IrqVector::kNet); });
    }
    engine_.schedule_at(reply_at + (frags - 1) * config_.fragment_gap,
                        [this, reply] { rpc_reply_arrives(reply); });
  }
  batch.clear();
  if (!net_.tx_queue.empty()) raise_softirq(cpu, trace::SoftirqNr::kNetTx);
}

void Kernel::rpc_reply_arrives(const Rpc& rpc) {
  net_.rx_queue.push_back(rpc);
  const CpuId irq_cpu = net_.next_irq_cpu;
  if (config_.net_irq_round_robin)
    net_.next_irq_cpu = static_cast<CpuId>((net_.next_irq_cpu + 1) % config_.n_cpus);
  deliver_irq(irq_cpu, trace::IrqVector::kNet);
}

void Kernel::complete_rpc(const Rpc& rpc, CpuId delivery_cpu) {
  Task& owner = task(rpc.owner);
  ++net_.rpcs_completed;
  auto* io = std::get_if<OpIo>(&owner.op);
  OSN_ASSERT_MSG(io != nullptr, "RPC completion for a task not in I/O");
  OSN_ASSERT(io->rpcs_remaining > 0);
  if (--io->rpcs_remaining == 0) {
    owner.op = OpNone{};
    wake(rpc.owner, delivery_cpu);
  }
}

void Kernel::enter_barrier(CpuId cpu, Task& t, const ActBarrier& b) {
  const Pid pid = t.pid;
  const ActBarrier bar = b;
  begin_syscall(cpu, t, trace::SyscallNr::kFutex, [cpu, pid, bar](Kernel& k) {
    BarrierState& state = k.barriers_[bar.barrier_id];
    ++state.arrived;
    if (state.arrived < bar.parties) {
      state.waiters.push_back(pid);
      k.block_current(cpu, OpBarrier{bar.barrier_id});
      return;
    }
    // Last arriver releases everyone and continues without blocking.
    std::vector<Pid> waiters = std::move(state.waiters);
    state.arrived = 0;
    state.waiters.clear();
    for (Pid w : waiters) {
      Task& wt = k.task(w);
      OSN_ASSERT(std::holds_alternative<OpBarrier>(wt.op));
      wt.op = OpNone{};
      k.wake(w, cpu);
    }
    Task& self = k.task(pid);
    self.op = OpNone{};
    // Returning from the futex syscall: the frame epilogue unwinds into
    // resume_context -> resume_user -> next action.
  });
}

void Kernel::mark(const Task& t, trace::AppMark m) {
  OSN_ASSERT_MSG(t.cpu != kNoCpu, "mark from a task that never ran");
  trace_event(t.cpu, trace::EventType::kAppMark, static_cast<std::uint64_t>(m));
}

}  // namespace osn::kernel
