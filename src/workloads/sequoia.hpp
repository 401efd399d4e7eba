// Synthetic models of the LLNL Sequoia benchmarks (AMG, IRS, LAMMPS, SPHOT,
// UMT) — the paper's case-study applications (§IV).
//
// Each application runs as `ranks` MPI-task-like processes (one per CPU,
// as in the paper) whose *kernel-visible behaviour* is calibrated to the
// published measurements: page-fault rates and temporal profiles (AMG faults
// throughout the run with accumulation points, LAMMPS only at
// initialization/end — Fig 5), NFS I/O intensity (LAMMPS's noise is
// dominated by rpciod preemptions — Fig 7), barrier cadence (communication
// windows the runnable filter must exclude), and, for UMT, the Python helper
// processes that "interrupt the computing tasks and trigger process
// migration and domain balancing".
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "kernel/program.hpp"
#include "workloads/workload.hpp"

namespace osn::workloads {

enum class SequoiaApp : std::size_t { kAmg = 0, kIrs, kLammps, kSphot, kUmt };
inline constexpr std::size_t kSequoiaAppCount = 5;
std::string app_name(SequoiaApp app);

/// Behavioural parameters of one application rank.
struct RankParams {
  DurNs run_duration = sec(10);

  // Iteration structure.
  DurNs compute_median = 800 * kNsPerUs;
  double compute_sigma = 0.3;
  std::uint32_t iters_per_barrier = 0;  ///< 0 = no barriers

  // Memory behaviour: fresh pages touched -> page faults.
  std::uint64_t init_pages = 0;          ///< touched during initialization
  double steady_faults_per_sec = 0;      ///< steady-state fresh-page rate
  std::uint64_t burst_pages = 0;         ///< accumulation-point burst size
  DurNs burst_period = 0;                ///< 0 = no bursts
  std::uint64_t final_pages = 0;         ///< touched before exit
  double cow_fraction = 0;               ///< share of touches on the COW region
  DurNs per_page_touch = 30;

  // NFS I/O behaviour.
  double io_per_sec = 0;           ///< blocking I/O operations per second
  std::uint32_t io_rpcs_median = 4;  ///< rsize chunks per operation
  double io_rpcs_sigma = 0.5;

  // UMT-style helper (Python) processes per node.
  std::uint32_t helper_count = 0;
  DurNs helper_period = 50 * kNsPerMs;
  DurNs helper_compute = 3 * kNsPerMs;
};

/// One application rank: init touch -> iterate(compute, touch, I/O, barrier)
/// -> final touch -> exit. Barrier-synchronized apps exit after a fixed
/// barrier count so no rank leaves peers stranded.
class RankProgram final : public kernel::TaskProgram {
 public:
  RankProgram(RankParams params, std::uint32_t rank, std::uint32_t ranks,
              std::uint32_t barrier_base);

  kernel::Action next(kernel::Kernel& k, kernel::Task& self) override;

 private:
  void generate_iteration(kernel::Kernel& k, kernel::Task& self);
  kernel::Action pop(kernel::Kernel& k, kernel::Task& self);

  RankParams p_;
  std::uint32_t rank_;
  std::uint32_t ranks_;
  std::uint32_t barrier_base_;

  std::deque<kernel::Action> pending_;
  bool started_ = false;
  bool last_was_barrier_ = false;
  bool final_emitted_ = false;
  std::uint64_t pages_used_ = 0;     ///< fresh-page cursor (anon region)
  std::uint64_t cow_pages_used_ = 0; ///< fresh-page cursor (COW region)
  double fault_debt_ = 0;
  double io_debt_ = 0;
  double cow_debt_ = 0;
  TimeNs last_debt_time_ = 0;  ///< rates accrue against wall-clock time
  TimeNs next_burst_ = 0;
  std::uint64_t iter_ = 0;
  std::uint32_t barrier_seq_ = 0;
  std::uint64_t total_barriers_ = 0;  ///< exit after this many (barrier apps)
};

/// A UMT-style Python helper: wakes periodically, computes briefly, sleeps.
/// Not an application rank (its CPU use *preempts* ranks — §IV-D).
class HelperProgram final : public kernel::TaskProgram {
 public:
  HelperProgram(DurNs period, DurNs compute) : period_(period), compute_(compute) {}
  kernel::Action next(kernel::Kernel& k, kernel::Task& self) override;

 private:
  DurNs period_;
  DurNs compute_;
  bool computing_ = false;
};

class SequoiaWorkload final : public Workload {
 public:
  /// `first_cpu` offsets rank placement (rank r -> CPU first_cpu + r), the
  /// knob behind the sacrificial-core mitigation experiment: ranks on CPUs
  /// 1..7 leave CPU 0 to the pinned-IRQ/daemon system activity.
  explicit SequoiaWorkload(SequoiaApp app, DurNs duration = sec(10),
                           std::uint32_t ranks = 8, CpuId first_cpu = 0);
  /// Pin all NIC interrupts to CPU 0 instead of round-robin.
  void set_pin_net_irqs(bool pin) { pin_net_irqs_ = pin; }
  /// Override the periodic tick (default 10 ms / 100 Hz — the paper's
  /// "lowest possible" setting; the ablation bench raises it to 1 kHz).
  void set_tick_period(DurNs period) { tick_period_ = period; }

  std::string name() const override { return app_name(app_); }
  kernel::NodeConfig config() const override;
  kernel::ActivityModels models() const override;
  void setup(kernel::Kernel& kernel) override;

  SequoiaApp app() const { return app_; }
  const std::vector<Pid>& rank_pids() const { return rank_pids_; }
  const RankParams& rank_params() const { return rank_params_; }

 private:
  SequoiaApp app_;
  std::uint32_t ranks_;
  CpuId first_cpu_;
  bool pin_net_irqs_ = false;
  DurNs tick_period_ = 0;  ///< 0 = NodeConfig default
  RankParams rank_params_;
  std::vector<Pid> rank_pids_;
};

}  // namespace osn::workloads
