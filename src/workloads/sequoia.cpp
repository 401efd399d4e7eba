#include "workloads/sequoia.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "stats/distributions.hpp"
#include "workloads/calibration.hpp"

namespace osn::workloads {

std::string app_name(SequoiaApp app) {
  switch (app) {
    case SequoiaApp::kAmg: return "AMG";
    case SequoiaApp::kIrs: return "IRS";
    case SequoiaApp::kLammps: return "LAMMPS";
    case SequoiaApp::kSphot: return "SPHOT";
    case SequoiaApp::kUmt: return "UMT";
  }
  return "?";
}

namespace {
constexpr std::uint64_t kInitChunkPages = 512;
constexpr std::uint32_t kAnonRegion = 0;
constexpr std::uint32_t kCowRegion = 1;

DurNs jittered(Xoshiro256& rng, DurNs median, double sigma) {
  return static_cast<DurNs>(
      std::max(1.0, stats::sample_lognormal(rng, static_cast<double>(median), sigma)));
}
}  // namespace

RankProgram::RankProgram(RankParams params, std::uint32_t rank, std::uint32_t ranks,
                         std::uint32_t barrier_base)
    : p_(params), rank_(rank), ranks_(ranks), barrier_base_(barrier_base) {
  if (p_.iters_per_barrier > 0) {
    // Exit after a fixed barrier count so every rank leaves together; the
    // count is derived from identical parameters, hence identical per rank.
    const double nominal_iter_sec =
        static_cast<double>(p_.compute_median) / static_cast<double>(kNsPerSec);
    const double total_iters =
        static_cast<double>(p_.run_duration) / static_cast<double>(kNsPerSec) /
        nominal_iter_sec;
    total_barriers_ =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(total_iters) /
                                       p_.iters_per_barrier);
  }
}

kernel::Action RankProgram::next(kernel::Kernel& k, kernel::Task& self) {
  if (!started_) {
    started_ = true;
    auto& rng = self.rng;
    last_debt_time_ = k.now();
    // Desynchronize ranks: real ranks drift apart; identical phases would
    // make all eight issue I/O and touch memory in lockstep, producing
    // artificial reply bursts.
    io_debt_ = -rng.uniform01();
    fault_debt_ = -rng.uniform01();
    if (p_.burst_period > 0)
      next_burst_ = k.now() + jittered(rng, p_.burst_period, 0.2);
    // Initialization phase: allocate-and-touch in chunks, interleaved with
    // short computes — LAMMPS's Fig 5b fault cluster at the start.
    std::uint64_t remaining = p_.init_pages;
    while (remaining > 0) {
      const std::uint64_t chunk = std::min(remaining, kInitChunkPages);
      pending_.push_back(kernel::ActTouch{kAnonRegion, pages_used_, chunk,
                                          /*write=*/false, p_.per_page_touch});
      pages_used_ += chunk;
      remaining -= chunk;
      pending_.push_back(kernel::ActCompute{200 * kNsPerUs});
    }
  }
  return pop(k, self);
}

kernel::Action RankProgram::pop(kernel::Kernel& k, kernel::Task& self) {
  if (last_was_barrier_) {
    k.mark(self, trace::AppMark::kBarrierExit);
    last_was_barrier_ = false;
  }
  if (pending_.empty()) generate_iteration(k, self);
  OSN_ASSERT(!pending_.empty());
  kernel::Action action = std::move(pending_.front());
  pending_.pop_front();
  if (std::holds_alternative<kernel::ActBarrier>(action)) {
    k.mark(self, trace::AppMark::kBarrierEnter);
    last_was_barrier_ = true;
  }
  return action;
}

void RankProgram::generate_iteration(kernel::Kernel& k, kernel::Task& self) {
  auto& rng = self.rng;

  const bool time_up = p_.iters_per_barrier > 0 ? barrier_seq_ >= total_barriers_
                                                : k.now() >= p_.run_duration;
  if (time_up) {
    if (!final_emitted_) {
      final_emitted_ = true;
      // Final phase: result marshalling (LAMMPS's Fig 5b cluster at the end).
      std::uint64_t remaining = p_.final_pages;
      while (remaining > 0) {
        const std::uint64_t chunk = std::min(remaining, kInitChunkPages);
        pending_.push_back(kernel::ActTouch{kAnonRegion, pages_used_, chunk,
                                            /*write=*/false, p_.per_page_touch});
        pages_used_ += chunk;
        remaining -= chunk;
      }
    }
    pending_.push_back(kernel::ActExit{});
    return;
  }

  ++iter_;
  k.mark(self, trace::AppMark::kIteration);

  const DurNs compute = jittered(rng, p_.compute_median, p_.compute_sigma);
  pending_.push_back(kernel::ActCompute{compute});

  // Rates accrue against wall-clock time (including kernel noise and blocked
  // phases), matching the per-second frequencies the paper's tables report.
  const double elapsed_sec =
      static_cast<double>(k.now() - last_debt_time_) / static_cast<double>(kNsPerSec);
  last_debt_time_ = k.now();

  // Touch helper splitting fresh pages between the anonymous and COW regions
  // (the two histogram modes of Fig 4a).
  auto touch_split = [&](std::uint64_t pages) {
    cow_debt_ += static_cast<double>(pages) * p_.cow_fraction;
    const auto cow_whole = static_cast<std::uint64_t>(cow_debt_);
    cow_debt_ -= static_cast<double>(cow_whole);
    const std::uint64_t anon_whole = pages - std::min(cow_whole, pages);
    if (anon_whole > 0) {
      pending_.push_back(kernel::ActTouch{kAnonRegion, pages_used_, anon_whole,
                                          /*write=*/false, p_.per_page_touch});
      pages_used_ += anon_whole;
    }
    if (cow_whole > 0) {
      pending_.push_back(kernel::ActTouch{kCowRegion, cow_pages_used_, cow_whole,
                                          /*write=*/true, p_.per_page_touch});
      cow_pages_used_ += cow_whole;
    }
  };

  // Steady-state allocation at the calibrated fault rate.
  fault_debt_ += p_.steady_faults_per_sec * elapsed_sec;
  const auto whole =
      fault_debt_ > 0 ? static_cast<std::uint64_t>(fault_debt_) : std::uint64_t{0};
  if (whole > 0) {
    fault_debt_ -= static_cast<double>(whole);
    touch_split(whole);
  }

  // Accumulation points: a burst of fresh pages every burst_period (AMG's
  // Fig 5a profile).
  if (p_.burst_period > 0 && k.now() >= next_burst_ && p_.burst_pages > 0) {
    touch_split(p_.burst_pages);
    next_burst_ += jittered(rng, p_.burst_period, 0.2);
  }

  // Blocking NFS I/O at the calibrated rate.
  io_debt_ += p_.io_per_sec * elapsed_sec;
  if (io_debt_ >= 1.0) {
    io_debt_ -= 1.0;
    const auto rpcs = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(stats::sample_lognormal(
               rng, static_cast<double>(p_.io_rpcs_median), p_.io_rpcs_sigma)));
    pending_.push_back(
        kernel::ActIo{rpcs * 32 * 1024, /*is_read=*/rng.uniform01() < 0.8});
  }

  // MPI-style collective.
  if (p_.iters_per_barrier > 0 && iter_ % p_.iters_per_barrier == 0) {
    pending_.push_back(kernel::ActBarrier{barrier_base_ + barrier_seq_, ranks_});
    ++barrier_seq_;
  }
}

kernel::Action HelperProgram::next(kernel::Kernel&, kernel::Task& self) {
  auto& rng = self.rng;
  computing_ = !computing_;
  if (computing_) return kernel::ActCompute{jittered(rng, compute_, 0.4)};
  return kernel::ActSleep{jittered(rng, period_, 0.4)};
}

SequoiaWorkload::SequoiaWorkload(SequoiaApp app, DurNs duration, std::uint32_t ranks,
                                 CpuId first_cpu)
    : app_(app), ranks_(ranks), first_cpu_(first_cpu),
      rank_params_(calibrated_rank_params(app, duration)) {
  OSN_ASSERT(ranks_ >= 1);
}

kernel::ActivityModels SequoiaWorkload::models() const { return calibrated_models(app_); }

kernel::NodeConfig SequoiaWorkload::config() const {
  kernel::NodeConfig cfg;
  // Reply fragmentation reflects each application's transfer sizes; the
  // values make Table II's interrupt rates emerge from Table III's reply
  // rates (irq ~= replies * fragments + tx completions).
  if (pin_net_irqs_) cfg.net_irq_round_robin = false;
  if (tick_period_ != 0) cfg.tick_period = tick_period_;
  switch (app_) {
    case SequoiaApp::kAmg: cfg.fragments_per_reply = 2; break;
    case SequoiaApp::kIrs: cfg.fragments_per_reply = 2; break;
    case SequoiaApp::kLammps: cfg.fragments_per_reply = 1; break;
    case SequoiaApp::kSphot: cfg.fragments_per_reply = 1; break;
    case SequoiaApp::kUmt: cfg.fragments_per_reply = 3; break;
  }
  return cfg;
}

void SequoiaWorkload::setup(kernel::Kernel& kernel) {
  const kernel::NodeConfig& cfg = kernel.config();
  rank_pids_.clear();
  for (std::uint32_t r = 0; r < ranks_; ++r) {
    auto program = std::make_unique<RankProgram>(rank_params_, r, ranks_,
                                                 /*barrier_base=*/1000);
    const auto cpu = static_cast<CpuId>((first_cpu_ + r) % cfg.n_cpus);
    const Pid pid = kernel.spawn(app_name(app_) + "-rank" + std::to_string(r),
                                 std::move(program), /*is_app=*/true, cpu);
    kernel.add_region(pid, trace::PageFaultKind::kMinorAnon);
    kernel.add_region(pid, trace::PageFaultKind::kCow);
    rank_pids_.push_back(pid);
  }

  for (std::uint32_t h = 0; h < rank_params_.helper_count; ++h) {
    auto helper = std::make_unique<HelperProgram>(rank_params_.helper_period,
                                                  rank_params_.helper_compute);
    const auto cpu = static_cast<CpuId>(h % cfg.n_cpus);
    kernel.spawn("python" + std::to_string(h), std::move(helper), /*is_app=*/false, cpu);
  }
}

}  // namespace osn::workloads
