#include "workloads/ftq.hpp"
#include <algorithm>

#include "common/assert.hpp"

namespace osn::workloads {

FtqProgram::FtqProgram(FtqParams params,
                       std::shared_ptr<std::vector<noise::FtqQuantumSample>> samples,
                       std::uint32_t region)
    : params_(params), samples_(std::move(samples)), region_(region) {
  OSN_ASSERT(params_.quantum % params_.op_time == 0);
}

kernel::Action FtqProgram::next(kernel::Kernel& k, kernel::Task& self) {
  (void)self;
  const TimeNs t_now = k.now();

  if (!started_) {
    started_ = true;
    origin_ = t_now;
    samples_->reserve(params_.n_quanta);
  }

  if (op_in_flight_) {
    op_in_flight_ = false;
    // The operation that just finished counts in the quantum containing its
    // completion time — FTQ checks the clock after each unit of work.
    const auto qi = static_cast<std::size_t>((t_now - origin_) / params_.quantum);
    if (qi == quantum_index_) {
      ++ops_this_quantum_;
    } else {
      // Crossed one or more boundaries: flush the finished quantum and any
      // fully-skipped ones (a long interruption yields empty quanta).
      samples_->push_back(noise::FtqQuantumSample{
          origin_ + static_cast<TimeNs>(quantum_index_) * params_.quantum,
          ops_this_quantum_});
      for (std::size_t skipped = quantum_index_ + 1;
           skipped < qi && samples_->size() < params_.n_quanta; ++skipped) {
        samples_->push_back(noise::FtqQuantumSample{
            origin_ + static_cast<TimeNs>(skipped) * params_.quantum, 0});
      }
      quantum_index_ = qi;
      ops_this_quantum_ = 1;
    }
  }

  if (quantum_index_ >= params_.n_quanta || samples_->size() >= params_.n_quanta)
    return kernel::ActExit{};

  // Periodic fresh-page touch at quantum boundaries (the benchmark growing
  // into its sample buffer).
  if (params_.fault_period_quanta != 0 &&
      quantum_index_ >= pages_touched_ * params_.fault_period_quanta) {
    const std::uint64_t page = pages_touched_++;
    return kernel::ActTouch{region_, page, 1, /*write=*/true, /*per_page_cost=*/30};
  }

  op_in_flight_ = true;
  return kernel::ActCompute{params_.op_time};
}

FtqWorkload::FtqWorkload(FtqParams params)
    : params_(params),
      samples_(std::make_shared<std::vector<noise::FtqQuantumSample>>()) {}

kernel::ActivityModels FtqWorkload::models() const {
  // Calibrated to the FTQ case study (Figs 1, 2, 9): timer interrupt
  // ~2.18 us, run_timer_softirq ~1.84 us, schedule parts 0.38/0.18 us,
  // eventd bookkeeping ~2.2 us, page faults ~2.9 us.
  kernel::ActivityModels m;
  m.timer_irq = stats::DurationModel::lognormal(2'100, 0.20, 900, 30'000);
  m.timer_softirq = stats::DurationModel::mixture({{1.0, 1'700, 0.30}}, 200, 60'000,
                                                  /*tail_weight=*/0.01,
                                                  /*tail_scale_ns=*/6'000,
                                                  /*tail_alpha=*/1.6);
  m.schedule_fn = stats::DurationModel::lognormal(280, 0.25, 120, 1'500);
  m.events_service = stats::DurationModel::lognormal(2'200, 0.15, 1'200, 8'000);
  m.events_period = stats::DurationModel::lognormal(120'000'000, 0.25, 40'000'000,
                                                    1'000'000'000);
  m.pf_minor_anon = stats::DurationModel::lognormal(2'850, 0.10, 1'800, 8'000);
  return m;
}

void FtqWorkload::setup(kernel::Kernel& kernel) {
  auto program = std::make_unique<FtqProgram>(params_, samples_, /*region=*/0);
  const auto cpu =
      static_cast<CpuId>(std::min<std::size_t>(params_.cpu, kernel.config().n_cpus - 1));
  ftq_pid_ = kernel.spawn("ftq", std::move(program), /*is_app=*/true, cpu);
  kernel.add_region(ftq_pid_, trace::PageFaultKind::kMinorAnon);
}

}  // namespace osn::workloads
