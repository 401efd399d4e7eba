#include "workloads/workload.hpp"

#include "common/assert.hpp"
#include "tracebuf/channel_set.hpp"

namespace osn::workloads {

kernel::NodeConfig Workload::config() const { return kernel::NodeConfig{}; }

RunResult run_workload(Workload& workload, std::uint64_t seed) {
  kernel::NodeConfig cfg = workload.config();
  cfg.seed = seed;

  trace::VectorSink sink;
  kernel::Kernel kernel(cfg, workload.models(), sink);
  workload.setup(kernel);
  kernel.start();
  kernel.run_until_apps_done(workload.max_time());
  trace::TraceMeta meta = kernel.finish(workload.name());

  RunResult result{
      kernel::build_trace_model(std::move(meta), sink.records(), kernel.task_infos()),
      kernel.engine().fired_count()};
  return result;
}

LiveRunResult run_workload_live(Workload& workload, std::uint64_t seed,
                                const LiveOptions& options) {
  OSN_ASSERT_MSG(options.on_record != nullptr, "live run needs an on_record hook");
  kernel::NodeConfig cfg = workload.config();
  cfg.seed = seed;

  tracebuf::ChannelSet channels(cfg.n_cpus, options.per_cpu_capacity);
  trace::BlockingChannelSink sink(channels);
  tracebuf::Consumer consumer(channels, options.on_record, options.batch_size);
  consumer.start();

  kernel::Kernel kernel(cfg, workload.models(), sink);
  workload.setup(kernel);
  kernel.start();
  kernel.run_until_apps_done(workload.max_time());
  trace::TraceMeta meta = kernel.finish(workload.name());

  // The producer (this thread) is quiescent now; stop() drains the residue
  // and completes the merge.
  consumer.stop();

  const tracebuf::ConsumerStats& drained = consumer.stats();
  meta.drain.records = drained.records;
  meta.drain.batches = drained.batches;
  meta.drain.max_batch = drained.max_batch;
  meta.drain.lost = channels.total_lost();
  meta.drain.overwritten = channels.total_overwritten();
  meta.drain.producer_stalls = sink.stalls();
  return LiveRunResult{std::move(meta), kernel.task_infos(), kernel.engine().fired_count()};
}

}  // namespace osn::workloads
