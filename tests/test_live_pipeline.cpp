// End-to-end equivalence of the live consumer-daemon pipeline against the
// offline drain: same seed, same workload — the streamed OSNT file must
// reconstruct the identical TraceModel (so every downstream analysis,
// breakdown included, is byte-for-byte the same), with zero records lost,
// and the incremental StreamingStats must agree with the offline
// NoiseAnalysis activity tables.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "noise/analysis.hpp"
#include "noise/index_aggregate.hpp"
#include "noise/streaming.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "workloads/ftq.hpp"
#include "workloads/sequoia.hpp"
#include "workloads/workload.hpp"

namespace osn::workloads {
namespace {

FtqWorkload small_ftq() {
  FtqParams p;
  p.n_quanta = 400;
  return FtqWorkload(p);
}

TEST(LivePipeline, StreamedTraceReconstructsOfflineModelExactly) {
  constexpr std::uint64_t kSeed = 42;

  FtqWorkload offline_wl = small_ftq();
  const RunResult offline = run_workload(offline_wl, kSeed);

  const std::string path = ::testing::TempDir() + "/osn_live_eq.osnt";
  trace::OsntStreamWriter writer(path, /*chunk_records=*/512);
  ASSERT_TRUE(writer.ok());
  noise::StreamingStats streaming;

  FtqWorkload live_wl = small_ftq();
  LiveOptions opts;
  opts.per_cpu_capacity = 1u << 10;  // small enough to force real batching
  opts.batch_size = 64;
  opts.on_record = [&](const tracebuf::EventRecord& rec) {
    writer.append(rec);
    streaming.consume(rec);
  };
  const LiveRunResult live = run_workload_live(live_wl, kSeed, opts);
  ASSERT_TRUE(writer.finish(live.meta, live.tasks));

  // Zero-loss is part of the contract, not luck: backpressure blocks.
  EXPECT_EQ(live.meta.drain.lost, 0u);
  EXPECT_EQ(live.meta.drain.overwritten, 0u);
  EXPECT_EQ(live.meta.drain.records, offline.trace.total_events());
  EXPECT_EQ(live.engine_events, offline.engine_events);

  const trace::TraceModel restored = trace::read_trace_file(path);
  std::remove(path.c_str());

  // Identical per-CPU event streams and task registry — everything the
  // analyses consume. Only meta.drain may differ (offline keeps zeros).
  ASSERT_EQ(restored.cpu_count(), offline.trace.cpu_count());
  for (CpuId c = 0; c < restored.cpu_count(); ++c)
    EXPECT_EQ(restored.cpu_events(c), offline.trace.cpu_events(c)) << "cpu " << c;
  EXPECT_EQ(restored.tasks(), offline.trace.tasks());
  trace::TraceMeta meta_no_drain = restored.meta();
  meta_no_drain.drain = trace::DrainStats{};
  EXPECT_EQ(meta_no_drain, offline.trace.meta());
  EXPECT_GT(restored.meta().drain.records, 0u);
  EXPECT_EQ(restored.validate(), "");

  // The incremental accumulator reproduces the offline activity tables.
  EXPECT_EQ(streaming.consumed(), offline.trace.total_events());
  EXPECT_EQ(streaming.open_frames(), 0u);
  const noise::NoiseAnalysis analysis(offline.trace);
  for (int k = 0; k < static_cast<int>(noise::ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<noise::ActivityKind>(k);
    // Preemption is derived from sched_switch + the task registry, which is
    // only known offline; StreamingStats covers the entry/exit activities.
    if (kind == noise::ActivityKind::kPreemption) continue;
    const noise::EventStats off = analysis.activity_stats(kind);
    const noise::EventStats str = streaming.activity_stats(
        kind, offline.trace.duration(), offline.trace.cpu_count());
    EXPECT_EQ(str.count, off.count);
    EXPECT_EQ(str.max_ns, off.max_ns);
    EXPECT_EQ(str.min_ns, off.min_ns);
    EXPECT_DOUBLE_EQ(str.avg_ns, off.avg_ns);
    EXPECT_DOUBLE_EQ(str.freq_ev_per_sec, off.freq_ev_per_sec);
  }
}

TEST(LivePipeline, TinyBuffersStillLoseNothing) {
  // 256-slot channels on a multi-thousand-event run: the producer must
  // stall on the watermark rather than drop, and the stream stays complete.
  constexpr std::uint64_t kSeed = 7;
  FtqWorkload offline_wl = small_ftq();
  const RunResult offline = run_workload(offline_wl, kSeed);

  std::uint64_t streamed = 0;
  FtqWorkload live_wl = small_ftq();
  LiveOptions opts;
  opts.per_cpu_capacity = 1u << 8;
  opts.batch_size = 32;
  opts.on_record = [&](const tracebuf::EventRecord&) { ++streamed; };
  const LiveRunResult live = run_workload_live(live_wl, kSeed, opts);

  EXPECT_EQ(live.meta.drain.lost, 0u);
  EXPECT_EQ(streamed, offline.trace.total_events());
}

// The live drain's record stream, collected into a model, equals the
// offline trace (drain counters aside), so the offline analysis of a live
// run matches row for row. The test keeps its historical name so its id
// stays stable.
TEST(LivePipeline, LiveRunSourceMatchesOfflineTrace) {
  constexpr std::uint64_t kSeed = 42;
  FtqWorkload offline_wl = small_ftq();
  const RunResult offline = run_workload(offline_wl, kSeed);

  FtqWorkload live_wl = small_ftq();
  LiveOptions opts;
  opts.per_cpu_capacity = 1u << 10;
  opts.batch_size = 64;
  std::vector<std::vector<tracebuf::EventRecord>> per_cpu(offline.trace.cpu_count());
  opts.on_record = [&per_cpu](const tracebuf::EventRecord& rec) {
    if (rec.cpu >= per_cpu.size()) per_cpu.resize(rec.cpu + 1u);
    per_cpu[rec.cpu].push_back(rec);
  };
  LiveRunResult live = run_workload_live(live_wl, kSeed, opts);
  EXPECT_GT(live.meta.drain.records, 0u);
  EXPECT_EQ(live.meta.drain.lost, 0u);
  const trace::TraceModel model(live.meta, std::move(per_cpu), std::move(live.tasks));

  ASSERT_EQ(model.cpu_count(), offline.trace.cpu_count());
  for (CpuId c = 0; c < model.cpu_count(); ++c)
    EXPECT_EQ(model.cpu_events(c), offline.trace.cpu_events(c)) << "cpu " << c;
  EXPECT_EQ(model.tasks(), offline.trace.tasks());

  // Every activity row, preemption included, and every rank's breakdown.
  const noise::NoiseAnalysis offline_analysis(offline.trace);
  const noise::NoiseAnalysis live_analysis(model);
  for (int k = 0; k < static_cast<int>(noise::ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<noise::ActivityKind>(k);
    const noise::EventStats a = offline_analysis.activity_stats(kind);
    const noise::EventStats b = live_analysis.activity_stats(kind);
    EXPECT_EQ(a.count, b.count) << noise::activity_name(kind);
    EXPECT_EQ(a.freq_ev_per_sec, b.freq_ev_per_sec) << noise::activity_name(kind);
    EXPECT_EQ(a.avg_ns, b.avg_ns) << noise::activity_name(kind);
    EXPECT_EQ(a.max_ns, b.max_ns) << noise::activity_name(kind);
    EXPECT_EQ(a.min_ns, b.min_ns) << noise::activity_name(kind);
  }
  EXPECT_EQ(live_analysis.rank_breakdowns(), offline_analysis.rank_breakdowns());
}

// `osn-analyze run` writes both drains through one writer setup (default
// chunks, IndexAggregator attached); --offline only replays the in-memory
// trace's merged order into it. For the same seed the two files carry the
// same chunk index, the same pre-aggregates and the same records: only the
// footer's drain counters tell them apart.
TEST(LivePipeline, OfflineFileMatchesLiveFileExceptDrainCounters) {
  constexpr std::uint64_t kSeed = 5;
  const std::vector<std::function<std::unique_ptr<Workload>()>> workloads = {
      [] {
        FtqParams p;
        p.n_quanta = 4000;  // enough records for several default-size chunks
        return std::make_unique<FtqWorkload>(p);
      },
      [] { return std::make_unique<SequoiaWorkload>(SequoiaApp::kAmg, sec(1)); },
  };
  const std::string stem = ::testing::TempDir() + "/osn_drains_" + std::to_string(::getpid());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const std::string offline_path = stem + "_offline.osnt";
    const std::string live_path = stem + "_live.osnt";
    {
      trace::OsntStreamWriter writer(offline_path);
      writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
      const RunResult run = run_workload(*workloads[w](), kSeed);
      for (const auto& rec : run.trace.merged()) writer.append(rec);
      ASSERT_TRUE(writer.finish(run.trace.meta(), run.trace.tasks()));
    }
    {
      trace::OsntStreamWriter writer(live_path);
      writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
      LiveOptions opts;
      opts.on_record = [&](const tracebuf::EventRecord& rec) { writer.append(rec); };
      const LiveRunResult live = run_workload_live(*workloads[w](), kSeed, opts);
      ASSERT_TRUE(writer.finish(live.meta, live.tasks));
    }

    trace::OsntReader offline(offline_path);
    trace::OsntReader live(live_path);
    std::remove(offline_path.c_str());
    std::remove(live_path.c_str());
    EXPECT_GT(offline.chunks().size(), 1u) << "workload " << w;
    EXPECT_EQ(offline.chunks(), live.chunks()) << "workload " << w;
    ASSERT_TRUE(offline.index_summary().has_value()) << "workload " << w;
    EXPECT_EQ(offline.index_summary(), live.index_summary()) << "workload " << w;

    const trace::TraceModel from_offline = offline.read_all();
    const trace::TraceModel from_live = live.read_all();
    EXPECT_EQ(from_offline.meta().drain, trace::DrainStats{}) << "workload " << w;
    EXPECT_EQ(from_live.meta().drain.records, from_offline.total_events()) << "workload " << w;
    trace::TraceMeta live_meta = from_live.meta();
    live_meta.drain = trace::DrainStats{};
    EXPECT_EQ(live_meta, from_offline.meta()) << "workload " << w;
    EXPECT_EQ(from_live.tasks(), from_offline.tasks()) << "workload " << w;
    for (CpuId c = 0; c < from_offline.cpu_count(); ++c)
      EXPECT_EQ(from_live.cpu_events(c), from_offline.cpu_events(c))
          << "workload " << w << " cpu " << c;
  }
}

}  // namespace
}  // namespace osn::workloads
