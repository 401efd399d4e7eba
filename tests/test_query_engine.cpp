// Engine equivalence properties: every (window, predicate, aggregate) plan
// over randomized traces must produce bytes identical to the primitive
// composition (read_all → window_of → restrict → NoiseAnalysis → exporter),
// at any worker count, over either I/O backend, hot or cold cache. These are
// the tests that allowed the duplicated serve/CLI execution paths to be
// deleted: the planner is provably the same computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "export/json.hpp"
#include "noise/analysis.hpp"
#include "noise/index_aggregate.hpp"
#include "query/engine.hpp"
#include "serve_helpers.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn::query {
namespace {

using serve::testing::TempDir;

/// Randomized but analyzable trace: well-formed entry/exit nesting per CPU,
/// guaranteed application ranks, event times spread over ~tens of ms so
/// windows and chunk ranges are non-trivial.
trace::TraceModel random_trace(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto n_cpus = static_cast<std::uint16_t>(1 + rng.bounded(4));
  osn::testing::TraceBuilder b(n_cpus);
  b.task(1, "rank0", /*is_app=*/true);
  b.task(2, "rank1", /*is_app=*/true);
  b.task(9, "events/0", /*is_app=*/false, /*is_kthread=*/true);
  static constexpr trace::EventType kEntries[] = {
      trace::EventType::kIrqEntry, trace::EventType::kSoftirqEntry,
      trace::EventType::kPageFaultEntry, trace::EventType::kSyscallEntry};
  TimeNs end = 0;
  for (CpuId cpu = 0; cpu < n_cpus; ++cpu) {
    TimeNs t = 1 + rng.bounded(1000);
    const std::size_t n_pairs = 50 + rng.bounded(150);
    for (std::size_t i = 0; i < n_pairs; ++i) {
      const trace::EventType entry = kEntries[rng.bounded(std::size(kEntries))];
      // Args must name mapped activities: IRQ vectors 0-2, softirq nrs from
      // the classified set; page fault / syscall args are free-form.
      static constexpr std::uint64_t kSoftirqNrs[] = {1, 2, 3, 9};
      const std::uint64_t arg = entry == trace::EventType::kSoftirqEntry
                                    ? kSoftirqNrs[rng.bounded(std::size(kSoftirqNrs))]
                                    : rng.bounded(3);
      const Pid pid = rng.bounded(2) == 0 ? 1 : 2;
      const DurNs width = 100 + rng.bounded(5'000);
      b.pair(cpu, t, t + width, pid, entry, arg);
      t += width + 1'000 + rng.bounded(500'000);
    }
    end = std::max(end, t);
  }
  return b.build(end + 1);
}

/// Writes `model` as a chunked v3 file with pre-aggregates (small chunks so
/// window pushdown has real ranges to select).
std::string write_v3(const trace::TraceModel& model, const TempDir& dir,
                     const std::string& name) {
  const std::string path = dir.path() + "/" + name + ".osnt";
  trace::OsntStreamWriter writer(path, /*chunk_records=*/64);
  writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
  for (const auto& rec : model.merged()) writer.append(rec);
  EXPECT_TRUE(writer.finish(model.meta(), model.tasks()));
  return path;
}

/// The primitive composition the engine must reproduce byte-for-byte.
std::string ground_truth_summary(const trace::TraceModel& model, const Plan& plan) {
  std::optional<trace::TraceModel> local;
  const bool windowed = !(plan.t0 == 0 && plan.t1 == kTimeInfinity);
  if (windowed) local.emplace(trace::window_of(model, plan.t0, plan.t1));
  if (plan.cpu.has_value()) {
    const trace::TraceModel& in = local.has_value() ? *local : model;
    std::vector<std::vector<tracebuf::EventRecord>> per_cpu(in.cpu_count());
    if (*plan.cpu < per_cpu.size()) per_cpu[*plan.cpu] = in.cpu_events(*plan.cpu);
    local.emplace(trace::TraceModel(in.meta(), std::move(per_cpu), in.tasks()));
  }
  const noise::NoiseAnalysis analysis(local.has_value() ? *local : model, plan.options);
  return exporter::summary_json(analysis);
}

class EnginePlans : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnginePlans, WindowAndCpuPlansMatchPrimitiveCompositionOnV3) {
  TempDir dir("query_engine_v3");
  const trace::TraceModel model = random_trace(GetParam());
  const std::string path = write_v3(model, dir, "t");
  Xoshiro256 rng(GetParam() ^ 0x9E3779B97F4A7C15ull);

  ThreadPool pool(3);
  Engine engine;
  trace::OsntReader mapped(path);
  trace::OsntReader preading(path, trace::OsntReader::IoMode::kPread);
  ASSERT_GT(mapped.chunks().size(), 1u);  // pushdown must have ranges to pick

  for (int round = 0; round < 6; ++round) {
    Plan plan;
    if (round != 0) {  // round 0: full-trace summary (fast-path shape)
      const TimeNs span = model.meta().end_ns;
      const TimeNs a = rng.bounded(span);
      plan.t0 = a;
      plan.t1 = a + 1 + rng.bounded(span - a);
    }
    if (rng.bounded(2) == 0)
      plan.cpu = static_cast<CpuId>(rng.bounded(model.cpu_count() + 1u));
    const std::string expect = ground_truth_summary(model, plan);
    EXPECT_EQ(engine.run(mapped, "", plan), expect) << "serial/mmap round " << round;
    EXPECT_EQ(engine.run(mapped, "", plan, &pool), expect) << "pooled round " << round;
    EXPECT_EQ(engine.run(preading, "", plan, &pool), expect) << "pread round " << round;
  }
}

// A file without records has no chunks: the engine's whole-model path (no
// chunk range to push the window into). The name is kept from when this
// path served the unindexed v2 layout.
TEST_P(EnginePlans, V2PlansMatchPrimitiveComposition) {
  TempDir dir("query_engine_empty");
  const trace::TraceModel shape = random_trace(GetParam());
  const trace::TraceModel model(shape.meta(),
                                std::vector<std::vector<tracebuf::EventRecord>>(
                                    shape.cpu_count()),
                                shape.tasks());
  const std::string path = dir.path() + "/t.osnt";
  ASSERT_TRUE(trace::write_trace_file(model, path));
  trace::OsntReader reader(path);
  ASSERT_TRUE(reader.chunks().empty());
  Engine engine;

  Plan full;
  EXPECT_EQ(engine.run(reader, "", full), ground_truth_summary(model, full));

  Plan windowed;
  windowed.t0 = model.meta().end_ns / 4;
  windowed.t1 = model.meta().end_ns / 2;
  EXPECT_EQ(engine.run(reader, "", windowed), ground_truth_summary(model, windowed));

  Plan cpu0 = windowed;
  cpu0.cpu = 0;
  EXPECT_EQ(engine.run(reader, "", cpu0), ground_truth_summary(model, cpu0));
}

TEST_P(EnginePlans, AblationOptionsFlowThroughThePlanner) {
  TempDir dir("query_engine_ablate");
  const trace::TraceModel model = random_trace(GetParam());
  const std::string path = write_v3(model, dir, "t");
  trace::OsntReader reader(path);
  Engine engine;

  // Non-default options are ineligible for the index fast path, so this also
  // proves the record-decode fallback runs the requested ablation.
  Plan plan;
  plan.options.resolve_nesting = false;
  plan.options.runnable_filter = false;
  EXPECT_EQ(engine.run(reader, "", plan), ground_truth_summary(model, plan));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePlans, ::testing::Values(1u, 2u, 3u, 4u));

TEST(Engine, FastPathAnswersIdenticallyToRecordDecode) {
  TempDir dir("query_fastpath");
  const trace::TraceModel model = serve::testing::make_model();
  const std::string path = write_v3(model, dir, "t");
  trace::OsntReader reader(path);

  // The fast path is index-only: it must still be byte-identical to the
  // primitive record-decode composition.
  Engine engine;
  const Plan plan;
  EXPECT_EQ(engine.run(reader, "", plan), ground_truth_summary(model, plan));
}

TEST(Engine, FullCoverWindowCanonicalizesToFullTrace) {
  TempDir dir("query_canon");
  const trace::TraceModel model = serve::testing::make_model();
  const std::string path = write_v3(model, dir, "t");
  trace::OsntReader reader(path);
  Engine engine;

  Plan covering;
  covering.t0 = 0;
  covering.t1 = model.meta().end_ns + kNsPerMs;
  const Plan canon = engine.canonicalize(reader, covering);
  EXPECT_EQ(canon.t0, 0u);
  EXPECT_EQ(canon.t1, kTimeInfinity);
  // ... so the full-cover window and the plain summary share one cache entry.
  EXPECT_EQ(fingerprint(canon), fingerprint(Plan{}));

  // A genuinely partial window stays literal.
  Plan partial;
  partial.t0 = 0;
  partial.t1 = model.meta().end_ns / 2;
  const Plan kept = engine.canonicalize(reader, partial);
  EXPECT_EQ(kept.t0, partial.t0);
  EXPECT_EQ(kept.t1, partial.t1);

  // And the cached documents agree: summary then full-cover window is one
  // result-cache entry with one hit.
  const std::string a = engine.run(reader, "stamp", Plan{});
  const std::string b = engine.run(reader, "stamp", covering);
  EXPECT_EQ(a, b);
  EXPECT_EQ(engine.result_cache_stats().insertions, 1u);
  EXPECT_EQ(engine.result_cache_stats().hits, 1u);
}

TEST(Engine, ModelCacheIsSharedAtChunkRangeGranularity) {
  TempDir dir("query_model_cache");
  const trace::TraceModel model = serve::testing::make_model();
  const std::string path = write_v3(model, dir, "t");
  trace::OsntReader reader(path);
  ASSERT_GT(reader.chunks().size(), 1u);
  Engine engine;

  // Two different windows inside one chunk's time span: one decode, reused.
  const auto& mid_chunk = reader.chunks()[reader.chunks().size() / 2];
  ASSERT_GT(mid_chunk.t_last, mid_chunk.t_first + 8);
  Plan w1;
  w1.t0 = mid_chunk.t_first + 1;
  w1.t1 = mid_chunk.t_last - 1;
  Plan w2;
  w2.t0 = mid_chunk.t_first + 2;  // different window, same chunk range
  w2.t1 = mid_chunk.t_last - 2;
  const auto [lo1, hi1] = reader.window_chunk_range(w1.t0, w1.t1);
  const auto [lo2, hi2] = reader.window_chunk_range(w2.t0, w2.t1);
  ASSERT_EQ(lo1, lo2);
  ASSERT_EQ(hi1, hi2);

  EXPECT_EQ(engine.run(reader, "stamp", w1), ground_truth_summary(model, w1));
  EXPECT_EQ(engine.run(reader, "stamp", w2), ground_truth_summary(model, w2));
  EXPECT_EQ(engine.model_cache_stats().insertions, 1u);
  EXPECT_EQ(engine.model_cache_stats().hits, 1u);
  // Distinct windows are distinct results.
  EXPECT_EQ(engine.result_cache_stats().insertions, 2u);

  // The cached model is charged its measured footprint, not a guess.
  EXPECT_GE(engine.model_cache_stats().bytes, sizeof(trace::TraceModel));
}

// Engine::model: without window or cpu the decoded (cached) model is the
// answer, uncopied; with either, the filter step's copy, equal to the
// primitive composition.
TEST(Engine, ModelFiltersOnlyWhenThePlanHasAPredicate) {
  TempDir dir("query_engine_model");
  const trace::TraceModel model = serve::testing::make_model();
  const std::string path = write_v3(model, dir, "t");
  trace::OsntReader reader(path);
  Engine engine;

  const Plan full;
  const auto whole = engine.model(reader, "stamp", full);
  EXPECT_EQ(*whole, model);
  EXPECT_EQ(engine.model(reader, "stamp", full).get(), whole.get());

  Plan filtered;
  filtered.t0 = model.meta().end_ns / 4;
  filtered.t1 = model.meta().end_ns / 2;
  filtered.cpu = 1;
  const auto part = engine.model(reader, "stamp", filtered);
  EXPECT_EQ(*part, trace::restrict_to_cpu(
                       trace::window_of(model, filtered.t0, filtered.t1), 1));
  EXPECT_NE(engine.model(reader, "stamp", filtered).get(), part.get());
}

TEST(Engine, EmptyTraceIdDisablesCaching) {
  TempDir dir("query_nocache");
  const trace::TraceModel model = serve::testing::make_model();
  const std::string path = write_v3(model, dir, "t");
  trace::OsntReader reader(path);
  Engine engine;

  Plan windowed;  // windowed: off the fast path, so a model gets built
  windowed.t0 = 0;
  windowed.t1 = model.meta().end_ns / 2;
  engine.run(reader, "", windowed);
  engine.run(reader, "", windowed);
  EXPECT_EQ(engine.result_cache_stats().insertions, 0u);
  EXPECT_EQ(engine.result_cache_stats().hits, 0u);
  EXPECT_EQ(engine.model_cache_stats().insertions, 0u);
}

TEST(Engine, ChartTimeseriesTopkAreDeterministicAcrossBackends) {
  TempDir dir("query_aggs");
  const trace::TraceModel model = serve::testing::make_model();
  const std::string path = write_v3(model, dir, "t");
  trace::OsntReader mapped(path);
  trace::OsntReader preading(path, trace::OsntReader::IoMode::kPread);
  ThreadPool pool(3);
  Engine engine;

  for (const Aggregate agg :
       {Aggregate::kChart, Aggregate::kTimeseries, Aggregate::kTopK}) {
    Plan plan;
    plan.aggregate = agg;
    plan.quantum = 100 * kNsPerUs;
    plan.k = 3;
    const std::string serial = engine.run(mapped, "", plan);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(engine.run(mapped, "", plan, &pool), serial) << aggregate_name(agg);
    EXPECT_EQ(engine.run(preading, "", plan, &pool), serial) << aggregate_name(agg);
  }
}

TEST(Engine, RejectsUnexecutablePlans) {
  TempDir dir("query_badplans");
  const trace::TraceModel model = serve::testing::make_model();
  const std::string path = write_v3(model, dir, "t");
  trace::OsntReader reader(path);
  Engine engine;

  Plan inverted;
  inverted.t0 = 10;
  inverted.t1 = 10;
  EXPECT_THROW(engine.run(reader, "", inverted), PlanError);

  Plan zero_quantum;
  zero_quantum.aggregate = Aggregate::kChart;
  zero_quantum.quantum = 0;
  EXPECT_THROW(engine.run(reader, "", zero_quantum), PlanError);

  Plan zero_k;
  zero_k.aggregate = Aggregate::kTopK;
  zero_k.k = 0;
  EXPECT_THROW(engine.run(reader, "", zero_k), PlanError);

  Plan bad_pid;
  bad_pid.aggregate = Aggregate::kChart;
  bad_pid.task = 9999;
  try {
    engine.run(reader, "", bad_pid);
    FAIL() << "expected PlanError";
  } catch (const PlanError& e) {
    EXPECT_EQ(e.kind(), PlanError::Kind::kBadPlan);
  }
}

TEST(Engine, CheckpointSeesEveryStageAndCanAbort) {
  TempDir dir("query_checkpoint");
  const trace::TraceModel model = serve::testing::make_model();
  const std::string path = write_v3(model, dir, "t");
  trace::OsntReader reader(path);
  Engine engine;

  Plan windowed;  // off the fast path so "before analysis" fires
  windowed.t0 = 0;
  windowed.t1 = model.meta().end_ns / 2;
  std::vector<std::string> stages;
  engine.run(reader, "", windowed, nullptr,
             [&stages](const char* stage) { stages.emplace_back(stage); });
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0], "before decode");
  EXPECT_EQ(stages[1], "before analysis");
  EXPECT_EQ(stages[2], "after analysis");

  struct Abort {};
  EXPECT_THROW(engine.run(reader, "", windowed, nullptr,
                          [](const char*) { throw Abort{}; }),
               Abort);
}

TEST(Engine, TimeseriesAndTopkDocumentsHaveTheExpectedShape) {
  TempDir dir("query_shapes");
  const trace::TraceModel model = serve::testing::make_model();
  const std::string path = write_v3(model, dir, "t");
  trace::OsntReader reader(path);
  Engine engine;

  Plan ts;
  ts.aggregate = Aggregate::kTimeseries;
  ts.activity = noise::ActivityKind::kTimerIrq;
  ts.quantum = 100 * kNsPerUs;
  const std::string ts_doc = engine.run(reader, "", ts);
  EXPECT_NE(ts_doc.find("\"activity\": \"timer_interrupt\""), std::string::npos)
      << ts_doc.substr(0, 200);
  EXPECT_NE(ts_doc.find("\"quantum_ns\": 100000"), std::string::npos);

  Plan topk;
  topk.aggregate = Aggregate::kTopK;
  topk.k = 1;
  const std::string topk_doc = engine.run(reader, "", topk);
  EXPECT_NE(topk_doc.find("\"k\": 1"), std::string::npos);
  EXPECT_NE(topk_doc.find("\"cpus\": ["), std::string::npos);
}

}  // namespace
}  // namespace osn::query
