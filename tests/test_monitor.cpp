// Monitoring pipeline tests: rolling segment store invariants (rotation,
// sealing, retention, compaction), rolling-view query equivalence against
// the uncut trace, the baseline/regression detector, injection, and
// catalog rescan of a live store directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "monitor/baseline.hpp"
#include "monitor/monitor.hpp"
#include "monitor/rolling.hpp"
#include "monitor/segment_store.hpp"
#include "noise/index_aggregate.hpp"
#include "query/engine.hpp"
#include "serve/catalog.hpp"
#include "serve_helpers.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn::monitor {
namespace {

using serve::testing::make_model;
using serve::testing::TempDir;

/// Streams a model's merged record sequence into the store and seals it at
/// the model's end — exactly what a replay through the daemon does.
void feed(SegmentStore& store, const trace::TraceModel& model) {
  for (const auto& rec : model.merged()) store.append(rec);
  store.finish(model.meta().end_ns);
}

/// Randomized analyzable trace (same shape as the query-engine property
/// tests): well-formed nesting, app ranks, events over tens of ms.
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

/// Writes the uncut reference file the store's contents are compared to.
std::string write_uncut(const trace::TraceModel& model, const TempDir& dir) {
  const std::string path = dir.path() + "/uncut.osnt";
  trace::OsntStreamWriter writer(path, /*chunk_records=*/64);
  writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
  for (const auto& rec : model.merged()) writer.append(rec);
  EXPECT_TRUE(writer.finish(model.meta(), model.tasks()));
  return path;
}

StoreOptions small_segments(const std::string& dir, DurNs segment_ns) {
  StoreOptions opts;
  opts.dir = dir;
  opts.segment_ns = segment_ns;
  opts.segment_bytes = 0;  // time-driven rotation only: deterministic layout
  opts.chunk_records = 64;
  return opts;
}

// ---------------------------------------------------------------------------
// SegmentStore
// ---------------------------------------------------------------------------

TEST(SegmentStore, RotatesSealsAndSpansTheStream) {
  TempDir dir("monitor_store");
  const trace::TraceModel model = make_model(400);  // 4 ms span
  SegmentStore store(small_segments(dir.path() + "/store", 500 * kNsPerUs),
                     model.meta(), model.tasks());
  feed(store, model);
  ASSERT_TRUE(store.ok());

  const std::vector<SegmentInfo>& segs = store.segments();
  ASSERT_GE(segs.size(), 3u);
  EXPECT_EQ(store.stats().segments_sealed, segs.size());
  EXPECT_EQ(store.stats().rotations_forced, 0u);  // gaps everywhere: all clean

  // The union of spans is the uncut trace's span, with no holes.
  EXPECT_EQ(segs.front().start_ns, model.meta().start_ns);
  EXPECT_EQ(segs.back().end_ns, model.meta().end_ns);
  std::uint64_t records = 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    records += segs[i].records;
    if (i > 0) {
      EXPECT_EQ(segs[i].start_ns, segs[i - 1].end_ns);
    }
    EXPECT_TRUE(segs[i].clean_cut);

    // Every sealed segment is a normal, finished v3 file with aggregates —
    // NOT the truncated salvage shape a crashed writer leaves.
    trace::OsntReader reader(segs[i].path);
    EXPECT_FALSE(reader.truncated());
    EXPECT_FALSE(reader.index_recovered());
    EXPECT_TRUE(reader.index_summary().has_value());
    EXPECT_EQ(reader.meta().start_ns, segs[i].start_ns);
    EXPECT_EQ(reader.meta().end_ns, segs[i].end_ns);
  }
  EXPECT_EQ(records, store.stats().records);

  // No in-progress `.part` files survive a clean finish.
  for (const auto& entry : std::filesystem::directory_iterator(store.dir()))
    EXPECT_NE(entry.path().extension(), ".part") << entry.path();
}

TEST(SegmentStore, FinishIsIdempotentAndDestructorSealsBestEffort) {
  TempDir dir("monitor_store_fin");
  const trace::TraceModel model = make_model(50);
  {
    SegmentStore store(small_segments(dir.path() + "/store", sec(1)), model.meta(),
                       model.tasks());
    for (const auto& rec : model.merged()) store.append(rec);
    // No explicit finish: the destructor seals at the last timestamp.
  }
  RollingView view(dir.path() + "/store");
  ASSERT_EQ(view.segment_count(), 1u);
  EXPECT_EQ(view.meta().start_ns, model.meta().start_ns);

  SegmentStore store(small_segments(dir.path() + "/store2", sec(1)), model.meta(),
                     model.tasks());
  feed(store, model);
  store.finish(model.meta().end_ns);  // second finish: no-op
  EXPECT_EQ(store.segments().size(), 1u);
}

// ---------------------------------------------------------------------------
// RollingView equivalence with the uncut trace
// ---------------------------------------------------------------------------

class RollingEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RollingEquivalence, PlansOverSegmentsMatchPlansOverUncutTrace) {
  TempDir dir("monitor_roll");
  const trace::TraceModel model = random_trace(GetParam());
  const std::string uncut = write_uncut(model, dir);
  const DurNs span = model.meta().end_ns - model.meta().start_ns;

  SegmentStore store(small_segments(dir.path() + "/store", span / 5), model.meta(),
                     model.tasks());
  feed(store, model);
  ASSERT_TRUE(store.ok());
  ASSERT_GE(store.segments().size(), 3u);

  RollingView view(dir.path() + "/store");
  trace::OsntReader reader(uncut);
  query::Engine engine;
  ThreadPool pool(3);
  Xoshiro256 rng(GetParam() ^ 0x9E3779B97F4A7C15ull);

  std::vector<query::Plan> plans;
  plans.emplace_back();  // full-span summary: the merged fast-path shape
  {
    query::Plan p;  // non-default options: ineligible for both fast paths
    p.options.resolve_nesting = false;
    plans.push_back(p);
  }
  {
    query::Plan p;  // random window: the record path
    const TimeNs a = rng.bounded(span);
    p.t0 = a;
    p.t1 = a + 1 + rng.bounded(span - a);
    plans.push_back(p);
  }
  {
    query::Plan p;
    p.aggregate = query::Aggregate::kTopK;
    p.k = 3;
    p.t0 = span / 4;
    p.t1 = span / 2 + 1;
    plans.push_back(p);
  }
  {
    query::Plan p;
    p.aggregate = query::Aggregate::kTimeseries;
    p.quantum = 100 * kNsPerUs;
    plans.push_back(p);
  }

  for (std::size_t i = 0; i < plans.size(); ++i) {
    const std::string expect = engine.run(reader, "", plans[i]);
    EXPECT_EQ(view.run(plans[i]), expect) << "plan " << i << " serial";
    EXPECT_EQ(view.run(plans[i], &pool), expect) << "plan " << i << " pooled";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollingEquivalence, ::testing::Values(1u, 2u, 3u, 4u));

TEST(RollingView, FullCoverWindowCanonicalizesLikeTheEngine) {
  TempDir dir("monitor_roll_canon");
  const trace::TraceModel model = make_model(200);
  const std::string uncut = write_uncut(model, dir);
  SegmentStore store(small_segments(dir.path() + "/store", 700 * kNsPerUs),
                     model.meta(), model.tasks());
  feed(store, model);

  RollingView view(dir.path() + "/store");
  trace::OsntReader reader(uncut);
  query::Engine engine;

  query::Plan covering;
  covering.t0 = 0;
  covering.t1 = model.meta().end_ns + kNsPerMs;
  EXPECT_EQ(view.run(covering), engine.run(reader, "", covering));
}

TEST(RollingView, EmptyStoreAndBadPlansAreRejected) {
  TempDir dir("monitor_roll_bad");
  std::filesystem::create_directories(dir.path() + "/empty");
  RollingView empty(dir.path() + "/empty");
  EXPECT_THROW(empty.run(query::Plan{}), query::PlanError);

  const trace::TraceModel model = make_model(50);
  SegmentStore store(small_segments(dir.path() + "/store", sec(1)), model.meta(),
                     model.tasks());
  feed(store, model);
  RollingView view(dir.path() + "/store");
  query::Plan inverted;
  inverted.t0 = 10;
  inverted.t1 = 10;
  EXPECT_THROW(view.run(inverted), query::PlanError);
}

// ---------------------------------------------------------------------------
// Retention + compaction
// ---------------------------------------------------------------------------

TEST(SegmentStore, CompactionPreservesTotalsAndRefusesCompactedWindows) {
  TempDir dir("monitor_compact");
  const trace::TraceModel model = random_trace(7);
  const std::string uncut = write_uncut(model, dir);
  const DurNs span = model.meta().end_ns - model.meta().start_ns;

  StoreOptions opts = small_segments(dir.path() + "/store", span / 6);
  opts.retain_ns = span / 2;
  SegmentStore store(opts, model.meta(), model.tasks());
  feed(store, model);
  ASSERT_TRUE(store.ok());
  ASSERT_GE(store.stats().compactions, 1u);
  EXPECT_EQ(store.stats().compaction_failures, 0u);

  RollingView view(dir.path() + "/store");

  // Compacted summary segments are zero-record v3 files with one aggregate.
  std::size_t compacted = 0;
  for (const SegmentInfo& seg : store.segments()) {
    if (!seg.compacted) continue;
    ++compacted;
    trace::OsntReader reader(seg.path);
    EXPECT_EQ(reader.indexed_records(), 0u);
    EXPECT_FALSE(reader.truncated());
    ASSERT_TRUE(reader.index_summary().has_value());
  }
  ASSERT_GE(compacted, 1u);

  // Downsampling must not move the full-span summary by a byte: compaction
  // folds the exact integer accumulators, never re-derives them.
  trace::OsntReader reader(uncut);
  query::Engine engine;
  EXPECT_EQ(view.run(query::Plan{}), engine.run(reader, "", query::Plan{}));

  // A window inside the compacted history needs records that no longer
  // exist: refusing beats silently answering from partial data.
  query::Plan early;
  early.t0 = model.meta().start_ns;
  early.t1 = model.meta().start_ns + span / 8;
  try {
    view.run(early);
    FAIL() << "expected PlanError for a compacted window";
  } catch (const query::PlanError& e) {
    EXPECT_EQ(e.kind(), query::PlanError::Kind::kTraceMismatch);
  }

  // A window over the retained full-resolution tail still answers, and
  // byte-identically to the uncut trace.
  query::Plan late;
  late.t0 = model.meta().end_ns - span / 8;
  late.t1 = model.meta().end_ns;
  EXPECT_EQ(view.run(late), engine.run(reader, "", late));
}

TEST(SegmentStore, RetentionDeletesWhenCompactionDisabled) {
  TempDir dir("monitor_nocompact");
  const trace::TraceModel model = make_model(400);
  const DurNs span = model.meta().end_ns - model.meta().start_ns;
  StoreOptions opts = small_segments(dir.path() + "/store", span / 6);
  opts.retain_ns = span / 2;
  opts.compact = false;
  SegmentStore store(opts, model.meta(), model.tasks());
  feed(store, model);

  EXPECT_GE(store.stats().segments_deleted, 1u);
  EXPECT_EQ(store.stats().compactions, 0u);
  for (const SegmentInfo& seg : store.segments()) EXPECT_FALSE(seg.compacted);
}

// ---------------------------------------------------------------------------
// WindowTracker + RegressionDetector
// ---------------------------------------------------------------------------

WindowMetrics window_with(double fraction, DurNs p99, DurNs window_ns = kNsPerMs,
                          noise::NoiseCategory cat = noise::NoiseCategory::kPeriodic) {
  WindowMetrics m;
  m.end_ns = window_ns;
  m.noise_sum_ns = static_cast<DurNs>(fraction * static_cast<double>(window_ns));
  m.cat_sum_ns[static_cast<std::size_t>(cat)] = m.noise_sum_ns;
  m.intervals = m.noise_sum_ns == 0 ? 0 : 8;
  m.p99_ns = p99;
  m.noise_fraction = fraction;
  return m;
}

TEST(WindowTracker, ClosesFixedWindowsIncludingEmptyOnes) {
  WindowTracker tracker(kNsPerMs, /*n_cpus=*/2);
  std::vector<WindowMetrics> closed;
  const WindowTracker::Sink sink = [&closed](const WindowMetrics& m) {
    closed.push_back(m);
  };
  tracker.start(0);
  tracker.advance(100 * kNsPerUs, sink);
  tracker.observe(noise::NoiseCategory::kPeriodic, 100 * kNsPerUs, 50 * kNsPerUs);
  tracker.observe(noise::NoiseCategory::kIo, 200 * kNsPerUs, 30 * kNsPerUs);
  // Jump 3 windows ahead: window 0 closes with the observations, windows 1
  // and 2 close empty (silence is data for the baseline).
  tracker.advance(3 * kNsPerMs + 1, sink);
  ASSERT_EQ(closed.size(), 3u);
  EXPECT_EQ(closed[0].intervals, 2u);
  EXPECT_EQ(closed[0].noise_sum_ns, 80 * kNsPerUs);
  // Fraction normalizes by window * n_cpus: 80us / (1ms * 2).
  EXPECT_DOUBLE_EQ(closed[0].noise_fraction, 0.04);
  EXPECT_DOUBLE_EQ(closed[0].cat_share(static_cast<std::size_t>(noise::NoiseCategory::kIo)),
                   30.0 / 80.0);
  EXPECT_GT(closed[0].p99_ns, 0u);
  EXPECT_EQ(closed[1].intervals, 0u);
  EXPECT_EQ(closed[2].intervals, 0u);
  EXPECT_EQ(closed[1].start_ns, kNsPerMs);

  // flush closes a partial tail window only when it holds observations.
  tracker.observe(noise::NoiseCategory::kPeriodic, 3 * kNsPerMs + 2, kNsPerUs);
  tracker.flush(3 * kNsPerMs + 500, sink);
  EXPECT_EQ(closed.size(), 4u);
}

TEST(RegressionDetector, OneAlertPerSustainedExcursionWithRearm) {
  DetectorOptions opts;
  opts.warmup_windows = 4;
  opts.sustain = 3;
  opts.clear = 2;
  RegressionDetector det(opts);

  for (int i = 0; i < 4; ++i) det.observe(window_with(0.01, 1'000));
  EXPECT_TRUE(det.armed());
  ASSERT_TRUE(det.alerts().empty());

  // A blip shorter than `sustain` never alerts.
  det.observe(window_with(0.30, 1'000));
  det.observe(window_with(0.30, 1'000));
  det.observe(window_with(0.01, 1'000));
  EXPECT_TRUE(det.alerts().empty());

  // A sustained step alerts exactly once, however long it lasts.
  for (int i = 0; i < 6; ++i) det.observe(window_with(0.30, 1'000));
  ASSERT_EQ(det.alerts().size(), 1u);
  EXPECT_EQ(det.alerts()[0].metric, "noise_fraction");
  EXPECT_GT(det.alerts()[0].observed, det.alerts()[0].threshold);

  // Quiet windows re-arm; a second step is a second alert.
  for (int i = 0; i < 3; ++i) det.observe(window_with(0.01, 1'000));
  for (int i = 0; i < 3; ++i) det.observe(window_with(0.30, 1'000));
  ASSERT_EQ(det.alerts().size(), 2u);
  EXPECT_EQ(det.alerts()[1].id, 2u);
}

TEST(RegressionDetector, OneExcursionMovingSeveralMetricsIsOneAlert) {
  DetectorOptions opts;
  opts.warmup_windows = 4;
  opts.sustain = 2;
  RegressionDetector det(opts);
  for (int i = 0; i < 4; ++i)
    det.observe(window_with(0.01, 1'000, kNsPerMs, noise::NoiseCategory::kPeriodic));
  // The step raises the fraction, the p99 AND shifts all noise into a new
  // category — one event, one alert.
  for (int i = 0; i < 5; ++i)
    det.observe(window_with(0.40, 400'000, kNsPerMs, noise::NoiseCategory::kScheduling));
  EXPECT_EQ(det.alerts().size(), 1u);
}

TEST(RegressionDetector, AbsoluteFloorsSilenceIdleBaselines) {
  DetectorOptions opts;
  opts.warmup_windows = 2;
  opts.sustain = 1;
  RegressionDetector det(opts);
  for (int i = 0; i < 2; ++i) det.observe(window_with(0.0, 0));
  // Tiny deviations over an all-zero baseline stay under the floors.
  for (int i = 0; i < 3; ++i) det.observe(window_with(5e-5, 2'000));
  EXPECT_TRUE(det.alerts().empty());
}

// ---------------------------------------------------------------------------
// Monitor: injection-driven alerting without touching stored bytes
// ---------------------------------------------------------------------------

TEST(Monitor, InjectedNoiseStepRaisesExactlyOneAlertAndStoreStaysExact) {
  TempDir dir("monitor_inject");
  const trace::TraceModel model = make_model(400);  // 4 ms span
  const std::string uncut = write_uncut(model, dir);

  MonitorOptions opts;
  opts.store = small_segments(dir.path() + "/store", kNsPerMs);
  opts.window_ns = 200 * kNsPerUs;
  opts.detector.warmup_windows = 8;
  opts.detector.sustain = 3;
  opts.inject.enabled = true;
  opts.inject.start_ns = 3 * kNsPerMs;
  opts.inject.period_ns = 50 * kNsPerUs;
  opts.inject.duration_ns = 150 * kNsPerUs;
  Monitor mon(opts, model.meta(), model.tasks());
  ASSERT_TRUE(mon.ok());
  for (const auto& rec : model.merged()) mon.ingest(rec);
  mon.finish(model.meta().end_ns);

  EXPECT_EQ(mon.alert_count(), 1u);
  EXPECT_NE(mon.alerts_json().find("\"count\": 1"), std::string::npos);
  EXPECT_NE(mon.status_json().find("\"finished\": true"), std::string::npos);

  // Injection feeds the detector only: the stored segments still answer
  // byte-identically to the uncut trace.
  RollingView view(dir.path() + "/store");
  trace::OsntReader reader(uncut);
  query::Engine engine;
  EXPECT_EQ(view.run(query::Plan{}), engine.run(reader, "", query::Plan{}));
}

TEST(Monitor, QuietReplayRaisesNoAlerts) {
  TempDir dir("monitor_quiet");
  const trace::TraceModel model = make_model(400);
  MonitorOptions opts;
  opts.store = small_segments(dir.path() + "/store", kNsPerMs);
  opts.window_ns = 200 * kNsPerUs;
  opts.detector.warmup_windows = 8;
  Monitor mon(opts, model.meta(), model.tasks());
  for (const auto& rec : model.merged()) mon.ingest(rec);
  mon.finish(model.meta().end_ns);
  // make_model is perfectly periodic: after warmup every window looks like
  // the learned baseline.
  EXPECT_EQ(mon.alert_count(), 0u);
  EXPECT_NE(mon.alerts_json().find("\"count\": 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TraceCatalog incremental rescan over a store directory
// ---------------------------------------------------------------------------

TEST(SegmentStore, CatalogRefreshSeesNewlySealedSegments) {
  TempDir dir("monitor_catalog");
  const std::string store_dir = dir.path() + "/store";
  std::filesystem::create_directories(store_dir);
  serve::TraceCatalog catalog(store_dir);
  EXPECT_TRUE(catalog.list().empty());

  const trace::TraceModel model = make_model(400);
  SegmentStore store(small_segments(store_dir, kNsPerMs), model.meta(), model.tasks());
  feed(store, model);
  ASSERT_GE(store.segments().size(), 2u);

  // The catalog notices the sealed segments on refresh — no restart, no
  // reconstruction; `.part` files (none left here) stay invisible.
  catalog.refresh();
  const std::vector<serve::TraceEntry> entries = catalog.list();
  ASSERT_EQ(entries.size(), store.segments().size());
  EXPECT_EQ(entries.front().name, "seg-000001");
  for (const serve::TraceEntry& e : entries) EXPECT_EQ(e.error, "") << e.name;
}

}  // namespace
}  // namespace osn::monitor
