// Damaged-input battery for the analysis path: a seeded v3 trace cut at
// every chunk boundary and at several offsets inside each chunk, then run
// through Engine::run's summary, timeseries and topk plans. A cut salvages a
// prefix of chunks, which usually leaves kernel intervals open at the end of
// some CPU's stream; the analysis must answer with a document or the typed
// trace::TraceReadError (the CLI's exit 1, the server's trace_error) — never
// an abort. One damaged catalog file must not take a daemon down.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "noise/index_aggregate.hpp"
#include "query/engine.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "workloads/sequoia.hpp"
#include "workloads/workload.hpp"

namespace osn::query {
namespace {

/// A short seeded AMG run written the way `osn-analyze run` writes it (v3
/// with pre-aggregates), in small chunks so there are many cut points.
std::vector<std::uint8_t> seeded_v3_bytes() {
  workloads::SequoiaWorkload wl(workloads::SequoiaApp::kAmg, 300 * kNsPerMs);
  const workloads::RunResult run = workloads::run_workload(wl, 11);
  const std::string path = ::testing::TempDir() + "/osn_damaged_input.osnt";
  {
    trace::OsntStreamWriter writer(path, 512);
    writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
    for (const auto& rec : run.trace.merged()) writer.append(rec);
    EXPECT_TRUE(writer.finish(run.trace.meta(), run.trace.tasks()));
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  std::remove(path.c_str());
  return bytes;
}

/// Summary (full span and windowed), timeseries and topk, serial and on a
/// pool.
std::vector<Plan> battery_plans() {
  std::vector<Plan> plans;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    Plan summary;
    summary.options.jobs = jobs;
    plans.push_back(summary);
    Plan windowed = summary;
    windowed.t0 = 20 * kNsPerMs;
    windowed.t1 = 250 * kNsPerMs;
    plans.push_back(windowed);
    Plan series = summary;
    series.aggregate = Aggregate::kTimeseries;
    plans.push_back(series);
    Plan topk = summary;
    topk.aggregate = Aggregate::kTopK;
    plans.push_back(topk);
  }
  return plans;
}

struct Outcomes {
  std::size_t documents = 0;
  std::size_t read_errors = 0;
};

/// Runs every plan over the first `len` bytes; anything but a document or
/// TraceReadError fails the test (an abort fails the whole binary).
void run_cut(const std::vector<std::uint8_t>& pristine, std::size_t len, Outcomes& out) {
  const std::vector<Plan> plans = battery_plans();
  ThreadPool pool(2);
  for (const Plan& plan : plans) {
    try {
      trace::OsntReader reader(std::vector<std::uint8_t>(
          pristine.begin(), pristine.begin() + static_cast<std::ptrdiff_t>(len)));
      Engine engine;
      const std::string doc = engine.run(reader, "", plan, plan.options.jobs > 1 ? &pool : nullptr);
      EXPECT_FALSE(doc.empty()) << "cut at " << len;
      ++out.documents;
    } catch (const trace::TraceReadError&) {
      ++out.read_errors;
    }
  }
}

TEST(DamagedInput, EveryChunkBoundaryAndMidChunkCutAnswersOrThrowsTyped) {
  const std::vector<std::uint8_t> pristine = seeded_v3_bytes();
  std::vector<std::size_t> cuts;
  {
    trace::OsntReader clean(pristine);
    ASSERT_GT(clean.chunks().size(), 8u);
    for (const trace::ChunkInfo& c : clean.chunks()) {
      cuts.push_back(c.offset);
      for (const std::uint64_t eighths : {1u, 3u, 5u, 7u})
        cuts.push_back(c.offset + c.payload_len * eighths / 8);
    }
    const trace::ChunkInfo& last = clean.chunks().back();
    cuts.push_back(last.offset + last.payload_len + 4);  // just past the last chunk
    cuts.push_back(pristine.size() - 1);                 // torn footer
  }
  Outcomes out;
  for (const std::size_t len : cuts) {
    if (len >= pristine.size()) continue;
    run_cut(pristine, len, out);
  }
  // Both outcomes occur: intact prefixes answer, open intervals throw.
  EXPECT_GT(out.documents, 0u);
  EXPECT_GT(out.read_errors, 0u);
}

TEST(DamagedInput, PristineTraceAnswersEveryPlan) {
  const std::vector<std::uint8_t> pristine = seeded_v3_bytes();
  Outcomes out;
  run_cut(pristine, pristine.size(), out);
  EXPECT_EQ(out.read_errors, 0u);
  EXPECT_EQ(out.documents, battery_plans().size());
}

}  // namespace
}  // namespace osn::query
