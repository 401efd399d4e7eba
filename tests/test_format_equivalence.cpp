// Chunking equivalence: the same synthetic 8-CPU trace stored with chunks of
// 1, 64 and 8192 records must produce the identical TraceModel and
// *byte-identical* analysis artifacts — intervals CSV, summary JSON, Paraver
// export — whichever chunking, ingestion path (in-memory model vs a decoded
// file) and worker count produced them. Chunk boundaries reset the per-CPU
// timestamp deltas and split the parallel decode, so they must never show in
// the analysis.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "export/csv.hpp"
#include "export/json.hpp"
#include "export/paraver.hpp"
#include "noise/analysis.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn::trace {
namespace {

using osn::testing::TraceBuilder;

/// A synthetic 8-CPU trace with app ranks, a kernel daemon, kernel activity
/// of several kinds, barrier windows and preemption-ish scheduling churn.
TraceModel synthetic_trace() {
  TraceBuilder b(8);
  for (Pid r = 1; r <= 8; ++r) b.task(r, "rank" + std::to_string(r - 1), true);
  b.task(20, "rpciod", false, true);
  for (CpuId cpu = 0; cpu < 8; ++cpu) {
    const Pid rank = static_cast<Pid>(cpu + 1);
    TimeNs t = 1'000 + static_cast<TimeNs>(cpu) * 37;
    b.ev(cpu, t, rank, EventType::kAppMark,
         static_cast<std::uint64_t>(AppMark::kComputeBegin));
    for (std::uint64_t i = 0; i < 60; ++i) {
      b.pair(cpu, t + 200, t + 200 + 2'000 + 70 * (i % 9), rank, EventType::kIrqEntry, 0);
      if (i % 3 == 0)
        b.pair(cpu, t + 3'000, t + 3'600, rank, EventType::kSoftirqEntry,
               static_cast<std::uint64_t>(SoftirqNr::kTimer));
      if (i % 5 == 0)
        b.pair(cpu, t + 4'000, t + 6'500, rank, EventType::kPageFaultEntry,
               static_cast<std::uint64_t>(PageFaultKind::kMinorAnon));
      if (i % 11 == 0) {
        b.ev(cpu, t + 7'000, rank, EventType::kAppMark,
             static_cast<std::uint64_t>(AppMark::kBarrierEnter));
        b.ev(cpu, t + 8'500, rank, EventType::kAppMark,
             static_cast<std::uint64_t>(AppMark::kBarrierExit));
      }
      t += 10'000 + 13 * (i % 7) + cpu;  // cpu is unsigned; keeps streams distinct
    }
    b.ev(cpu, t, rank, EventType::kAppMark,
         static_cast<std::uint64_t>(AppMark::kComputeEnd));
  }
  return b.build(650'000);
}

struct Artifacts {
  std::string csv;
  std::string json;
  exporter::ParaverFiles paraver;
};

Artifacts artifacts_of(const noise::NoiseAnalysis& analysis) {
  return {exporter::intervals_csv(analysis), exporter::summary_json(analysis),
          exporter::export_paraver(analysis)};
}

TEST(FormatEquivalence, ChunkSizesProduceByteIdenticalAnalysis) {
  const TraceModel original = synthetic_trace();
  ASSERT_EQ(original.validate(), "");

  // Store the identical trace with three chunkings: one record per chunk,
  // many small chunks, and the writer's default (a single chunk here).
  std::vector<std::string> paths;
  for (const std::size_t chunk_records : {std::size_t{1}, std::size_t{64}, std::size_t{8192}}) {
    const std::string path = ::testing::TempDir() + "/fmt_chunk" +
                             std::to_string(chunk_records) + "_" +
                             std::to_string(::getpid()) + ".osnt";
    OsntStreamWriter writer(path, chunk_records);
    original.for_each_merged([&writer](const tracebuf::EventRecord& rec) { writer.append(rec); });
    ASSERT_TRUE(writer.finish(original.meta(), original.tasks()));
    paths.push_back(path);
  }

  // Reference: analysis straight off the in-memory model, serial.
  noise::AnalysisOptions serial;
  serial.jobs = 1;
  const noise::NoiseAnalysis reference(original, serial);
  const Artifacts expected = artifacts_of(reference);
  EXPECT_FALSE(expected.csv.empty());
  EXPECT_FALSE(expected.json.empty());
  EXPECT_FALSE(expected.paraver.prv.empty());

  ThreadPool pool(4);
  for (const std::string& path : paths) {
    const TraceModel decoded = OsntReader(path).read_all(&pool);
    EXPECT_EQ(decoded, original) << path;

    // The decoded model, analysed serially and in parallel.
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      noise::AnalysisOptions opts;
      opts.jobs = jobs;
      const noise::NoiseAnalysis analysis(decoded, opts);
      const Artifacts got = artifacts_of(analysis);
      EXPECT_EQ(got.csv, expected.csv) << path << " jobs=" << jobs;
      EXPECT_EQ(got.json, expected.json) << path << " jobs=" << jobs;
      EXPECT_EQ(got.paraver.prv, expected.paraver.prv) << path << " jobs=" << jobs;
      EXPECT_EQ(got.paraver.pcf, expected.paraver.pcf) << path << " jobs=" << jobs;
      EXPECT_EQ(got.paraver.row, expected.paraver.row) << path << " jobs=" << jobs;
    }
  }
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace osn::trace
