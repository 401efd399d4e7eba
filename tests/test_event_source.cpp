// Reading a trace: OsntReader is the one file reader, and
// TraceModel::for_each_merged replays an in-memory model. Both must deliver
// the identical trace (same model, same merged order, same windows), and the
// parallel and indexed reads must be bit-identical to the serial ones at any
// worker count.
//
// The suite name EventSource is kept so its test ids stay stable.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "noise/streaming.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn::trace {
namespace {

using osn::testing::TraceBuilder;

TraceModel sample_trace() {
  TraceBuilder b(4);
  b.task(1, "rank0", true).task(2, "rank1", true).task(9, "events/0", false, true);
  TimeNs t = 100;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const CpuId cpu = static_cast<CpuId>(i % 4);
    const Pid pid = static_cast<Pid>(1 + i % 2);
    b.pair(cpu, t, t + 300, pid, EventType::kIrqEntry, 0);
    b.pair(cpu, t + 400, t + 650, pid, EventType::kSoftirqEntry, 1);
    if (i % 7 == 0) b.ev(cpu, t + 700, 9, EventType::kSchedWakeup, 1);
    t += 900 + 11 * (i % 5);
  }
  return b.build(t + 500);
}

std::string write_temp(const TraceModel& model, const std::string& name,
                       std::size_t chunk_records = 32) {
  const std::string path = ::testing::TempDir() + "/" + name;
  OsntStreamWriter writer(path, chunk_records);
  model.for_each_merged([&writer](const tracebuf::EventRecord& rec) { writer.append(rec); });
  EXPECT_TRUE(writer.finish(model.meta(), model.tasks()));
  return path;
}

// The file reader materializes the written model, serial and pooled.
TEST(EventSource, AllSourcesYieldIdenticalModels) {
  const TraceModel original = sample_trace();
  const std::string path = write_temp(original, "es_all.osnt");

  OsntReader reader(path);
  EXPECT_EQ(reader.read_all(), original);
  ThreadPool pool(2);
  EXPECT_EQ(reader.read_all(&pool), original);
  EXPECT_EQ(reader.meta(), original.meta());
  EXPECT_EQ(reader.tasks(), original.tasks());
  std::remove(path.c_str());
}

// The file reader's for_each and the model's for_each_merged both deliver
// the global merged order.
TEST(EventSource, ForEachDeliversMergedOrder) {
  const TraceModel original = sample_trace();
  const auto merged = original.merged();
  const std::string v3 = write_temp(original, "es_fe.osnt");

  std::vector<tracebuf::EventRecord> replayed;
  original.for_each_merged([&replayed](const tracebuf::EventRecord& r) { replayed.push_back(r); });
  EXPECT_EQ(replayed, merged);
  std::vector<tracebuf::EventRecord> read;
  OsntReader(v3).for_each([&read](const tracebuf::EventRecord& r) { read.push_back(r); });
  EXPECT_EQ(read, merged);
  std::remove(v3.c_str());
}

// The v3 parallel decode is bit-identical to the serial one at any jobs
// count — the reader-side half of the determinism contract.
TEST(EventSource, ParallelDecodeIsDeterministic) {
  const TraceModel original = sample_trace();
  const std::string v3 = write_temp(original, "es_par.osnt", /*chunk_records=*/8);

  const TraceModel reference = OsntReader(v3).read_all(nullptr);
  EXPECT_EQ(reference, original);
  for (const std::size_t jobs : {2u, 8u}) {
    ThreadPool pool(jobs);
    OsntReader reader(v3);
    EXPECT_EQ(reader.read_all(&pool), reference) << jobs << " jobs";
  }
  std::remove(v3.c_str());
}

// read_chunks over a strict, mask-pruned subset (the query engine's cpu
// pushdown) is bit-identical at every worker count, keeps the pruned-for
// cpu's stream whole and holds exactly the selected chunks' records.
TEST(EventSource, ReadChunksPrunedSubsetIsDeterministic) {
  const TraceModel original = sample_trace();
  const std::string v3 = write_temp(original, "es_chunks.osnt", /*chunk_records=*/8);

  OsntReader reader(v3);
  std::vector<std::size_t> ids;
  std::uint64_t records = 0;
  for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
    if ((reader.chunks()[i].cpu_mask & (1u << 2)) == 0) continue;
    ids.push_back(i);
    records += reader.chunks()[i].records;
  }
  ASSERT_FALSE(ids.empty());
  ASSERT_LT(ids.size(), reader.chunks().size());

  const TraceModel reference = reader.read_chunks(ids);
  EXPECT_EQ(reference.meta(), original.meta());
  EXPECT_EQ(reference.cpu_events(2), original.cpu_events(2));
  EXPECT_EQ(reference.total_events(), records);
  for (const std::size_t jobs : {2u, 8u}) {
    ThreadPool pool(jobs);
    EXPECT_EQ(OsntReader(v3).read_chunks(ids, &pool), reference) << jobs << " jobs";
  }
  std::remove(v3.c_str());
}

// Windowed reads: the v3 index path (decode only overlapping chunks) equals
// clipping the whole model, serial and parallel, and the window edges repair
// cut entry/exit frames so the model still validates.
TEST(EventSource, WindowedReadMatchesGenericClip) {
  const TraceModel original = sample_trace();
  const std::string v3 = write_temp(original, "es_win.osnt", /*chunk_records=*/8);

  const TimeNs mid = original.meta().end_ns / 2;
  const std::vector<std::pair<TimeNs, TimeNs>> windows = {
      {0, original.meta().end_ns},       // everything
      {mid / 2, mid},                    // interior slice
      {305, 60'000},                     // cuts through open frames
      {original.meta().end_ns, original.meta().end_ns + 1000},  // past the end
  };
  ThreadPool pool(4);
  for (const auto& [t0, t1] : windows) {
    const TraceModel expected = window_of(original, t0, t1);
    EXPECT_EQ(expected.validate(), "") << t0 << ":" << t1;

    OsntReader reader(v3);
    EXPECT_EQ(reader.read_window(t0, t1), expected) << t0 << ":" << t1;
    EXPECT_EQ(reader.read_window(t0, t1, &pool), expected) << t0 << ":" << t1;
  }
  std::remove(v3.c_str());
}

// A window cutting through nested frames keeps pairing balanced: unmatched
// exits at the head and unclosed entries at the tail are dropped.
TEST(EventSource, WindowRepairsCutFrames) {
  TraceBuilder b(1);
  b.task(1, "rank0", true);
  // Events in per-CPU time order: a syscall spanning the window start, an
  // irq pair nested fully inside it, and a syscall spanning the window end.
  b.ev(0, 100, 1, EventType::kSyscallEntry, 0);
  b.ev(0, 2'000, 1, EventType::kIrqEntry, 0);
  b.ev(0, 3'000, 1, EventType::kIrqExit, 0);
  b.ev(0, 10'000, 1, EventType::kSyscallExit, 0);
  b.ev(0, 12'000, 1, EventType::kSyscallEntry, 1);
  b.ev(0, 30'000, 1, EventType::kSyscallExit, 1);
  const TraceModel model = b.build(40'000);

  const TraceModel window = window_of(model, 1'500, 15'000);
  EXPECT_EQ(window.validate(), "");
  // Kept: the inner irq pair + the syscall exit's partner was cut -> dropped;
  // the second syscall's entry is unclosed -> dropped.
  ASSERT_EQ(window.total_events(), 2u);
  EXPECT_EQ(window.cpu_events(0)[0].timestamp, 2'000u);
  EXPECT_EQ(window.cpu_events(0)[1].timestamp, 3'000u);
  EXPECT_EQ(window.meta().start_ns, 1'500u);
  EXPECT_EQ(window.meta().end_ns, 15'000u);
}

// The streaming analyzer produces the same accumulators whether the
// records come from the file reader or from an in-memory replay.
TEST(EventSource, StreamingStatsConsumesAnySource) {
  const TraceModel original = sample_trace();
  const std::string v3 = write_temp(original, "es_ss.osnt");

  noise::StreamingStats from_model;
  original.for_each_merged(
      [&from_model](const tracebuf::EventRecord& r) { from_model.consume(r); });

  noise::StreamingStats from_file;
  OsntReader reader(v3);
  reader.for_each([&from_file](const tracebuf::EventRecord& r) { from_file.consume(r); });

  EXPECT_EQ(from_model.consumed(), original.total_events());
  EXPECT_EQ(from_file.consumed(), original.total_events());
  EXPECT_EQ(from_model.open_frames(), 0u);
  EXPECT_EQ(from_file.open_frames(), 0u);
  const DurNs dur = original.duration();
  for (int k = 0; k < static_cast<int>(noise::ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<noise::ActivityKind>(k);
    const auto a = from_model.activity_stats(kind, dur, original.cpu_count());
    const auto b = from_file.activity_stats(kind, dur, original.cpu_count());
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.avg_ns, b.avg_ns);
    EXPECT_EQ(a.max_ns, b.max_ns);
    EXPECT_EQ(a.min_ns, b.min_ns);
  }
  std::remove(v3.c_str());
}

}  // namespace
}  // namespace osn::trace
