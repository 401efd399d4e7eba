#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn::trace {
namespace {

using osn::testing::decode_window;
using osn::testing::osnt_bytes;
using osn::testing::TraceBuilder;

// Varint round-trips across the full value spectrum.
class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, EncodesAndDecodes) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, GetParam());
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(buf, pos), GetParam());
  EXPECT_EQ(pos, buf.size());
}

INSTANTIATE_TEST_SUITE_P(Values, VarintRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 129ULL,
                                           16383ULL, 16384ULL, (1ULL << 32) - 1,
                                           1ULL << 32, ~0ULL));

TEST(Varint, CompactForSmallValues) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 100);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 1000);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(Varint, SequencesConcatenate) {
  std::vector<std::uint8_t> buf;
  for (std::uint64_t v = 0; v < 1000; v += 13) put_varint(buf, v * v);
  std::size_t pos = 0;
  for (std::uint64_t v = 0; v < 1000; v += 13) EXPECT_EQ(get_varint(buf, pos), v * v);
  EXPECT_EQ(pos, buf.size());
}

// Malformed input is an input condition, not a programming error: the reader
// throws a structured TraceReadError (with the byte offset) instead of
// asserting, so tools can fail cleanly.
TEST(Varint, TruncatedInputThrows) {
  std::vector<std::uint8_t> buf{0x80};  // continuation bit set, no next byte
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(buf, pos), TraceReadError);
}

TEST(Varint, OverlongEncodingThrows) {
  std::vector<std::uint8_t> buf(11, 0x80);  // 11 continuation bytes > 64 bits
  std::size_t pos = 0;
  try {
    get_varint(buf, pos);
    FAIL() << "expected TraceReadError";
  } catch (const TraceReadError& e) {
    EXPECT_NE(std::string(e.what()).find("varint"), std::string::npos);
  }
}

TraceModel sample_trace() {
  TraceBuilder b(2);
  b.task(1, "rank0", true).task(9, "rpciod", false, true);
  b.pair(0, 100, 2'278, 1, EventType::kIrqEntry, 0);
  b.pair(0, 2'278, 4'120, 1, EventType::kSoftirqEntry, 1);
  b.ev(1, 50, 9, EventType::kSchedWakeup, 1);
  b.pair(1, 1'000'000, 1'002'913, 1, EventType::kPageFaultEntry, 0);
  return b.build(2'000'000);
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const TraceModel original = sample_trace();
  const TraceModel restored = OsntReader(osnt_bytes(original)).read_all();
  EXPECT_EQ(original, restored);
}

TEST(TraceIo, RoundTripEmptyTrace) {
  const TraceModel original = TraceBuilder(4).build(1);
  EXPECT_EQ(OsntReader(osnt_bytes(original)).read_all(), original);
}

TEST(TraceIo, DeltaEncodingIsCompact) {
  // 1000 events with small inter-arrival gaps: ~few bytes per event.
  TraceBuilder b(1);
  for (TimeNs i = 0; i < 1000; ++i)
    b.ev(0, i * 100, 1, EventType::kSchedWakeup, 1);
  const auto bytes = osnt_bytes(b.build(200'000));
  EXPECT_LT(bytes.size(), 1000u * 8u);
}

TEST(TraceIo, BadMagicThrows) {
  std::vector<std::uint8_t> junk{1, 2, 3, 4, 5, 6, 7, 8};
  try {
    OsntReader reader(std::move(junk));
    FAIL() << "expected TraceReadError";
  } catch (const TraceReadError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

// Bytes after the trailer hide it: the reader cannot locate the index from
// EOF, so it rebuilds it by a forward scan, salvages every record and says
// so — the file is not reported clean.
TEST(TraceIo, TrailingBytesForceIndexRecovery) {
  const TraceModel original = sample_trace();
  auto bytes = osnt_bytes(original, /*chunk_records=*/2);
  bytes.push_back(0);
  OsntReader reader(std::move(bytes));
  EXPECT_TRUE(reader.index_recovered());
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.read_all(), original);
  EXPECT_FALSE(reader.verify().clean());
}

// Only version 3 is read. The unindexed layouts of earlier builds (v1 whole
// trace, v2 chunk stream) fail cleanly on every backend: buffer, mmap and
// pread.
TEST(TraceIo, UnindexedVersionsAreRejected) {
  const auto v3 = osnt_bytes(sample_trace());
  for (const std::uint8_t version : {std::uint8_t{1}, std::uint8_t{2}}) {
    auto bytes = v3;
    bytes[5] = version;  // the version varint follows the 5-byte magic varint
    const std::vector<std::uint8_t> header_only(bytes.begin(), bytes.begin() + 6);
    const std::string path = ::testing::TempDir() + "/osn_io_v" +
                             std::to_string(version) + "_" +
                             std::to_string(::getpid()) + ".osnt";
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
      std::fclose(f);
    }
    const auto expect_rejected = [&](auto&& open, const char* how) {
      try {
        open();
        ADD_FAILURE() << "v" << int{version} << " accepted by " << how;
      } catch (const TraceReadError& e) {
        EXPECT_EQ(std::string(e.what()), "unsupported OSNT version (byte 6)") << how;
      }
    };
    expect_rejected([&] { OsntReader r(bytes); }, "owned buffer");
    expect_rejected([&] { OsntReader r(bytes.data(), bytes.size()); }, "borrowed buffer");
    expect_rejected([&] { OsntReader r(header_only); }, "header-only buffer");
    expect_rejected([&] { OsntReader r(path, OsntReader::IoMode::kAuto); }, "mmap");
    expect_rejected([&] { OsntReader r(path, OsntReader::IoMode::kPread); }, "pread");
    expect_rejected([&] { (void)read_trace_file(path); }, "read_trace_file");
    std::remove(path.c_str());
  }
}

TEST(TraceIo, FileRoundTrip) {
  const TraceModel original = sample_trace();
  const std::string path = ::testing::TempDir() + "/osn_io_test.osnt";
  ASSERT_TRUE(write_trace_file(original, path));
  const TraceModel restored = read_trace_file(path);
  EXPECT_EQ(original, restored);
  std::remove(path.c_str());
}

TEST(TraceIo, UnreadableFileThrows) {
  try {
    read_trace_file("/nonexistent/dir/file.osnt");
    FAIL() << "expected TraceReadError";
  } catch (const TraceReadError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

// Streaming the merged record sequence through the writer in many small
// chunks must reconstruct the exact TraceModel.
TEST(TraceIo, StreamWriterRoundTripMatchesModel) {
  const TraceModel original = sample_trace();
  const std::string path = ::testing::TempDir() + "/osn_io_stream.osnt";
  {
    OsntStreamWriter writer(path, /*chunk_records=*/4);  // force many chunks
    ASSERT_TRUE(writer.ok());
    for (const auto& rec : original.merged()) writer.append(rec);
    EXPECT_EQ(writer.records_written(), original.total_events());
    ASSERT_TRUE(writer.finish(original.meta(), original.tasks()));
    ASSERT_TRUE(writer.finish(original.meta(), original.tasks()));  // idempotent
  }
  const TraceModel restored = read_trace_file(path);
  EXPECT_EQ(restored, original);
  std::remove(path.c_str());
}

TEST(TraceIo, StreamWriterPersistsDrainStats) {
  TraceModel original = sample_trace();
  TraceMeta meta = original.meta();
  meta.drain.records = 7;
  meta.drain.batches = 3;
  meta.drain.max_batch = 4;
  meta.drain.lost = 1;
  meta.drain.overwritten = 2;
  meta.drain.producer_stalls = 5;
  const std::string path = ::testing::TempDir() + "/osn_io_drain.osnt";
  OsntStreamWriter writer(path);
  ASSERT_TRUE(writer.ok());
  for (const auto& rec : original.merged()) writer.append(rec);
  ASSERT_TRUE(writer.finish(meta, original.tasks()));
  const TraceModel restored = read_trace_file(path);
  EXPECT_EQ(restored.meta().drain, meta.drain);
  std::remove(path.c_str());
}

TEST(TraceIo, StreamWriterEmptyTrace) {
  const TraceModel original = TraceBuilder(4).build(1);
  const std::string path = ::testing::TempDir() + "/osn_io_empty.osnt";
  OsntStreamWriter writer(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.finish(original.meta(), original.tasks()));
  EXPECT_EQ(read_trace_file(path), original);
  std::remove(path.c_str());
}

// The stream writer produces a chunk-indexed file: every chunk is in the
// footer index with its time range, and the indexed record count matches
// what was written.
TEST(TraceIo, StreamWriterV3WritesChunkIndex) {
  const TraceModel original = sample_trace();
  const std::string path = ::testing::TempDir() + "/osn_io_v3_index.osnt";
  {
    OsntStreamWriter writer(path, /*chunk_records=*/2);
    for (const auto& rec : original.merged()) writer.append(rec);
    ASSERT_TRUE(writer.finish(original.meta(), original.tasks()));
  }
  OsntReader reader(path);
  EXPECT_FALSE(reader.truncated());
  EXPECT_FALSE(reader.index_recovered());
  ASSERT_EQ(reader.chunks().size(), (original.total_events() + 1) / 2);
  EXPECT_EQ(reader.indexed_records(), original.total_events());
  TimeNs prev_last = 0;
  for (const ChunkInfo& c : reader.chunks()) {
    EXPECT_GE(c.t_first, prev_last);  // chunks slice the merged order
    EXPECT_LE(c.t_first, c.t_last);
    EXPECT_GT(c.records, 0u);
    prev_last = c.t_last;
  }
  EXPECT_EQ(reader.read_all(), original);
  std::remove(path.c_str());
}

// Regression (writer crash-consistency): a writer destroyed without
// finish() — consumer daemon killed mid-run — must leave a file the reader
// opens, flags as truncated, and salvages every appended record from,
// including the partially filled final chunk.
TEST(TraceIo, StreamWriterDestructorWritesTruncationSentinel) {
  const TraceModel original = sample_trace();
  const auto merged = original.merged();
  const std::string path = ::testing::TempDir() + "/osn_io_trunc.osnt";
  {
    OsntStreamWriter writer(path, /*chunk_records=*/4);
    for (const auto& rec : merged) writer.append(rec);
    // No finish(): the destructor flushes the open chunk and writes a
    // best-effort index + "truncated" trailer.
  }
  OsntReader reader(path);
  EXPECT_TRUE(reader.truncated());
  EXPECT_FALSE(reader.index_recovered());
  EXPECT_EQ(reader.indexed_records(), merged.size());
  EXPECT_EQ(reader.meta().workload, "(truncated)");  // no footer to read
  EXPECT_EQ(reader.meta().n_cpus, 2u);               // recovered from cpu masks

  const TraceModel salvaged = reader.read_all();
  EXPECT_EQ(salvaged.merged(), merged);  // every record recovered
  EXPECT_TRUE(salvaged.tasks().empty());

  // verify() reports the truncation but no corruption.
  OsntReader verifier(path);
  const VerifyReport report = verifier.verify();
  EXPECT_TRUE(report.truncated);
  EXPECT_TRUE(report.intact());
  EXPECT_FALSE(report.clean());
  std::remove(path.c_str());
}

// The longest record the format can hold: every field at its type's maximum
// (cpu u16 = 3 bytes, a first-in-chunk delta of u64 max = 10, pid u32 = 5,
// event u16 = 3, arg u64 = 10) encodes in exactly 31 payload bytes, the
// bound of the writer's one-append encode, and decodes back unchanged.
TEST(TraceIo, WorstCaseRecordEncodesIn31BytesAndRoundTrips) {
  tracebuf::EventRecord worst;
  worst.timestamp = std::numeric_limits<TimeNs>::max();
  worst.cpu = std::numeric_limits<std::uint16_t>::max();
  worst.pid = std::numeric_limits<std::uint32_t>::max();
  worst.event = std::numeric_limits<std::uint16_t>::max();
  worst.arg = std::numeric_limits<std::uint64_t>::max();
  tracebuf::EventRecord small = trace::make_record(5, 0, 1, EventType::kSchedWakeup, 1);

  // A cpu id of 65535 exceeds every footer's u16 cpu count, so only a file
  // without a footer (the writer's truncation sentinel) can carry it.
  const std::string path = ::testing::TempDir() + "/osn_io_worst.osnt";
  {
    OsntStreamWriter writer(path, /*chunk_records=*/1);
    writer.append(small);
    writer.append(worst);
  }
  OsntReader reader(path);
  ASSERT_EQ(reader.chunks().size(), 2u);
  EXPECT_EQ(reader.chunks()[1].payload_len, 31u);
  std::vector<tracebuf::EventRecord> back;
  reader.for_each([&back](const tracebuf::EventRecord& rec) { back.push_back(rec); });
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], small);
  EXPECT_EQ(back[1], worst);
  std::remove(path.c_str());

  // The largest cpu an intact file can carry, through the model path too.
  worst.cpu = std::numeric_limits<std::uint16_t>::max() - 1;
  TraceMeta meta;
  meta.n_cpus = std::numeric_limits<std::uint16_t>::max();
  meta.start_ns = 0;
  meta.end_ns = worst.timestamp;
  {
    OsntStreamWriter writer(path, /*chunk_records=*/1);
    writer.append(small);
    writer.append(worst);
    ASSERT_TRUE(writer.finish(meta, {}));
  }
  OsntReader intact(path);
  ASSERT_FALSE(intact.truncated());
  EXPECT_EQ(intact.chunks()[1].payload_len, 31u);
  const TraceModel model = intact.read_all();
  EXPECT_EQ(model.merged(), (std::vector<tracebuf::EventRecord>{small, worst}));
  std::remove(path.c_str());
}

// An empty truncated file (killed before any chunk flushed) is still valid.
TEST(TraceIo, StreamWriterDestructorEmptyTruncated) {
  const std::string path = ::testing::TempDir() + "/osn_io_trunc_empty.osnt";
  { OsntStreamWriter writer(path); }
  OsntReader reader(path);
  EXPECT_TRUE(reader.truncated());
  EXPECT_EQ(reader.indexed_records(), 0u);
  EXPECT_EQ(reader.read_all().total_events(), 0u);
  std::remove(path.c_str());
}

// The reader's three I/O backends (mmap, positioned pread, in-memory buffer)
// must be observationally identical: same metadata, same records, same window
// slices, same verify verdicts. Only the access mechanism may differ.
TEST(TraceIo, MmapAndPreadBackendsAreEquivalent) {
  const TraceModel original = sample_trace();
  const std::string path = ::testing::TempDir() + "/osn_io_backends.osnt";
  {
    OsntStreamWriter writer(path, /*chunk_records=*/2);
    for (const auto& rec : original.merged()) writer.append(rec);
    ASSERT_TRUE(writer.finish(original.meta(), original.tasks()));
  }

  OsntReader mapped(path, OsntReader::IoMode::kAuto);
  OsntReader preading(path, OsntReader::IoMode::kPread);
  // kAuto maps regular files; kPread must never map.
  EXPECT_EQ(mapped.io_backend(), OsntReader::IoBackend::kMmap);
  EXPECT_EQ(preading.io_backend(), OsntReader::IoBackend::kPread);

  EXPECT_EQ(mapped.read_all(), original);
  EXPECT_EQ(preading.read_all(), original);
  EXPECT_EQ(mapped.meta(), preading.meta());
  ASSERT_EQ(mapped.chunks().size(), preading.chunks().size());

  // Window reads exercise the per-chunk view path (header reparse + CRC).
  const TimeNs mid = original.meta().end_ns / 2;
  EXPECT_EQ(decode_window(mapped, 0, mid), decode_window(preading, 0, mid));
  EXPECT_EQ(decode_window(mapped, mid, original.meta().end_ns + 1),
            decode_window(preading, mid, original.meta().end_ns + 1));

  EXPECT_TRUE(mapped.verify().clean());
  EXPECT_TRUE(preading.verify().clean());
  std::remove(path.c_str());
}

// Buffer-backed construction — owned bytes or a borrowed span — reports the
// kBuffer backend and reads identically to the file-backed paths.
TEST(TraceIo, BufferAndBorrowedBackendsAreEquivalent) {
  const TraceModel original = sample_trace();
  std::vector<std::uint8_t> bytes = osnt_bytes(original, /*chunk_records=*/2);

  OsntReader borrowed(bytes.data(), bytes.size());
  EXPECT_EQ(borrowed.io_backend(), OsntReader::IoBackend::kBuffer);
  EXPECT_EQ(borrowed.read_all(), original);

  OsntReader owned(std::move(bytes));
  EXPECT_EQ(owned.io_backend(), OsntReader::IoBackend::kBuffer);
  EXPECT_EQ(owned.read_all(), original);
  EXPECT_TRUE(owned.verify().clean());
}

// ---------------------------------------------------------------------------
// Rotation correctness: the monitoring daemon's segment store seals one
// writer and opens the next mid-stream. These tests pin the writer-level
// contract that makes that safe, independent of the store itself.
// ---------------------------------------------------------------------------

// A finish()-then-reopen sequence: the stream split across consecutive
// writers yields fully sealed files (footer + index present, NOT the
// truncation sentinel) whose record concatenation is the original stream.
TEST(TraceIo, StreamWriterRotationSequenceSealsEachFile) {
  const TraceModel original = sample_trace();
  const auto merged = original.merged();
  static constexpr TimeNs kCut = 5'000;  // between the early pairs and the late one

  std::vector<std::string> paths{::testing::TempDir() + "/osn_io_rot1.osnt",
                                 ::testing::TempDir() + "/osn_io_rot2.osnt"};
  for (int seg = 0; seg < 2; ++seg) {
    OsntStreamWriter writer(paths[static_cast<std::size_t>(seg)], /*chunk_records=*/2);
    std::uint64_t prev_bytes = 0;
    for (const auto& rec : merged) {
      if ((seg == 0) != (rec.timestamp < kCut)) continue;
      writer.append(rec);
      EXPECT_GE(writer.bytes_written(), prev_bytes);  // monotonic during a segment
      prev_bytes = writer.bytes_written();
    }
    TraceMeta meta = original.meta();
    meta.start_ns = seg == 0 ? original.meta().start_ns : kCut;
    meta.end_ns = seg == 0 ? kCut : original.meta().end_ns;
    ASSERT_TRUE(writer.finish(meta, original.tasks()));
    // After finish, bytes_written() is the exact on-disk size.
    std::FILE* f = std::fopen(paths[static_cast<std::size_t>(seg)].c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    EXPECT_EQ(writer.bytes_written(), static_cast<std::uint64_t>(std::ftell(f)));
    std::fclose(f);
  }

  std::vector<tracebuf::EventRecord> rejoined;
  for (const std::string& path : paths) {
    OsntReader reader(path);
    EXPECT_FALSE(reader.truncated());  // sealed, not salvaged
    EXPECT_FALSE(reader.index_recovered());
    EXPECT_EQ(reader.tasks(), original.tasks());  // footer intact per segment
    EXPECT_TRUE(reader.verify().clean());
    const auto part = reader.read_all().merged();
    rejoined.insert(rejoined.end(), part.begin(), part.end());
    std::remove(path.c_str());
  }
  EXPECT_EQ(rejoined, merged);
}

// Crash mid-rotation: the previous segment was sealed and renamed into
// place, the next one died as a half-written `.part`. The sealed file must
// stay pristine and the `.part` must salvage through the truncation path.
TEST(TraceIo, StreamWriterCrashMidRotationLeavesSealedSegmentPristine) {
  const TraceModel original = sample_trace();
  const auto merged = original.merged();
  static constexpr TimeNs kCut = 5'000;
  const std::string sealed = ::testing::TempDir() + "/osn_io_crash_seg1.osnt";
  const std::string part = ::testing::TempDir() + "/osn_io_crash_seg2.osnt.part";

  std::vector<tracebuf::EventRecord> first, second;
  for (const auto& rec : merged)
    (rec.timestamp < kCut ? first : second).push_back(rec);

  {
    OsntStreamWriter writer(sealed, /*chunk_records=*/2);
    for (const auto& rec : first) writer.append(rec);
    TraceMeta meta = original.meta();
    meta.end_ns = kCut;
    ASSERT_TRUE(writer.finish(meta, original.tasks()));
  }
  {
    OsntStreamWriter writer(part, /*chunk_records=*/2);
    for (const auto& rec : second) writer.append(rec);
    // "Crash": destroyed without finish().
  }

  OsntReader ok(sealed);
  EXPECT_FALSE(ok.truncated());
  EXPECT_TRUE(ok.verify().clean());
  EXPECT_EQ(ok.read_all().merged(), first);

  OsntReader salvage(part);
  EXPECT_TRUE(salvage.truncated());
  EXPECT_EQ(salvage.read_all().merged(), second);  // every record recoverable
  EXPECT_TRUE(salvage.verify().intact());

  std::remove(sealed.c_str());
  std::remove(part.c_str());
}

/// Stub aggregator with a fixed tail: what the store's compaction uses to
/// persist a merged aggregate without replaying records.
class FixedTailAggregator final : public ChunkAggregator {
 public:
  explicit FixedTailAggregator(ChunkAggregate tail) : tail_(std::move(tail)) {}
  void on_record(const tracebuf::EventRecord&) override {}
  ChunkAggregate take_chunk() override { return {}; }
  std::optional<ChunkAggregate> take_tail(const TraceMeta&) override {
    return std::move(tail_);
  }

 private:
  ChunkAggregate tail_;
};

// A zero-record file whose whole payload is one aggregate blob — the
// compacted "summary segment" shape — round-trips: no chunks, no records,
// index_summary() present with the exact tail.
TEST(TraceIo, ZeroRecordAggregateOnlyFileRoundTrips) {
  ChunkAggregate tail;
  tail.classes.push_back({3, {2, 4'000, 3'000, 1'000}});
  tail.preempt.push_back({7, {1, 500, 500, 500}, 1, 500});
  tail.noise.push_back({7, 2, 5, 12'345});
  tail.cpu_events.push_back({0, 40});
  tail.cpu_events.push_back({1, 2});

  const TraceModel original = sample_trace();
  const std::string path = ::testing::TempDir() + "/osn_io_aggonly.osnt";
  {
    OsntStreamWriter writer(path, /*chunk_records=*/64);
    writer.set_aggregator(std::make_unique<FixedTailAggregator>(tail));
    ASSERT_TRUE(writer.finish(original.meta(), original.tasks()));
  }
  OsntReader reader(path);
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.indexed_records(), 0u);
  EXPECT_TRUE(reader.chunks().empty());
  EXPECT_EQ(reader.meta(), original.meta());
  ASSERT_TRUE(reader.index_summary().has_value());
  EXPECT_TRUE(reader.index_summary()->chunks.empty());
  EXPECT_EQ(reader.index_summary()->tail, tail);
  std::remove(path.c_str());
}

TEST(TraceIo, StreamWriterRejectsNonMonotonicPerCpu) {
  const std::string path = ::testing::TempDir() + "/osn_io_mono.osnt";
  OsntStreamWriter writer(path);
  tracebuf::EventRecord a;
  a.timestamp = 100;
  a.cpu = 0;
  writer.append(a);
  tracebuf::EventRecord b = a;
  b.timestamp = 50;
  EXPECT_DEATH(writer.append(b), "not time-ordered");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace osn::trace
