// Concurrent OsntReader access: many threads, one reader, one file.
//
// The query server shares one OsntReader per catalog entry across all its
// workers, so read_all / read_chunks / verify must be callable concurrently
// and return exactly what a single-threaded caller would get. Chunk decoding
// is lock-free (mapping or pread + immutable index); the metadata refinement
// of truncated files serializes internally — both contracts are exercised
// here, with results compared as whole TraceModels.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn::trace {
namespace {

using osn::testing::TraceBuilder;
using osn::testing::decode_window;

TraceModel interesting_model() {
  TraceBuilder b(2);
  b.task(1, "rank0", true).task(2, "rank1", true).task(7, "events/0", false, true);
  for (TimeNs t = 0; t < 400; ++t) {
    b.pair(0, 1'000 + t * 5'000, 1'800 + t * 5'000, 1, EventType::kIrqEntry, 0);
    b.pair(1, 3'000 + t * 5'000, 3'600 + t * 5'000, 2, EventType::kPageFaultEntry, 0);
  }
  return b.build(ms(3));
}

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "osnt_concurrent_" + tag + "_" +
         std::to_string(::getpid()) + ".osnt";
}

/// Writes `model` in 64-record chunks; `finish` false leaves the truncation
/// sentinel of a writer that died before finish().
void write_v3(const TraceModel& model, const std::string& path, bool finish = true) {
  OsntStreamWriter writer(path, /*chunk_records=*/64);
  for (const auto& rec : model.merged()) writer.append(rec);
  if (finish) {
    ASSERT_TRUE(writer.finish(model.meta(), model.tasks()));
  }
}

TEST(ReaderConcurrent, ParallelReadAllMatchesSerial) {
  const TraceModel original = interesting_model();
  const std::string path = temp_path("v3_all");
  write_v3(original, path);

  OsntReader reader(path);
  const TraceModel expected = reader.read_all();
  EXPECT_EQ(expected, original);

  constexpr std::size_t kThreads = 8;
  std::vector<std::optional<TraceModel>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] { got[i] = reader.read_all(); });
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kThreads; ++i) EXPECT_EQ(got[i], expected) << "thread " << i;
  std::remove(path.c_str());
}

TEST(ReaderConcurrent, MixedWindowAndFullReads) {
  const TraceModel original = interesting_model();
  const std::string path = temp_path("v3_mixed");
  write_v3(original, path);

  OsntReader reader(path);
  const TraceModel expect_all = reader.read_all();
  const TraceModel expect_win = decode_window(reader, ms(1), ms(2));

  constexpr std::size_t kThreads = 8;
  std::vector<std::optional<TraceModel>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Even threads decode the full trace, odd threads a window; both also
      // run verify() to stress the shared index paths.
      got[i] = i % 2 == 0 ? reader.read_all() : decode_window(reader, ms(1), ms(2));
      EXPECT_TRUE(reader.verify().intact());
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kThreads; ++i)
    EXPECT_EQ(got[i], i % 2 == 0 ? expect_all : expect_win) << "thread " << i;
  std::remove(path.c_str());
}

TEST(ReaderConcurrent, TruncatedMetaRefinementIsSafe) {
  // A truncated file has no footer: every full or chunk-range read refines
  // the synthesized meta (cpu count, end time) under the reader's mutex while
  // other threads snapshot it.
  const TraceModel original = interesting_model();
  const std::string path = temp_path("truncated");
  write_v3(original, path, /*finish=*/false);

  const TraceModel expected = OsntReader(path).read_all();
  EXPECT_EQ(expected.merged(), original.merged());  // every record salvaged

  OsntReader reader(path);
  ASSERT_TRUE(reader.truncated());
  constexpr std::size_t kThreads = 6;
  std::vector<std::optional<TraceModel>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      got[i] = i % 2 == 0 ? reader.read_all() : decode_window(reader, 0, kTimeInfinity);
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kThreads; ++i) EXPECT_EQ(got[i], expected) << "thread " << i;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace osn::trace
