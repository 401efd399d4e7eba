// TraceCatalog: directory scanning, probe metadata, stat-based invalidation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "serve/catalog.hpp"
#include "serve_helpers.hpp"

namespace osn::serve {
namespace {

using serve::testing::TempDir;
using serve::testing::make_model;
using serve::testing::write_trace;

TEST(Catalog, ListsTracesWithMetadata) {
  TempDir dir("catalog_list");
  const trace::TraceModel model = make_model();
  write_trace(model, dir.path(), "alpha");
  write_trace(model, dir.path(), "beta");
  // Non-.osnt files are ignored.
  std::ofstream(dir.path() + "/README.txt") << "not a trace\n";

  TraceCatalog catalog(dir.path());
  const auto entries = catalog.list();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "alpha");
  EXPECT_EQ(entries[1].name, "beta");
  for (const auto& e : entries) {
    EXPECT_TRUE(e.usable());
    EXPECT_EQ(e.workload, "test");
    EXPECT_EQ(e.n_cpus, 2u);
    EXPECT_EQ(e.records, model.total_events());
    EXPECT_GT(e.chunks, 1u);
  }
}

TEST(Catalog, UnreadableFileIsListedWithError) {
  TempDir dir("catalog_bad");
  std::ofstream(dir.path() + "/junk.osnt") << "this is not OSNT at all";
  TraceCatalog catalog(dir.path());
  const auto entries = catalog.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(entries[0].usable());
  EXPECT_FALSE(entries[0].error.empty());
  EXPECT_EQ(catalog.open("junk").reader, nullptr);
}

TEST(Catalog, OpenLeasesSharedReader) {
  TempDir dir("catalog_open");
  write_trace(make_model(), dir.path(), "t");
  TraceCatalog catalog(dir.path());
  const Lease a = catalog.open("t");
  const Lease b = catalog.open("t");
  ASSERT_NE(a.reader, nullptr);
  EXPECT_EQ(a.reader.get(), b.reader.get());  // same probe, shared reader
  EXPECT_EQ(a.entry.id(), b.entry.id());
  EXPECT_EQ(catalog.open("nonexistent").reader, nullptr);
  // Path escapes are refused, not resolved.
  EXPECT_EQ(catalog.open("../t").reader, nullptr);
}

TEST(Catalog, RefreshPicksUpNewAndRemovedFiles) {
  TempDir dir("catalog_refresh");
  write_trace(make_model(), dir.path(), "first");
  TraceCatalog catalog(dir.path());
  ASSERT_EQ(catalog.list().size(), 1u);

  write_trace(make_model(), dir.path(), "second");
  catalog.refresh();
  EXPECT_EQ(catalog.list().size(), 2u);

  std::remove((dir.path() + "/first.osnt").c_str());
  catalog.refresh();
  const auto entries = catalog.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "second");
}

TEST(Catalog, RewrittenFileGetsNewIdentity) {
  TempDir dir("catalog_rewrite");
  write_trace(make_model(100), dir.path(), "t");
  TraceCatalog catalog(dir.path());
  const Lease before = catalog.open("t");
  ASSERT_NE(before.reader, nullptr);

  // Rewrite with different content (different size => stamp must change even
  // if the mtime granularity is coarse).
  write_trace(make_model(150), dir.path(), "t");
  const Lease after = catalog.open("t");
  ASSERT_NE(after.reader, nullptr);
  EXPECT_NE(after.entry.id(), before.entry.id());
  EXPECT_NE(after.reader.get(), before.reader.get());
  // The old lease still works: its reader outlives the catalog slot.
  EXPECT_EQ(before.reader->read_all().total_events(), make_model(100).total_events());
}

}  // namespace
}  // namespace osn::serve
