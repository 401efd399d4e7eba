// osn-lint rule battery: every rule gets positive fixtures (seeded
// violations the analyzer must catch) and negative fixtures (idiomatic code,
// suppressions, and the lexer edge cases — raw strings, multi-line comments,
// preprocessor continuations — that defeated the retired regex linter).
// The final test self-lints the repository tree and asserts it is clean.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/driver.hpp"

namespace lint = osn::lint;

namespace {

/// Lints one in-memory file with a single rule enabled.
std::vector<lint::Finding> lint_one(const std::string& path,
                                    const std::string& content,
                                    const std::string& rule) {
  lint::Options opt;
  opt.rules = {rule};
  const lint::RunResult res =
      lint::lint_sources({lint::SourceFile{path, content}}, opt);
  EXPECT_TRUE(res.errors.empty()) << (res.errors.empty() ? "" : res.errors[0]);
  return res.findings;
}

bool has(const std::vector<lint::Finding>& fs, const std::string& rule,
         int line) {
  return std::any_of(fs.begin(), fs.end(), [&](const lint::Finding& f) {
    return f.rule == rule && f.line == line;
  });
}

// ---------------------------------------------------------------------------
// bare-assert
// ---------------------------------------------------------------------------

TEST(BareAssert, FlagsAssertAndAbort) {
  const auto fs = lint_one("src/noise/x.cpp",
                           "void f(int x) {\n"
                           "  assert(x > 0);\n"
                           "  if (x < 0) std::abort();\n"
                           "}\n",
                           "bare-assert");
  EXPECT_TRUE(has(fs, "bare-assert", 2));
  EXPECT_TRUE(has(fs, "bare-assert", 3));
}

TEST(BareAssert, IgnoresProjectMacrosAndMembers) {
  const auto fs = lint_one("src/noise/x.cpp",
                           "void f(int x) {\n"
                           "  OSN_ASSERT(x > 0);\n"
                           "  OSN_DASSERT_MSG(x, \"m\");\n"
                           "  checker.assert(x);\n"
                           "  static_assert(sizeof(int) == 4);\n"
                           "}\n",
                           "bare-assert");
  EXPECT_TRUE(fs.empty());
}

TEST(BareAssert, IgnoresCommentsStringsAndRawStrings) {
  // Every construct here defeated line-regex linting at some point: the raw
  // string spans lines and contains `assert(`, as does the block comment.
  const auto fs = lint_one("src/noise/x.cpp",
                           "/* a block comment\n"
                           "   mentioning assert(x) spanning lines */\n"
                           "const char* kDoc = R\"doc(\n"
                           "  call assert(value) to crash\n"
                           ")doc\";\n"
                           "const char* kMsg = \"assert(1)\";\n",
                           "bare-assert");
  EXPECT_TRUE(fs.empty());
}

TEST(BareAssert, DigitSeparatorDoesNotOpenCharLiteral) {
  // `1'000'000` must not start a char literal that swallows the assert.
  const auto fs = lint_one("src/noise/x.cpp",
                           "int n = 1'000'000;\n"
                           "void f() { assert(n); }\n",
                           "bare-assert");
  EXPECT_TRUE(has(fs, "bare-assert", 2));
}

TEST(BareAssert, AllowSuppresses) {
  const auto fs = lint_one(
      "src/noise/x.cpp",
      "void f(int x) { assert(x); }  // osn-lint: allow(bare-assert) legacy\n",
      "bare-assert");
  EXPECT_TRUE(fs.empty());
}

TEST(BareAssert, MacroContinuationIsNotTokenized) {
  // Preprocessor logical lines (with `\` continuations) never reach the
  // token stream; macro bodies are the compiler's problem, not the linter's.
  const auto fs = lint_one("src/noise/x.cpp",
                           "#define CHECK_OR_DIE(x) \\\n"
                           "  assert(x)\n"
                           "void f() { OSN_ASSERT(1); }\n",
                           "bare-assert");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// decode-throw
// ---------------------------------------------------------------------------

TEST(DecodeThrow, FlagsAssertsInDecodePaths) {
  const auto fs = lint_one("src/trace/osnt_reader.cpp",
                           "void decode_header(Cursor& c) {\n"
                           "  OSN_ASSERT(c.size() >= 8);\n"
                           "}\n"
                           "void OsntReader::parse(Cursor& c) {\n"
                           "  OSN_ASSERT_MSG(c.ok(), \"bad\");\n"
                           "}\n",
                           "decode-throw");
  EXPECT_TRUE(has(fs, "decode-throw", 2));
  EXPECT_TRUE(has(fs, "decode-throw", 5));
}

TEST(DecodeThrow, WriterSideFunctionsAreExempt) {
  // Writer-side contracts are caller API preconditions, not decoded input.
  // The regex linter could not tell these apart and needed allow() comments.
  const auto fs = lint_one("src/trace/trace_io.cpp",
                           "OsntStreamWriter::OsntStreamWriter(int n) {\n"
                           "  OSN_ASSERT_MSG(n >= 1, \"chunk\");\n"
                           "}\n"
                           "void put_varint(Buf& b, std::uint64_t v) {\n"
                           "  OSN_ASSERT(v < kMax);\n"
                           "}\n"
                           "void OsntStreamWriter::write_bytes(int n) {\n"
                           "  OSN_ASSERT(n >= 0);\n"
                           "}\n",
                           "decode-throw");
  EXPECT_TRUE(fs.empty());
}

TEST(DecodeThrow, OtherFilesAreExempt) {
  const auto fs = lint_one("src/noise/classify.cpp",
                           "void f() { OSN_ASSERT(1); }\n", "decode-throw");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// unchecked-narrow
// ---------------------------------------------------------------------------

TEST(UncheckedNarrow, FlagsNarrowCastOfVarint) {
  const auto fs =
      lint_one("src/trace/trace_io.cpp",
               "void f(Cursor& c) {\n"
               "  auto a = static_cast<std::uint16_t>(get_varint(c));\n"
               "  auto b = static_cast<std::int32_t>(osnt::get_varint_u64(c));\n"
               "}\n",
               "unchecked-narrow");
  EXPECT_TRUE(has(fs, "unchecked-narrow", 2));
  EXPECT_TRUE(has(fs, "unchecked-narrow", 3));
}

TEST(UncheckedNarrow, WideCastsAndOtherOperandsPass) {
  const auto fs =
      lint_one("src/trace/trace_io.cpp",
               "void f(Cursor& c) {\n"
               "  auto a = static_cast<std::uint64_t>(get_varint(c));\n"
               "  auto b = static_cast<std::uint16_t>(c.flags());\n"
               "  auto d = trace::narrow<std::uint16_t>(get_varint(c));\n"
               "}\n",
               "unchecked-narrow");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// wallclock
// ---------------------------------------------------------------------------

TEST(Wallclock, FlagsWallClockReadsInHotPath) {
  const auto fs = lint_one("src/tracebuf/probe.hpp",
                           "auto now() { return std::chrono::system_clock::now(); }\n"
                           "long secs() { return time(NULL); }\n"
                           "void tv(struct timeval* t) { gettimeofday(t, nullptr); }\n",
                           "wallclock");
  EXPECT_TRUE(has(fs, "wallclock", 1));
  EXPECT_TRUE(has(fs, "wallclock", 2));
  EXPECT_TRUE(has(fs, "wallclock", 3));
}

TEST(Wallclock, MonotonicAndMembersPass) {
  const auto fs = lint_one("src/tracebuf/probe.hpp",
                           "auto now() { return std::chrono::steady_clock::now(); }\n"
                           "void f(Rec& r, int x) { r.time(x); }\n",
                           "wallclock");
  EXPECT_TRUE(fs.empty());
}

TEST(Wallclock, OutsideHotPathPasses) {
  const auto fs = lint_one("src/export/csv.cpp",
                           "auto t = std::chrono::system_clock::now();\n",
                           "wallclock");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// query-pushdown
// ---------------------------------------------------------------------------

TEST(QueryPushdown, FlagsDirectReadsOutsideQueryLayer) {
  const auto fs = lint_one("src/serve/handlers.cpp",
                           "void f(trace::OsntReader& r) {\n"
                           "  auto w = r.read_chunks(ids);\n"
                           "  auto j = index_summary_json(r);\n"
                           "}\n",
                           "query-pushdown");
  EXPECT_TRUE(has(fs, "query-pushdown", 2));
  EXPECT_TRUE(has(fs, "query-pushdown", 3));
}

TEST(QueryPushdown, QueryLayerAndLookalikesPass) {
  EXPECT_TRUE(lint_one("src/query/engine.cpp",
                       "void f(trace::OsntReader& r) { r.read_chunks(ids); }\n",
                       "query-pushdown")
                  .empty());
  EXPECT_TRUE(lint_one("src/serve/handlers.cpp",
                       "void f(P& p) { p.read_chunks_spec(0); }\n",
                       "query-pushdown")
                  .empty());
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

constexpr const char* kSpec =
    "common:\n"
    "net: common\n"
    "serve: common net\n";

std::vector<lint::Finding> lint_layered(const std::string& path,
                                        const std::string& content,
                                        const char* spec = kSpec) {
  lint::Options opt;
  opt.rules = {"layering"};
  opt.layering_text = spec;
  opt.have_layering = true;
  const lint::RunResult res =
      lint::lint_sources({lint::SourceFile{path, content}}, opt);
  EXPECT_TRUE(res.errors.empty());
  return res.findings;
}

TEST(Layering, FlagsUndeclaredEdge) {
  // net -> serve: the edge the old hard-coded net-layering regex checked.
  const auto fs = lint_layered("src/net/event_loop.cpp",
                               "#include \"serve/handlers.hpp\"\n");
  EXPECT_TRUE(has(fs, "layering", 1));
}

TEST(Layering, FlagsEdgeTheRegexNeverChecked) {
  // serve -> net is not in this spec. The regex linter only ever checked
  // includes *from* src/net/; a serve-side violation sailed through it.
  const auto fs = lint_layered("src/serve/server.cpp",
                               "#include \"net/poller.hpp\"\n",
                               "common:\nnet: common\nserve: common\n");
  EXPECT_TRUE(has(fs, "layering", 1));
}

TEST(Layering, FlagsUndeclaredSubsystemTarget) {
  const auto fs = lint_layered("src/net/event_loop.cpp",
                               "#include \"mystery/box.hpp\"\n");
  EXPECT_TRUE(has(fs, "layering", 1));
}

TEST(Layering, DeclaredEdgesSelfIncludesAndSystemHeadersPass) {
  const auto fs = lint_layered("src/serve/server.cpp",
                               "#include <vector>\n"
                               "#include \"net/poller.hpp\"\n"
                               "#include \"serve/catalog.hpp\"\n"
                               "#include \"common/types.hpp\"\n");
  EXPECT_TRUE(fs.empty());
}

TEST(Layering, CommentedIncludeIsNotAnInclude) {
  const auto fs = lint_layered("src/net/event_loop.cpp",
                               "// #include \"serve/handlers.hpp\"\n"
                               "/* #include \"serve/handlers.hpp\" */\n");
  EXPECT_TRUE(fs.empty());
}

TEST(Layering, SpecValidationRejectsBadGraphs) {
  EXPECT_FALSE(lint::parse_layer_spec("a: b\n").ok());          // undeclared
  EXPECT_FALSE(lint::parse_layer_spec("a: b\nb: a\n").ok());    // cycle
  EXPECT_FALSE(lint::parse_layer_spec("a:\na:\n").ok());        // duplicate
  EXPECT_FALSE(lint::parse_layer_spec("garbage line\n").ok());  // syntax
  EXPECT_TRUE(lint::parse_layer_spec("# c\n\na:\nb: a\n").ok());
}

// ---------------------------------------------------------------------------
// raw-socket
// ---------------------------------------------------------------------------

TEST(RawSocket, FlagsGlobalSyscallsOutsideSocketLayer) {
  const auto fs = lint_one("src/serve/server.cpp",
                           "void f(int fd, const char* p, size_t n) {\n"
                           "  ::send(fd, p, n, 0);\n"
                           "  ::accept(fd, nullptr, nullptr);\n"
                           "}\n",
                           "raw-socket");
  EXPECT_TRUE(has(fs, "raw-socket", 2));
  EXPECT_TRUE(has(fs, "raw-socket", 3));
}

TEST(RawSocket, MemberDefinitionsAreNotSyscalls) {
  // `EventLoop::send(...)` is a method definition, not ::send(2). The regex
  // version matched any `::send(` and could not make this distinction.
  const auto fs = lint_one("src/serve/push.cpp",
                           "void Pusher::send(std::string frame) {\n"
                           "  queue_.push_back(std::move(frame));\n"
                           "}\n"
                           "void f(TcpStream& s) { s.send_all(\"x\"); }\n",
                           "raw-socket");
  EXPECT_TRUE(fs.empty());
}

TEST(RawSocket, SocketLayerIsExempt) {
  EXPECT_TRUE(lint_one("src/common/socket.cpp",
                       "void f(int fd) { ::send(fd, 0, 0, 0); }\n",
                       "raw-socket")
                  .empty());
  EXPECT_TRUE(lint_one("src/net/poller.cpp",
                       "void f(int fd) { ::poll(nullptr, 0, 0); }\n",
                       "raw-socket")
                  .empty());
}

// ---------------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------------

TEST(HotPathAlloc, FlagsAllocationAndGrowth) {
  const auto fs = lint_one("src/tracebuf/probe.hpp",
                           "void f(std::vector<int>& v, int n) {\n"
                           "  auto* p = new int[n];\n"
                           "  v.push_back(n);\n"
                           "  auto u = std::make_unique<int>(n);\n"
                           "  void* m = malloc(n);\n"
                           "}\n",
                           "hot-path-alloc");
  EXPECT_TRUE(has(fs, "hot-path-alloc", 2));
  EXPECT_TRUE(has(fs, "hot-path-alloc", 3));
  EXPECT_TRUE(has(fs, "hot-path-alloc", 4));
  EXPECT_TRUE(has(fs, "hot-path-alloc", 5));
}

TEST(HotPathAlloc, AllowAndNonHotFilesPass) {
  EXPECT_TRUE(lint_one("src/tracebuf/probe.hpp",
                       "void setup(std::vector<int>& v, int n) {\n"
                       "  v.reserve(n);  // osn-lint: allow(hot-path-alloc) setup\n"
                       "}\n",
                       "hot-path-alloc")
                  .empty());
  EXPECT_TRUE(lint_one("src/trace/sink.cpp",
                       "void f(std::vector<int>& v) { v.push_back(1); }\n",
                       "hot-path-alloc")
                  .empty());
}

TEST(HotPathAlloc, MentionsInCommentsAndStringsPass) {
  const auto fs = lint_one("src/tracebuf/probe.hpp",
                           "// new allocations are forbidden; malloc( too\n"
                           "const char* kDoc = R\"(push_back( malloc( new )\";\n",
                           "hot-path-alloc");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// hot-path-syscall
// ---------------------------------------------------------------------------

TEST(HotPathSyscall, FlagsBlockingCalls) {
  const auto fs = lint_one("src/tracebuf/probe.hpp",
                           "void f(int fd, char* b, size_t n, FILE* fp) {\n"
                           "  ::read(fd, b, n);\n"
                           "  fwrite(b, 1, n, fp);\n"
                           "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
                           "}\n",
                           "hot-path-syscall");
  EXPECT_TRUE(has(fs, "hot-path-syscall", 2));
  EXPECT_TRUE(has(fs, "hot-path-syscall", 3));
  EXPECT_TRUE(has(fs, "hot-path-syscall", 4));
}

TEST(HotPathSyscall, MembersAllowsAndNonHotFilesPass) {
  EXPECT_TRUE(lint_one("src/tracebuf/probe.hpp",
                       "size_t f(Ring& r, std::span<Rec> out) {\n"
                       "  return r.read(out);\n"
                       "}\n"
                       "void idle() {\n"
                       "  std::this_thread::yield();  // osn-lint: allow(hot-path-syscall) daemon\n"
                       "}\n",
                       "hot-path-syscall")
                  .empty());
  EXPECT_TRUE(lint_one("src/common/socket.cpp",
                       "void f(int fd, char* b, size_t n) { ::read(fd, b, n); }\n",
                       "hot-path-syscall")
                  .empty());
}

// ---------------------------------------------------------------------------
// lock-scope
// ---------------------------------------------------------------------------

TEST(LockScope, FlagsBlockingCallsUnderLock) {
  const auto fs = lint_one("src/serve/push.cpp",
                           "void f(TcpStream& s, const std::string& d) {\n"
                           "  std::lock_guard<std::mutex> g(mu_);\n"
                           "  s.send_all(d);\n"
                           "}\n"
                           "void g(int fd) {\n"
                           "  std::unique_lock<std::mutex> l(this->mu_);\n"
                           "  ::send(fd, nullptr, 0, 0);\n"
                           "}\n",
                           "lock-scope");
  EXPECT_TRUE(has(fs, "lock-scope", 3));
  EXPECT_TRUE(has(fs, "lock-scope", 7));
}

TEST(LockScope, FlagsDecodeUnderScopedLock) {
  const auto fs = lint_one("src/serve/catalog.cpp",
                           "void f(Reader& r, const std::string& p) {\n"
                           "  std::scoped_lock l{mutex_};\n"
                           "  auto t = read_trace_file(p);\n"
                           "}\n",
                           "lock-scope");
  EXPECT_TRUE(has(fs, "lock-scope", 3));
}

TEST(LockScope, FlagsChunkDecodeUnderLock) {
  const auto fs = lint_one("src/serve/catalog.cpp",
                           "void f(trace::OsntReader& r, const Ids& ids) {\n"
                           "  std::lock_guard<std::mutex> g(mu_);\n"
                           "  auto m = r.read_chunks(ids);\n"
                           "}\n",
                           "lock-scope");
  EXPECT_TRUE(has(fs, "lock-scope", 3));
}

TEST(LockScope, CallOutsideCriticalSectionPasses) {
  const auto fs = lint_one("src/serve/push.cpp",
                           "void f(TcpStream& s, const std::string& d) {\n"
                           "  {\n"
                           "    std::lock_guard<std::mutex> g(mu_);\n"
                           "    pending_ += 1;\n"
                           "  }\n"
                           "  s.send_all(d);\n"
                           "}\n"
                           "void g(TcpStream& s, const std::string& d) {\n"
                           "  s.send_all(d);\n"
                           "  std::lock_guard<std::mutex> lock(mu_);\n"
                           "  done_ = true;\n"
                           "}\n",
                           "lock-scope");
  EXPECT_TRUE(fs.empty());
}

TEST(LockScope, DeclarationsAndOtherSubsystemsPass) {
  // A member declaration is not a call site (no enclosing function body).
  EXPECT_TRUE(lint_one("src/net/connection.hpp",
                       "class TcpStream {\n"
                       "  bool send_all(const std::string& data);\n"
                       "};\n",
                       "lock-scope")
                  .empty());
  EXPECT_TRUE(lint_one("src/host/sampler.cpp",
                       "void f(TcpStream& s) {\n"
                       "  std::lock_guard<std::mutex> g(mu_);\n"
                       "  s.send_all(\"x\");\n"
                       "}\n",
                       "lock-scope")
                  .empty());
}

// ---------------------------------------------------------------------------
// guarded-by
// ---------------------------------------------------------------------------

constexpr const char* kGuardHpp =
    "#include \"common/annotations.hpp\"\n"
    "class Mailbox {\n"
    " public:\n"
    "  Mailbox() : queue_(), other_mu_() {}\n"
    "  void post(int v);\n"
    "  void misuse(int v);\n"
    " private:\n"
    "  std::mutex mu_;\n"
    "  std::mutex other_mu_;\n"
    "  std::vector<int> queue_ OSN_GUARDED_BY(mu_);\n"
    "};\n";

std::vector<lint::Finding> lint_guarded(const std::string& cpp) {
  lint::Options opt;
  opt.rules = {"guarded-by"};
  const lint::RunResult res = lint::lint_sources(
      {lint::SourceFile{"src/net/mailbox.hpp", kGuardHpp},
       lint::SourceFile{"src/net/mailbox.cpp", cpp}},
      opt);
  EXPECT_TRUE(res.errors.empty());
  return res.findings;
}

TEST(GuardedBy, FlagsUnlockedAccess) {
  const auto fs = lint_guarded(
      "void Mailbox::misuse(int v) {\n"
      "  queue_.push_back(v);\n"
      "}\n");
  EXPECT_TRUE(has(fs, "guarded-by", 2));
}

TEST(GuardedBy, FlagsAccessUnderWrongMutex) {
  // Holding *a* lock is not holding *the* lock — undetectable by regex,
  // and by eye in review more often than anyone admits.
  const auto fs = lint_guarded(
      "void Mailbox::misuse(int v) {\n"
      "  std::lock_guard<std::mutex> g(other_mu_);\n"
      "  queue_.push_back(v);\n"
      "}\n");
  EXPECT_TRUE(has(fs, "guarded-by", 3));
}

TEST(GuardedBy, AccessUnderRightMutexPasses) {
  const auto fs = lint_guarded(
      "void Mailbox::post(int v) {\n"
      "  std::lock_guard<std::mutex> g(mu_);\n"
      "  queue_.push_back(v);\n"
      "}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(GuardedBy, ConstructionSitesAreExempt) {
  // The declaration itself and member-initializer lists are construction,
  // not sharing; neither should need a lock.
  const auto fs = lint_guarded(
      "Mailbox make() { return Mailbox(); }\n");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------------
// Driver-level behavior
// ---------------------------------------------------------------------------

TEST(Driver, UnknownRuleIsAnError) {
  lint::Options opt;
  opt.rules = {"no-such-rule"};
  const lint::RunResult res =
      lint::lint_sources({lint::SourceFile{"src/noise/x.cpp", ""}}, opt);
  ASSERT_EQ(res.errors.size(), 1u);
}

TEST(Driver, MultiRuleAllowOnOneLine) {
  lint::Options opt;
  opt.rules = {"hot-path-alloc", "hot-path-syscall"};
  const lint::RunResult res = lint::lint_sources(
      {lint::SourceFile{
          "src/tracebuf/probe.hpp",
          "void drain(std::vector<int>& v, FILE* f) {\n"
          "  v.push_back(fgetc(f) + fread(nullptr, 0, 0, f) ? 1 : 0);  "
          "// osn-lint: allow(hot-path-alloc, hot-path-syscall) drain\n"
          "}\n"}},
      opt);
  EXPECT_TRUE(res.findings.empty());
}

TEST(Driver, FindingsAreSortedAndDeduplicated) {
  lint::Options opt;
  opt.rules = {"hot-path-alloc"};
  const lint::RunResult res = lint::lint_sources(
      {lint::SourceFile{"src/tracebuf/b.hpp", "void f(V& v) { v.resize(1); }\n"},
       lint::SourceFile{"src/tracebuf/a.hpp", "void f(V& v) { v.resize(1); }\n"}},
      opt);
  ASSERT_EQ(res.findings.size(), 2u);
  EXPECT_EQ(res.findings[0].file, "src/tracebuf/a.hpp");
  EXPECT_EQ(res.findings[1].file, "src/tracebuf/b.hpp");
}

TEST(Driver, JsonReportEscapesIllFormedPaths) {
  // A file name is arbitrary bytes: an ill-formed UTF-8 byte must come out
  // as \u00xx, never raw, or the whole report stops being valid JSON.
  lint::RunResult res;
  res.findings.push_back({"src/a\xff.cpp", 7, "bare-assert", "m\rn"});
  res.files = 1;
  EXPECT_EQ(lint::to_json(res),
            R"({"findings":[{"file":"src/a\u00ff.cpp","line":7,"rule":"bare-assert",)"
            R"("message":"m\rn"}],"errors":[],"files":1})"
            "\n");
}

TEST(Driver, RuleRegistryIsComplete) {
  EXPECT_EQ(lint::all_rules().size(), 11u);
  EXPECT_TRUE(lint::known_rule("guarded-by"));
  EXPECT_FALSE(lint::known_rule("net-layering"));  // renamed to `layering`
}

// ---------------------------------------------------------------------------
// Self-lint: the repository itself must be clean, and the layering spec must
// describe the tree as it exists.
// ---------------------------------------------------------------------------

TEST(SelfLint, RepositoryIsClean) {
  const lint::RunResult res =
      lint::lint_tree(OSN_LINT_REPO_ROOT, lint::Options{});
  for (const std::string& e : res.errors) ADD_FAILURE() << e;
  for (const lint::Finding& f : res.findings)
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  EXPECT_GT(res.files, 100);  // sanity: the walk actually found the tree
}

}  // namespace
