#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <string_view>

namespace osn::lint {

namespace {

// ---------------------------------------------------------------------------
// Path scoping (mirrors the retired osn_lint.py, plus the new rules' scopes).
// ---------------------------------------------------------------------------

constexpr std::array<std::string_view, 4> kDecodePaths = {
    "src/trace/trace_io.cpp", "src/trace/trace_io.hpp",
    "src/trace/osnt_reader.cpp", "src/trace/osnt_reader.hpp"};
constexpr std::string_view kHotPrefix = "src/tracebuf/";
constexpr std::array<std::string_view, 3> kQueryExempt = {
    "src/query/", "src/trace/", "src/export/"};
constexpr std::string_view kRawSocketExemptFile = "src/common/socket.cpp";
constexpr std::string_view kRawSocketExemptPrefix = "src/net/";
constexpr std::array<std::string_view, 2> kLockedSubsystems = {"src/net/",
                                                              "src/serve/"};
/// The one place allowed to call std::abort (the assert failure handler).
constexpr std::string_view kAbortHome = "src/common/assert.hpp";

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool is_decode_path(std::string_view path) {
  return std::find(kDecodePaths.begin(), kDecodePaths.end(), path) !=
         kDecodePaths.end();
}

bool in_locked_subsystem(std::string_view path) {
  for (const std::string_view p : kLockedSubsystems)
    if (starts_with(path, p)) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Token helpers.
// ---------------------------------------------------------------------------

bool is_punct(const Token& t, std::string_view p) {
  return t.kind == Tok::kPunct && t.text == p;
}

bool any_of(std::string_view id, std::initializer_list<std::string_view> set) {
  return std::find(set.begin(), set.end(), id) != set.end();
}

struct Cursor {
  const std::vector<Token>& toks;
  std::size_t i;

  const Token& tok() const { return toks[i]; }
  bool prev_is(std::string_view p) const {
    return i > 0 && is_punct(toks[i - 1], p);
  }
  bool next_is(std::string_view p) const {
    return i + 1 < toks.size() && is_punct(toks[i + 1], p);
  }
  bool member_access() const { return prev_is(".") || prev_is("->"); }
  bool qualified() const { return prev_is("::"); }
  /// `::name` at global scope: `::` directly preceded by nothing, punctuation
  /// or a keyword-free boundary (i.e. NOT `Foo::name` / `ns::name`).
  bool global_qualified() const {
    if (!qualified()) return false;
    if (i < 2) return true;
    const Token& before = toks[i - 2];
    return before.kind != Tok::kIdent && !is_punct(before, ">");
  }
  bool call() const { return next_is("("); }
};

/// Last path component of a qualified function name ("flush" for
/// "OsntStreamWriter::flush").
std::string_view last_component(std::string_view name) {
  const std::size_t pos = name.rfind("::");
  return pos == std::string_view::npos ? name : name.substr(pos + 2);
}

/// Writer-side code inside a decode-path file: encoder classes and put_/
/// write/serialize helpers assert API contracts, they do not parse input.
bool writer_side(const FunctionRegion* fn) {
  if (fn == nullptr) return false;
  if (fn->name.find("Writer::") != std::string::npos) return true;
  const std::string_view leaf = last_component(fn->name);
  return starts_with(leaf, "put_") || starts_with(leaf, "write") ||
         starts_with(leaf, "serialize");
}

// ---------------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------------

void check_bare_assert(const FileContext& ctx) {
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Cursor c{toks, i};
    if (toks[i].kind != Tok::kIdent || !c.call()) continue;
    if (toks[i].text == "assert" && !c.member_access() && !c.qualified()) {
      ctx.report("bare-assert", toks[i].line,
                 "bare assert(); use OSN_ASSERT/OSN_DASSERT or throw");
    }
    if (toks[i].text == "abort" && !c.member_access() &&
        ctx.file.path != kAbortHome) {
      // Flag bare abort() and std::abort(); skip Foo::abort() members.
      const bool std_qualified =
          c.qualified() && i >= 2 && toks[i - 2].kind == Tok::kIdent &&
          toks[i - 2].text == "std";
      if (!c.qualified() || std_qualified || c.global_qualified())
        ctx.report("bare-assert", toks[i].line,
                   "direct abort(); route through OSN_ASSERT so handlers run");
    }
  }
}

void check_decode_throw(const FileContext& ctx) {
  if (!is_decode_path(ctx.file.path)) return;
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Cursor c{toks, i};
    if (toks[i].kind != Tok::kIdent || !c.call()) continue;
    if (toks[i].text != "OSN_ASSERT" && toks[i].text != "OSN_ASSERT_MSG")
      continue;
    if (writer_side(ctx.scopes.function_at(i))) continue;
    ctx.report("decode-throw", toks[i].line,
               "OSN_ASSERT in a decode path; malformed input must throw "
               "TraceReadError (writer-side contracts use OSN_DASSERT)");
  }
}

void check_unchecked_narrow(const FileContext& ctx) {
  if (!is_decode_path(ctx.file.path)) return;
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || toks[i].text != "static_cast") continue;
    if (!is_punct(toks[i + 1], "<")) continue;
    // Scan the template argument for a narrow integer type.
    std::size_t j = i + 1;
    int depth = 0;
    bool narrow = false;
    for (; j < toks.size(); ++j) {
      if (is_punct(toks[j], "<")) ++depth;
      else if (is_punct(toks[j], ">")) {
        if (--depth == 0) break;
      } else if (toks[j].kind == Tok::kIdent &&
                 any_of(toks[j].text, {"int8_t", "int16_t", "int32_t",
                                       "uint8_t", "uint16_t", "uint32_t"})) {
        narrow = true;
      }
    }
    if (!narrow || j + 1 >= toks.size() || !is_punct(toks[j + 1], "(")) continue;
    // First meaningful identifier of the cast operand.
    std::size_t k = j + 2;
    while (k < toks.size() &&
           (is_punct(toks[k], "::") ||
            (toks[k].kind == Tok::kIdent &&
             any_of(toks[k].text, {"std", "osnt", "trace"}))))
      ++k;
    if (k < toks.size() && toks[k].kind == Tok::kIdent &&
        starts_with(toks[k].text, "get_varint"))
      ctx.report("unchecked-narrow", toks[k].line,
                 "unchecked narrowing of a decoded varint; use "
                 "trace::narrow<T>()");
  }
}

void check_wallclock(const FileContext& ctx) {
  if (!starts_with(ctx.file.path, kHotPrefix)) return;
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Cursor c{toks, i};
    if (toks[i].kind != Tok::kIdent) continue;
    if (toks[i].text == "system_clock" || toks[i].text == "gettimeofday") {
      ctx.report("wallclock", toks[i].line,
                 "wall-clock read in a hot path; use the monotonic timestamp "
                 "source");
      continue;
    }
    if (toks[i].text == "time" && c.call() && !c.member_access() &&
        !c.qualified() && i + 3 < toks.size()) {
      const Token& arg = toks[i + 2];
      const bool null_arg =
          (arg.kind == Tok::kIdent && (arg.text == "NULL" || arg.text == "nullptr")) ||
          (arg.kind == Tok::kNumber && arg.text == "0");
      if (null_arg && is_punct(toks[i + 3], ")"))
        ctx.report("wallclock", toks[i].line,
                   "wall-clock read in a hot path; use the monotonic "
                   "timestamp source");
    }
  }
}

void check_query_pushdown(const FileContext& ctx) {
  for (const std::string_view p : kQueryExempt)
    if (starts_with(ctx.file.path, p)) return;
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Cursor c{toks, i};
    if (toks[i].kind != Tok::kIdent || !c.call()) continue;
    if (toks[i].text != "read_chunks" && toks[i].text != "index_summary_json")
      continue;
    ctx.report("query-pushdown", toks[i].line,
               "direct read_chunks()/index_summary_json() call outside "
               "src/query/; build a query::Plan and run it through the Engine "
               "instead");
  }
}

void check_layering(const FileContext& ctx) {
  if (ctx.layers == nullptr) return;
  const std::string sub = subsystem_of(ctx.file.path);
  if (sub.empty()) return;
  if (!ctx.layers->declared(sub)) {
    ctx.report("layering", 1,
               "subsystem '" + sub + "' is not declared in tools/layering.txt");
    return;
  }
  for (const IncludeDirective& inc : ctx.file.includes) {
    const std::string target = include_target(inc);
    if (target.empty() || target == sub) continue;
    if (!ctx.layers->declared(target)) {
      ctx.report("layering", inc.line,
                 "include '" + inc.path + "' targets '" + target +
                     "', which is not declared in tools/layering.txt");
      continue;
    }
    if (!ctx.layers->allows(sub, target))
      ctx.report("layering", inc.line,
                 "layer '" + sub + "' may not include '" + target +
                     "/' (declared DAG: tools/layering.txt)");
  }
}

void check_raw_socket(const FileContext& ctx) {
  if (ctx.file.path == kRawSocketExemptFile ||
      starts_with(ctx.file.path, kRawSocketExemptPrefix))
    return;
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Cursor c{toks, i};
    if (toks[i].kind != Tok::kIdent || !c.call()) continue;
    if (!any_of(toks[i].text,
                {"send", "sendto", "recv", "recvfrom", "poll", "accept",
                 "accept4"}))
      continue;
    if (!c.global_qualified()) continue;
    ctx.report("raw-socket", toks[i].line,
               "raw socket syscall outside common/socket.cpp; use the sockio "
               "helpers (shared EINTR/partial-write/SIGPIPE discipline)");
  }
}

void check_hot_path_alloc(const FileContext& ctx) {
  if (!starts_with(ctx.file.path, kHotPrefix)) return;
  const auto& toks = ctx.file.tokens;
  const char* msg =
      "allocation on the tracebuf hot path (the paper's 0.28% tracer budget); "
      "move it to setup/drain or justify with an allow()";
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Cursor c{toks, i};
    if (toks[i].kind != Tok::kIdent) continue;
    const std::string_view id = toks[i].text;
    if (id == "new" && !c.member_access() && !c.qualified() &&
        !(i > 0 && toks[i - 1].kind == Tok::kIdent &&
          toks[i - 1].text == "operator")) {
      ctx.report("hot-path-alloc", toks[i].line, msg);
      continue;
    }
    if (c.call() && !c.member_access() &&
        any_of(id, {"malloc", "calloc", "realloc", "strdup", "aligned_alloc",
                    "posix_memalign"})) {
      ctx.report("hot-path-alloc", toks[i].line, msg);
      continue;
    }
    if ((c.next_is("<") || c.next_is("(")) &&
        any_of(id, {"make_unique", "make_shared"})) {
      ctx.report("hot-path-alloc", toks[i].line, msg);
      continue;
    }
    if (c.member_access() && c.call() &&
        any_of(id, {"push_back", "emplace_back", "resize", "reserve", "insert",
                    "emplace", "push", "assign", "append"}))
      ctx.report("hot-path-alloc", toks[i].line, msg);
  }
}

void check_hot_path_syscall(const FileContext& ctx) {
  if (!starts_with(ctx.file.path, kHotPrefix)) return;
  const auto& toks = ctx.file.tokens;
  const char* msg =
      "blocking syscall on the tracebuf hot path; producers must stay "
      "wait-free (daemon-side waits need an allow() with justification)";
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Cursor c{toks, i};
    if (toks[i].kind != Tok::kIdent || !c.call()) continue;
    const std::string_view id = toks[i].text;
    if (c.global_qualified() &&
        any_of(id, {"read", "write", "pread", "pwrite", "open", "openat",
                    "close", "fsync", "fdatasync", "poll", "ppoll", "select",
                    "epoll_wait", "recv", "recvfrom", "send", "sendto",
                    "accept", "accept4", "connect", "ioctl", "mmap", "munmap",
                    "usleep", "nanosleep", "sleep"})) {
      ctx.report("hot-path-syscall", toks[i].line, msg);
      continue;
    }
    if (c.qualified() && any_of(id, {"yield", "sleep_for", "sleep_until"})) {
      ctx.report("hot-path-syscall", toks[i].line, msg);
      continue;
    }
    if (!c.member_access() && !c.qualified() &&
        any_of(id, {"fopen", "fread", "fwrite", "fclose", "usleep",
                    "nanosleep", "sleep"})) {
      ctx.report("hot-path-syscall", toks[i].line, msg);
      continue;
    }
    if (id == "sleep_remaining") {
      ctx.report("hot-path-syscall", toks[i].line, msg);
      continue;
    }
    if (c.member_access() && any_of(id, {"wait", "wait_for", "wait_until"}))
      ctx.report("hot-path-syscall", toks[i].line, msg);
  }
}

void check_lock_scope(const FileContext& ctx) {
  if (!in_locked_subsystem(ctx.file.path)) return;
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Cursor c{toks, i};
    if (toks[i].kind != Tok::kIdent || !c.call()) continue;
    const std::string_view id = toks[i].text;
    const bool blocking_helper =
        any_of(id, {"send_all", "recv_chunk", "write_all", "write_some",
                    "read_some", "read_all", "read_chunks", "read_trace_file"});
    const bool blocking_syscall =
        c.global_qualified() &&
        any_of(id, {"send", "sendto", "recv", "recvfrom", "poll", "select",
                    "accept"});
    if (!blocking_helper && !blocking_syscall) continue;
    // Declarations are not calls: `bool send_all(const std::string& data);`
    // only counts when inside a function body.
    if (ctx.scopes.function_at(i) == nullptr) continue;
    const auto locks = ctx.scopes.locks_at(i);
    if (locks.empty()) continue;
    const LockRegion* l = locks.back();
    ctx.report("lock-scope", toks[i].line,
               "'" + std::string(id) + "' (blocking I/O or decode) called "
               "while holding '" + l->mutex + "' (locked at line " +
               std::to_string(l->line) +
               "); finish the transfer outside the critical section");
  }
}

void check_guarded_by(const FileContext& ctx) {
  if (!in_locked_subsystem(ctx.file.path)) return;
  if (ctx.guards.empty()) return;
  const auto& toks = ctx.file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    const auto it = ctx.guards.find(std::string(toks[i].text));
    if (it == ctx.guards.end()) continue;
    const Cursor c{toks, i};
    // The annotation site itself: `type field_ OSN_GUARDED_BY(mu_);`
    if (i + 1 < toks.size() && toks[i + 1].kind == Tok::kIdent &&
        toks[i + 1].text == "OSN_GUARDED_BY")
      continue;
    if (c.qualified()) continue;  // Foo::field_ in a pointer-to-member etc.
    // Only function bodies are access sites; member-initializer lists and
    // class-body declarations are construction, not sharing.
    if (ctx.scopes.function_at(i) == nullptr) continue;
    const GuardedField& g = it->second;
    bool held = false;
    for (const LockRegion* l : ctx.scopes.locks_at(i))
      if (l->mutex == g.mutex) held = true;
    if (!held)
      ctx.report("guarded-by", toks[i].line,
                 "'" + g.field + "' is OSN_GUARDED_BY(" + g.mutex +
                     ") (declared at " + g.decl_file + ":" +
                     std::to_string(g.decl_line) + ") but '" + g.mutex +
                     "' is not held here");
  }
}

}  // namespace

const std::vector<RuleInfo>& all_rules() {
  static const std::vector<RuleInfo> rules = {
      {"bare-assert",
       "no assert()/abort() in src/; contracts use OSN_ASSERT tiers"},
      {"decode-throw",
       "decode paths throw TraceReadError on malformed input, never assert"},
      {"unchecked-narrow",
       "decoded varints narrow through trace::narrow<T>(), not static_cast"},
      {"wallclock",
       "hot paths read the monotonic clock, never wall-clock time"},
      {"query-pushdown",
       "filter/window/aggregate execution goes through the query planner"},
      {"layering",
       "quoted includes must follow the DAG declared in tools/layering.txt"},
      {"raw-socket",
       "raw ::send/::recv/::poll/::accept only in common/socket.cpp and "
       "src/net/"},
      {"hot-path-alloc",
       "no allocation or container growth in src/tracebuf/ (tracer budget)"},
      {"hot-path-syscall",
       "no blocking syscalls in src/tracebuf/ (producers are wait-free)"},
      {"lock-scope",
       "no socket I/O or trace decode while a lock_guard/unique_lock is live "
       "(src/net/, src/serve/)"},
      {"guarded-by",
       "OSN_GUARDED_BY(mu) fields only accessed with mu's guard in scope "
       "(src/net/, src/serve/)"},
  };
  return rules;
}

bool known_rule(const std::string& name) {
  for (const RuleInfo& r : all_rules())
    if (name == r.name) return true;
  return false;
}

bool FileContext::rule_enabled(const std::string& rule) const {
  if (enabled.empty()) return true;
  return std::find(enabled.begin(), enabled.end(), rule) != enabled.end();
}

void FileContext::report(const std::string& rule, int line,
                         std::string message) const {
  if (!rule_enabled(rule)) return;
  if (file.allowed(rule, line)) return;
  out->push_back(Finding{file.path, line, rule, std::move(message)});
}

void run_rules(const FileContext& ctx) {
  check_bare_assert(ctx);
  check_decode_throw(ctx);
  check_unchecked_narrow(ctx);
  check_wallclock(ctx);
  check_query_pushdown(ctx);
  check_layering(ctx);
  check_raw_socket(ctx);
  check_hot_path_alloc(ctx);
  check_hot_path_syscall(ctx);
  check_lock_scope(ctx);
  check_guarded_by(ctx);
}

}  // namespace osn::lint
