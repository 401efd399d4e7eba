// Shared infrastructure of the end-to-end pipeline benchmark: sample sets,
// the in-memory span tracer, the per-run result, fork isolation of
// simulated runs, and the workload interface main.cpp runs.
//
// Everything here measures the library from the outside: the workloads time
// their own calls into public functions (run_workload_live, OsntReader,
// NoiseAnalysis, the exporters, Engine::run, serve::Server requests,
// Monitor::ingest, RollingView::run) and never reach into library internals.
#pragma once

#include <time.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/types.hpp"

namespace osn::bench {

inline TimeNs now_ns() { return monotonic_now_ns(); }
inline double to_ms(DurNs d) { return static_cast<double>(d) / 1e6; }
inline double to_s(DurNs d) { return static_cast<double>(d) / 1e9; }

/// CPU time of the calling thread / of this process (every thread, live or
/// joined). The gated figures are CPU times: on a shared virtual machine the
/// wall time of the same work swings several-fold with the host's load,
/// while a thread's CPU time leaves out both the time other threads held its
/// CPU and the time the hypervisor ran another guest (steal).
inline DurNs thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<DurNs>(ts.tv_sec) * kNsPerSec + static_cast<DurNs>(ts.tv_nsec);
}
inline DurNs process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<DurNs>(ts.tv_sec) * kNsPerSec + static_cast<DurNs>(ts.tv_nsec);
}
/// process_cpu_ns() plus the CPU time of every reaped child process (the
/// forked simulations).
DurNs process_tree_cpu_ns();

/// A set of measurements with order statistics. Quantiles interpolate
/// linearly between closest ranks (numpy's default), so a median of an even
/// count is the mean of the middle pair.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double max() const;
  /// Number of samples strictly above quantile(q).
  std::size_t count_above(double q) const;

 private:
  std::vector<double> v_;
};

// ---------------------------------------------------------------------------
// Span tracer (the traced run)
// ---------------------------------------------------------------------------

/// One timed call at a layer boundary. `name` is "<layer>.<call>"; the layer
/// is everything before the first dot. `calls` > 1 marks an aggregate span:
/// per-record boundaries (OsntStreamWriter::append, StreamingStats::consume)
/// are summed into one span per enclosing call so a 1.2 M-record run does
/// not allocate 1.2 M spans; its duration is the summed call time.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< request id (0 = none)
  TimeNs start = 0;
  TimeNs end = 0;
  std::uint32_t thread = 0;
  std::uint64_t calls = 1;
};

/// Records spans in memory while enabled; a disabled tracer costs one branch
/// per boundary. Thread-safe: spans are coarse (per call, not per record).
class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  /// Opens a span on the calling thread; its parent is the innermost open
  /// span of this thread. Returns 0 when disabled.
  std::uint64_t begin(const char* name, std::uint64_t request = 0);
  /// Closes a span; `rename` relabels it (a failed operation is recorded as
  /// "bench.failed.*", outside the coverage of the end-to-end operations).
  void end(std::uint64_t id, const char* rename = nullptr);
  /// Records an already-finished span (aggregates, cross-thread children).
  void add(const char* name, TimeNs start, TimeNs end, std::uint64_t parent,
           std::uint64_t request = 0, std::uint64_t calls = 1);

  /// Re-bases span ids so a forked child's spans never collide with the
  /// parent's. Called in the child right after fork().
  void rebase_ids(std::uint64_t base);
  std::size_t size() const;
  std::vector<Span> spans_since(std::size_t mark) const;
  void import(const std::vector<Span>& spans);
  std::vector<Span> snapshot() const;

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> open_;  ///< id -> index in spans_
  std::uint64_t next_id_ = 1;
};

/// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t request = 0)
      : t_(t), id_(t.begin(name, request)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::uint64_t id_;
};

/// Per-record call accumulator for aggregate spans: time each call only when
/// tracing (two clock reads per record otherwise skew the untraced run).
struct CallTotals {
  std::uint64_t calls = 0;
  DurNs total = 0;
  TimeNs first = 0;
  void add(TimeNs t0, TimeNs t1) {
    if (calls++ == 0) first = t0;
    total += t1 - t0;
  }
};

/// Per-layer self time: each span's duration minus the time covered by its
/// same-thread children (cross-thread children run concurrently and are not
/// subtracted), summed by layer. Aggregate spans count their summed time.
std::map<std::string, double> layer_self_ms(const std::vector<Span>& spans);

/// Share of the end-to-end operation spans ("bench.op.*") not covered by any
/// layer span (every name outside the "bench." prefix).
double untraced_fraction(const std::vector<Span>& spans);

/// Writes spans as JSON lines (name, id, parent, request, start/end ns,
/// thread, calls) — the traced run's span dump.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< measurements behind the value (0 = a count)
};

struct Result {
  std::map<std::string, Metric> metrics;  ///< end-to-end + per-layer, by name
  std::vector<std::string> notes;         ///< human-readable report lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  /// The workload's headline cost (lower is better) for the trace-overhead
  /// comparison between the untraced and traced halves of a traced run.
  double primary = 0.0;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Records an output check; a failed check fails the whole run.
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void note(const std::string& line) { notes.push_back(line); }
};

// ---------------------------------------------------------------------------
// Workload interface
// ---------------------------------------------------------------------------

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string work_dir;  ///< scratch directory (inside the checkout)
  unsigned nproc = 1;
  /// Simulated seconds of each trace-to-report AMG run. Above 6 s the
  /// simulator aborts on some seeds (README.md, "Known defects"); 12 s is
  /// the EXPERIMENTS.md reference configuration.
  double amg_seconds = 6;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's inputs from the seed (repeated by main.cpp to
  /// time set-up; each call replaces the previous state).
  virtual void setup() = 0;
  /// Measures for `seconds`, adding metrics, counts and checks to `r`.
  virtual void measure(double seconds, Result& r) = 0;
  /// Releases inputs (files, servers) before the process exits.
  virtual void teardown() {}
};

std::unique_ptr<Workload> make_trace_to_report(const Options& o, Tracer& t);
std::unique_ptr<Workload> make_dashboard(const Options& o, Tracer& t);
std::unique_ptr<Workload> make_monitor_ingest(const Options& o, Tracer& t);

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Outcome of a function run in a forked child.
struct Isolated {
  bool ok = false;        ///< child exited 0 and delivered its payload
  int term_signal = 0;    ///< signal that killed the child (SIGABRT for OSN_ASSERT)
  int exit_code = 0;
  std::string payload;    ///< bytes the child returned
  std::string diagnostic; ///< what the child wrote to stderr (an assertion message)
};

/// Runs `fn` in a forked child so an OSN_ASSERT abort (or any crash) is an
/// accounted failure instead of the end of the benchmark. The child's core
/// dumps are disabled. The caller must hold no other threads at the call.
Isolated run_isolated(const std::function<std::string()>& fn);

/// Open-loop generator health: the generator fell behind its schedule when
/// its issue lag is not small against the latencies it measured (p50 lag
/// over a tenth of the p50 latency, or p99 lag over a quarter of the p99).
/// Those latencies then measured the generator: returns false and notes why,
/// and the caller reports none of them. The CPU-time figures do not depend
/// on the generator and stand either way.
bool generator_kept_schedule(const Samples& lag_ms, const Samples& latency_ms, Result& r);

/// Restricts the calling thread (and threads it creates afterwards) to CPUs
/// [first, first + count). The serve workloads keep the load generator on a
/// core of its own so it never time-slices with the server it measures.
void pin_to_cpus(unsigned first, unsigned count);

/// Peak resident set of this process and its reaped children, in MiB.
double peak_rss_mb();

/// Simulates one Sequoia application (`app` indexes workloads::SequoiaApp)
/// for `duration` under `seed` through the live drain into an OSNT v3 file
/// with IndexAggregator pre-aggregates — `osn-analyze run <app>` — in a
/// forked child. A run that aborts leaves no file behind. Returns the
/// number of records written (0 when the run failed).
std::uint64_t build_trace_isolated(std::size_t app, DurNs duration, std::uint64_t seed,
                                   const std::string& path);

/// Deterministic uniform / exponential draws from a 64-bit generator
/// (libstdc++ distributions are not pinned across versions).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    s_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = s_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Exponential gap with the given mean (Poisson arrivals).
  double exponential(double mean);

 private:
  std::uint64_t s_;
};

/// Open-loop arrival times: a Poisson process at `rate` per second from
/// `start` for `seconds`.
std::vector<TimeNs> poisson_arrivals(Rng& rng, TimeNs start, double rate, double seconds);

/// splitmix64: derives per-iteration seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// 64-bit FNV-1a (document identity in checks).
std::uint64_t fnv1a(const std::string& s);

/// Creates (or empties) a directory.
void fresh_dir(const std::string& dir);
void remove_tree(const std::string& dir);

std::string fmt(double v, int digits = 4);

/// Appends POD `v` to a byte string / reads it back (child payloads).
template <class T>
void put_pod(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <class T>
bool get_pod(const std::string& in, std::size_t& pos, T& v) {
  if (pos + sizeof(T) > in.size()) return false;
  std::memcpy(&v, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return true;
}

}  // namespace osn::bench
