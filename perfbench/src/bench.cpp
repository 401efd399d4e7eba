#include "bench.hpp"

#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "noise/index_aggregate.hpp"
#include "trace/trace_io.hpp"
#include "workloads/sequoia.hpp"

namespace osn::bench {

// ---------------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------------

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || std::isinf(s[hi])) return frac == 0.0 ? s[lo] : s[hi];
  return s[lo] + (s[hi] - s[lo]) * frac;
}

double Samples::max() const {
  return v_.empty() ? 0.0 : *std::max_element(v_.begin(), v_.end());
}

std::size_t Samples::count_above(double q) const {
  const double cut = quantile(q);
  return static_cast<std::size_t>(
      std::count_if(v_.begin(), v_.end(), [cut](double v) { return v > cut; }));
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

thread_local std::vector<std::uint64_t> t_open_stack;

}  // namespace

std::uint64_t Tracer::begin(const char* name, std::uint64_t request) {
  if (!on_) return 0;
  const TimeNs start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.id = next_id_++;
  s.parent = t_open_stack.empty() ? 0 : t_open_stack.back();
  s.request = request;
  s.start = start;
  s.thread = thread_index();
  open_[s.id] = spans_.size();
  spans_.push_back(s);
  t_open_stack.push_back(s.id);
  return s.id;
}

void Tracer::end(std::uint64_t id, const char* rename) {
  if (id == 0) return;
  const TimeNs end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end = end;
  if (rename != nullptr) spans_[it->second].name = rename;
  open_.erase(it);
  auto pos = std::find(t_open_stack.rbegin(), t_open_stack.rend(), id);
  if (pos != t_open_stack.rend()) t_open_stack.erase(std::next(pos).base());
}

void Tracer::add(const char* name, TimeNs start, TimeNs end, std::uint64_t parent,
                 std::uint64_t request, std::uint64_t calls) {
  if (!on_) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.id = next_id_++;
  s.parent = parent;
  s.request = request;
  s.start = start;
  s.end = end;
  s.thread = thread_index();
  s.calls = calls;
  spans_.push_back(s);
}

void Tracer::rebase_ids(std::uint64_t base) {
  std::lock_guard<std::mutex> lock(mu_);
  next_id_ = std::max(next_id_, base);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<Span> Tracer::spans_since(std::size_t mark) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (mark >= spans_.size()) return {};
  return std::vector<Span>(spans_.begin() + static_cast<std::ptrdiff_t>(mark), spans_.end());
}

void Tracer::import(const std::vector<Span>& spans) {
  if (!on_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<Span> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

std::string layer_of(const char* name) {
  const std::string n(name);
  return n.substr(0, n.find('.'));
}

bool is_bench(const Span& s) { return std::strncmp(s.name, "bench.", 6) == 0; }

DurNs span_time(const Span& s) {
  if (s.end < s.start) return 0;
  return s.end - s.start;
}

}  // namespace

std::map<std::string, double> layer_self_ms(const std::vector<Span>& spans) {
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  std::map<std::uint64_t, DurNs> child_time;
  for (const Span& s : spans) {
    if (s.parent == 0 || s.calls > 1) continue;
    auto it = by_id.find(s.parent);
    if (it != by_id.end() && it->second->thread == s.thread) child_time[s.parent] += span_time(s);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    // Aggregate spans carry summed per-call time in [start, start + total).
    const DurNs dur = span_time(s);
    const DurNs kids = child_time.count(s.id) ? child_time[s.id] : 0;
    out[layer_of(s.name)] += to_ms(dur > kids ? dur - kids : 0);
  }
  return out;
}

double untraced_fraction(const std::vector<Span>& spans) {
  std::vector<std::pair<TimeNs, TimeNs>> cover;
  std::vector<std::pair<TimeNs, TimeNs>> ops;
  for (const Span& s : spans) {
    if (s.end <= s.start) continue;
    if (std::strncmp(s.name, "bench.op.", 9) == 0) {
      ops.emplace_back(s.start, s.end);
    } else if (!is_bench(s) && s.calls == 1) {
      cover.emplace_back(s.start, s.end);
    }
  }
  if (ops.empty()) return 0.0;
  std::sort(cover.begin(), cover.end());
  std::vector<std::pair<TimeNs, TimeNs>> merged;
  for (const auto& iv : cover) {
    if (!merged.empty() && iv.first <= merged.back().second)
      merged.back().second = std::max(merged.back().second, iv.second);
    else
      merged.push_back(iv);
  }
  double total = 0.0;
  double covered = 0.0;
  for (const auto& op : ops) {
    total += static_cast<double>(op.second - op.first);
    auto it = std::lower_bound(merged.begin(), merged.end(), std::make_pair(op.first, op.first));
    if (it != merged.begin()) --it;
    for (; it != merged.end() && it->first < op.second; ++it) {
      const TimeNs a = std::max(it->first, op.first);
      const TimeNs b = std::min(it->second, op.second);
      if (b > a) covered += static_cast<double>(b - a);
    }
  }
  return total > 0.0 ? 1.0 - covered / total : 0.0;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"start_ns\":" << s.start
        << ",\"end_ns\":" << s.end << ",\"thread\":" << s.thread << ",\"calls\":" << s.calls
        << "}\n";
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

Isolated run_isolated(const std::function<std::string()>& fn) {
  Isolated out;
  int data[2];
  int diag[2];
  if (pipe(data) != 0) {
    out.exit_code = -1;
    return out;
  }
  if (pipe(diag) != 0) {
    close(data[0]);
    close(data[1]);
    out.exit_code = -1;
    return out;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(data[0]);
    close(diag[0]);
    dup2(diag[1], STDERR_FILENO);  // an assertion message lands in `diagnostic`
    const struct rlimit no_core{0, 0};
    setrlimit(RLIMIT_CORE, &no_core);
    int code = 0;
    try {
      const std::string payload = fn();
      std::size_t done = 0;
      while (done < payload.size()) {
        const ssize_t n = write(data[1], payload.data() + done, payload.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          code = 3;
          break;
        }
        done += static_cast<std::size_t>(n);
      }
    } catch (...) {
      code = 2;
    }
    _exit(code);
  }
  close(data[1]);
  close(diag[1]);
  if (pid < 0) {
    close(data[0]);
    close(diag[0]);
    out.exit_code = -1;
    return out;
  }
  // Drain both pipes until the child closes them (it exits or dies).
  pollfd fds[2] = {{data[0], POLLIN, 0}, {diag[0], POLLIN, 0}};
  std::string* sinks[2] = {&out.payload, &out.diagnostic};
  char buf[1 << 16];
  for (int open = 2; open > 0;) {
    if (poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < 2; ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      const ssize_t n = read(fds[i].fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        close(fds[i].fd);
        fds[i].fd = -1;
        --open;
        continue;
      }
      sinks[i]->append(buf, static_cast<std::size_t>(n));
    }
  }
  for (const pollfd& f : fds)
    if (f.fd >= 0) close(f.fd);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status)) out.term_signal = WTERMSIG(status);
  if (WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);
  out.ok = WIFEXITED(status) && out.exit_code == 0;
  return out;
}

bool generator_kept_schedule(const Samples& lag_ms, const Samples& latency_ms, Result& r) {
  const double lag50 = lag_ms.median(), lag99 = lag_ms.quantile(0.99);
  const double lat50 = latency_ms.median(), lat99 = latency_ms.quantile(0.99);
  const bool kept = lag50 <= 0.1 * lat50 && lag99 <= 0.25 * lat99;
  if (!kept)
    r.note("invalid: the open-loop generator fell behind its schedule (lag p50 " + fmt(lag50) +
           " / p99 " + fmt(lag99) + " ms against latency p50 " + fmt(lat50) + " / p99 " +
           fmt(lat99) + " ms); this run's request latencies are not reported");
  return kept;
}

void pin_to_cpus(unsigned first, unsigned count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = first; c < first + count; ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

DurNs process_tree_cpu_ns() {
  struct rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  const auto us = [](const timeval& tv) {
    return static_cast<DurNs>(tv.tv_sec) * kNsPerSec + static_cast<DurNs>(tv.tv_usec) * kNsPerUs;
  };
  return process_cpu_ns() + us(kids.ru_utime) + us(kids.ru_stime);
}

double peak_rss_mb() {
  struct rusage self{};
  struct rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0;
}


std::uint64_t build_trace_isolated(std::size_t app, DurNs duration, std::uint64_t seed,
                                   const std::string& path) {
  const Isolated child = run_isolated([&] {
    trace::OsntStreamWriter writer(path);
    writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
    workloads::SequoiaWorkload w(static_cast<workloads::SequoiaApp>(app), duration);
    workloads::LiveOptions lopts;
    lopts.on_record = [&](const tracebuf::EventRecord& rec) { writer.append(rec); };
    const workloads::LiveRunResult run = workloads::run_workload_live(w, seed, lopts);
    if (!writer.finish(run.meta, run.tasks)) throw std::runtime_error("finish failed");
    std::string out;
    put_pod(out, writer.records_written());
    return out;
  });
  std::uint64_t records = 0;
  std::size_t pos = 0;
  if (!child.ok || !get_pod(child.payload, pos, records)) {
    std::error_code ec;
    std::filesystem::remove(path, ec);  // a torn file is not an input
    return 0;
  }
  return records;
}

double Rng::exponential(double mean) { return -std::log(1.0 - uniform()) * mean; }

std::vector<TimeNs> poisson_arrivals(Rng& rng, TimeNs start, double rate, double seconds) {
  std::vector<TimeNs> out;
  const double mean_ns = 1e9 / rate;
  const auto end = start + static_cast<TimeNs>(seconds * 1e9);
  for (double t = static_cast<double>(start) + rng.exponential(mean_ns);
       t < static_cast<double>(end); t += rng.exponential(mean_ns))
    out.push_back(static_cast<TimeNs>(t));
  return out;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void fresh_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

void remove_tree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

std::string fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

}  // namespace osn::bench
