// dashboard: an open loop of dashboard queries against an in-process
// serve::Server holding the five Sequoia traces.
//
// The catalog (AMG, IRS, LAMMPS, SPHOT, UMT; 12 simulated seconds each,
// seeded by the workload seed) is built at set-up, each simulated run in a
// forked child so a simulator abort is a counted failure; an app whose run
// aborted is absent from the catalog, and the dashboard shows the others.
// One generator thread drives four connections, one per wire (line JSON,
// OSNB) for each half of the mix, with Poisson arrivals:
//
//  * repeated panels — summary, timeseries, topk and chart per trace: after
//    their first execution these are result-cache hits, and the summaries
//    take the index-only fast path;
//  * ad-hoc plans (kAdhocShare of requests) — window / timeseries / topk over
//    a window drawn from a fixed set (kWindowsPerTrace per trace, optionally
//    cpu-restricted) with a little jitter, so they miss the result cache and
//    reach the chunk-range model cache, whose default 256 MiB budget the set
//    exceeds: hits, misses and evictions all occur, and misses decode.
//
// A failed request counts as infinitely late in every latency figure.
//
// The first half of the run offers the reference rate (query p50/p99); the
// second half steps through a fixed rate ladder for max_qps. Afterwards every
// distinct plan is replayed through a direct query::Engine and compared with
// what the server returned on either wire.
//
// Its CPU-time figures, as in the gated workloads: requests answered per CPU
// second of the server's threads at the reference rate, and the CPU time of
// a cold direct Engine::run of a served plan.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "loadgen.hpp"
#include "query/engine.hpp"
#include "serve/client.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "trace/osnt_reader.hpp"

namespace osn::bench {
namespace {

constexpr DurNs kAppDuration = sec(12);
constexpr const char* kApps[] = {"amg", "irs", "lammps", "sphot", "umt"};
constexpr std::size_t kWindowsPerTrace = 60;
constexpr std::uint64_t kWindowRecords = 100000;
/// Ad-hoc windows shrink inward by up to this much: a fresh plan (result
/// cache miss) over the same chunk range (model cache key).
constexpr double kJitterMs = 10.0;
constexpr std::uint64_t kPanelQuantumUs = 100000;
constexpr double kChartPanelMs = 50.0;
constexpr double kAdhocShare = 0.2;
constexpr double kRefRate = 200.0;  ///< requests/s
/// max_qps counts a ladder rate as met when its p99 stays at or under this.
constexpr double kP99LimitMs = 100.0;
/// Offered rates for max_qps, in sqrt(2) steps up past saturation.
constexpr double kLadder[] = {283.0, 400.0, 566.0, 800.0, 1131.0};
/// Ad-hoc plans also timed through a direct Engine (cold, then cached).
constexpr std::size_t kTimedAdhoc = 32;
/// After a phase's last due time, outstanding requests may take this long;
/// later ones count as unanswered (failed, and infinitely late).
constexpr DurNs kDrainGrace = sec(20);
constexpr double kRefShare = 0.5;  ///< of the run at the reference rate

struct Window {
  std::string trace;
  double from_ms = 0;
  double to_ms = 0;
  std::optional<CpuId> cpu;
  std::uint64_t records = 0;  ///< records in the window's chunk range
};

const char* op_label(serve::Op op) {
  switch (op) {
    case serve::Op::kSummary: return "summary";
    case serve::Op::kTimeseries: return "timeseries";
    case serve::Op::kTopK: return "topk";
    case serve::Op::kChart: return "chart";
    case serve::Op::kWindow: return "window";
    case serve::Op::kRefresh: return "refresh";
    default: return "other";
  }
}

std::string wire_label(serve::Wire w) { return w == serve::Wire::kBinary ? "osnb" : "json"; }

/// Pulls `"<section>": { ... "<field>": N` out of the metrics document.
double metrics_field(const std::string& doc, const std::string& section, const std::string& field) {
  std::size_t at = 0;
  if (!section.empty()) {
    at = doc.find("\"" + section + "\"");
    if (at == std::string::npos) return 0.0;
  }
  at = doc.find("\"" + field + "\"", at);
  if (at == std::string::npos) return 0.0;
  at = doc.find(':', at);
  return at == std::string::npos ? 0.0 : std::strtod(doc.c_str() + at + 1, nullptr);
}

struct PhaseStats {
  double rate = 0;
  Samples latency_ms;
  Samples lag_ms;  ///< how late the generator issued each request
  std::map<std::string, std::size_t> errors;
  std::size_t attempted = 0;
};

class Dashboard final : public Workload {
 public:
  Dashboard(const Options& o, Tracer& t) : o_(o), t_(t) {}

  void setup() override {
    dir_ = o_.work_dir + "/dashboard";
    fresh_dir(dir_);
    windows_.clear();
    catalog_.clear();
    build_failures_ = 0;
    for (std::size_t app = 0; app < std::size(kApps); ++app) {
      const std::string path = dir_ + "/" + kApps[app] + ".osnt";
      if (build_trace_isolated(app, kAppDuration, o_.seed, path) == 0) {
        ++build_failures_;
        continue;
      }
      trace::OsntReader reader(path);
      const auto& meta = reader.meta();
      catalog_.push_back({kApps[app], static_cast<double>(meta.end_ns) / 1e6});
      // Windows hold a fixed number of records (whole chunks), so an ad-hoc
      // query costs about the same on every app whatever its event rate.
      const auto& chunks = reader.chunks();
      for (std::size_t j = 0; j < kWindowsPerTrace; ++j) {
        std::size_t lo = j * chunks.size() / kWindowsPerTrace;
        std::size_t hi = lo;
        Window w;
        while (hi < chunks.size() && w.records < kWindowRecords) w.records += chunks[hi++].records;
        while (w.records < kWindowRecords && lo > 0) w.records += chunks[--lo].records;
        w.trace = kApps[app];
        w.from_ms = static_cast<double>(chunks[lo].t_first) / 1e6;
        w.to_ms = static_cast<double>(chunks[hi - 1].t_last) / 1e6;
        if (j % 2 == 1) w.cpu = static_cast<CpuId>(j / 2 % meta.n_cpus);
        windows_.push_back(w);
      }
    }
  }

  void measure(double seconds, Result& r) override {
    if (!counted_builds_) {
      r.attempted += std::size(kApps);
      r.failed += build_failures_;
      counted_builds_ = true;
    }
    if (build_failures_ > 0)
      r.note(std::to_string(build_failures_) +
             " catalog trace(s) failed to simulate (counted as failed); the dashboard shows the "
             "others");
    r.check(!catalog_.empty(), "at least one catalog trace simulated");
    if (catalog_.empty()) return;
    std::uint64_t window_bytes = 0;
    for (const Window& w : windows_) window_bytes += w.records * sizeof(tracebuf::EventRecord);
    std::uint64_t catalog_bytes = 0;
    for (const CatalogTrace& t : catalog_)
      catalog_bytes += std::filesystem::file_size(dir_ + "/" + t.name + ".osnt");
    r.note("catalog: " + std::to_string(catalog_.size()) + " traces, " +
           fmt(static_cast<double>(catalog_bytes) / 1e6, 1) + " MB on disk; ad-hoc window set: " +
           std::to_string(windows_.size()) + " windows, ~" +
           fmt(static_cast<double>(window_bytes) / (1 << 20), 0) +
           " MiB decoded (model cache budget 256 MiB)");

    serve::ServerOptions sopts;
    sopts.dir = dir_;
    // One core stays with the load generator: a starved generator would
    // measure its own lag, not the server.
    sopts.workers = std::max(1u, o_.nproc - 1);
    serve::Server server(sopts);
    // Placement: the server's threads (created by start) run on CPUs
    // 0..n-2, the generator on CPU n-1.
    pin_to_cpus(0, std::max(1u, o_.nproc - 1));
    std::string error;
    const bool started = server.start(&error);
    pin_to_cpus(o_.nproc - 1, 1);
    if (!started) {
      pin_to_cpus(0, o_.nproc);
      r.check(false, "server starts: " + error);
      return;
    }
    LoadGen gen(server.port(), {serve::Wire::kJson, serve::Wire::kBinary, serve::Wire::kJson,
                                serve::Wire::kBinary});
    r.check(gen.ok(), "generator connects to the server");
    Rng rng(mix_seed(o_.seed, 0xDA5B0A3D));

    // ---- warmup: every panel once on every connection (a dashboard that
    // has been open for a while), so the reference phase measures the
    // steady mix rather than the first paint ----
    {
      std::vector<Scheduled> warm;
      const TimeNs t0 = now_ns();
      for (std::size_t p = 0; p < catalog_.size() * 4; ++p)
        for (std::size_t c = 0; c < gen.connections(); ++c)
          warm.push_back(Scheduled{t0, c, panel_request(p), 1});
      PhaseStats ws;
      LoadGen::RunOptions wopts;
      wopts.drain_until = t0 + sec(60);
      gen.run(warm, wopts,
              [&](const Completion& c) { record(c, warm[c.index], ws, r, nullptr, nullptr); });
    }

    // ---- reference rate ----
    const std::string m0 = metrics_doc(server.port());
    std::map<std::string, Samples> rtt_by_op_wire;
    std::map<std::string, Samples> rtt_by_plan;  // cached panel RTTs
    // The server's CPU time: the process's, less this (the generator's)
    // thread's.
    const DurNs process0 = process_cpu_ns();
    const DurNs gen0 = thread_cpu_ns();
    const PhaseStats ref =
        run_phase(gen, rng, kRefRate, seconds * kRefShare, r, &rtt_by_op_wire, &rtt_by_plan);
    const DurNs server_cpu = (process_cpu_ns() - process0) - (thread_cpu_ns() - gen0);
    const Samples& lag_ms = ref.lag_ms;
    for (const auto& [code, n] : ref.errors)
      r.note("reference-rate errors: " + std::to_string(n) + " x " + code);
    const std::string m1 = metrics_doc(server.port());
    const double misses = metrics_field(m1, "model_cache", "misses") -
                          metrics_field(m0, "model_cache", "misses");
    const double cold_share = ref.attempted ? misses / static_cast<double>(ref.attempted) : 0;

    // ---- rate ladder ----
    std::vector<PhaseStats> ladder;
    const double level_s = seconds * (1.0 - kRefShare) / static_cast<double>(std::size(kLadder));
    for (const double rate : kLadder)
      ladder.push_back(run_phase(gen, rng, rate, level_s, r, nullptr, nullptr));

    const std::string m2 = metrics_doc(server.port());
    const serve::NetGauges net = server.net_gauges();
    r.set("serve.shed", static_cast<double>(server.metrics().shed()), "count");
    r.set("serve.deadline_exceeded", static_cast<double>(server.metrics().deadline_exceeded()),
          "count");
    server.stop();
    pin_to_cpus(0, o_.nproc);
    r.set("peak_rss_mb", peak_rss_mb(), "MB");

    // ---- end-to-end metrics ----
    const double p99 = ref.latency_ms.quantile(0.99);
    const double qps = max_qps(ladder, r);
    std::size_t answered = ref.attempted;
    for (const auto& [code, n] : ref.errors) answered -= n;
    r.set("throughput_per_cpu_s", static_cast<double>(answered) / to_s(server_cpu), "1/s",
          answered);
    r.primary = ref.latency_ms.median();
    if (generator_kept_schedule(lag_ms, ref.latency_ms, r)) {
      r.note("query_p50_ms = " + fmt(ref.latency_ms.median()) + " ms at " + fmt(kRefRate, 0) +
             " req/s (n=" + std::to_string(ref.latency_ms.size()) + ")");
      r.note("query_p99_ms = " + fmt(p99) + " ms at " + fmt(kRefRate, 0) + " req/s (n=" +
             std::to_string(ref.latency_ms.size()) + ", " +
             std::to_string(ref.latency_ms.count_above(0.99)) + " beyond)");
      r.note("max_qps = " + fmt(qps, 1) + " req/s (p99 limit " + fmt(kP99LimitMs, 1) + " ms)");
    }
    r.note("cold share at the reference rate = " + fmt(cold_share) +
           " (model-cache misses per request)");
    r.note("bench.gen_lag_p99_ms = " + fmt(lag_ms.quantile(0.99)) + " ms (n=" +
           std::to_string(lag_ms.size()) + ", p50 " + fmt(lag_ms.median()) + ", p90 " +
           fmt(lag_ms.quantile(0.9)) + ", max " + fmt(lag_ms.max()) + ")");

    // ---- per-layer ----
    r.set("bench.gen_lag_p99_ms", lag_ms.quantile(0.99), "ms", lag_ms.size());
    r.set("bench.cold_share", cold_share, "ratio", ref.attempted);
    for (const auto& [key, s] : rtt_by_op_wire)
      r.set("serve.rtt_ms." + key, s.median(), "ms", s.size());
    const double rh = metrics_field(m2, "result_cache", "hits");
    const double rm = metrics_field(m2, "result_cache", "misses");
    const double mh = metrics_field(m2, "model_cache", "hits");
    const double mm = metrics_field(m2, "model_cache", "misses");
    r.set("query.result_cache_hit_ratio", rh + rm > 0 ? rh / (rh + rm) : 0, "ratio");
    r.set("query.model_cache_hit_ratio", mh + mm > 0 ? mh / (mh + mm) : 0, "ratio");
    r.set("query.model_cache_evictions", metrics_field(m2, "model_cache", "evictions"), "count");
    r.set("net.requests_json", static_cast<double>(net.requests_json), "count");
    r.set("net.requests_osnb", static_cast<double>(net.requests_osnb), "count");
    r.set("net.write_queue_hwm", static_cast<double>(net.write_queue_hwm), "B");

    replay(r, rtt_by_plan);
  }

  void teardown() override { remove_tree(dir_); }

 private:
  /// One served plan: its request, the first document served for it, and
  /// the wires it was served on.
  struct Served {
    serve::Request request;
    std::string doc;
    std::set<serve::Wire> wires;
    std::size_t served = 0;
    bool panel = false;
  };

  std::string metrics_doc(std::uint16_t port) {
    serve::Client client("127.0.0.1", port, Deadline::after(sec(5)));
    serve::Request req;
    req.op = serve::Op::kMetrics;
    const serve::Response resp = client.call(req, Deadline::after(sec(5)));
    return resp.ok ? resp.payload : std::string();
  }

  /// Panel i of the catalog: four per trace.
  serve::Request panel_request(std::size_t i) const {
    serve::Request req;
    const CatalogTrace& t = catalog_[i / 4];
    req.trace = t.name;
    static constexpr serve::Op kPanels[] = {serve::Op::kSummary, serve::Op::kTimeseries,
                                             serve::Op::kTopK, serve::Op::kChart};
    req.op = kPanels[i % 4];
    req.quantum_us = kPanelQuantumUs;
    // The chart panel shows the most recent kChartPanelMs of the trace: a
    // full-span chart lists every interruption component and runs to
    // megabytes, not a panel.
    if (req.op == serve::Op::kChart) {
      req.has_window = true;
      req.window_from_ms = t.end_ms - kChartPanelMs;
      req.window_to_ms = t.end_ms;
    }
    return req;
  }

  serve::Request adhoc_request(Rng& rng) const {
    serve::Request req;
    const Window& w = windows_[rng.below(windows_.size())];
    req.trace = w.trace;
    req.has_window = true;
    req.window_from_ms = w.from_ms + rng.uniform() * kJitterMs;
    req.window_to_ms = w.to_ms - rng.uniform() * kJitterMs;
    req.cpu = w.cpu;
    switch (rng.below(3)) {
      case 0: req.op = serve::Op::kWindow; break;
      case 1:
        req.op = serve::Op::kTimeseries;
        req.quantum_us = 20000 + 1000 * rng.below(181);
        break;
      default:
        req.op = serve::Op::kTopK;
        req.k = 1 + rng.below(8);
        break;
    }
    return req;
  }

  PhaseStats run_phase(LoadGen& gen, Rng& rng, double rate, double seconds, Result& r,
                       std::map<std::string, Samples>* rtt_by_op_wire,
                       std::map<std::string, Samples>* rtt_by_plan) {
    PhaseStats ps;
    ps.rate = rate;
    const TimeNs start = now_ns() + 5 * kNsPerMs;
    std::vector<Scheduled> sched;
    // Panels refresh over connections 0/1, ad-hoc plans go over 2/3 (one of
    // each wire per class): a long cold query never head-of-line blocks the
    // dashboard's cached panels.
    std::size_t panels = 0, adhocs = 0;
    for (const TimeNs due : poisson_arrivals(rng, start, rate, seconds)) {
      Scheduled s;
      s.due = due;
      const bool adhoc = rng.uniform() < kAdhocShare;
      s.conn = adhoc ? 2 + adhocs++ % 2 : panels++ % 2;
      s.request = adhoc ? adhoc_request(rng) : panel_request(rng.below(catalog_.size() * 4));
      s.tag = adhoc ? 0 : 1;
      sched.push_back(s);
    }
    const TimeNs end = start + static_cast<DurNs>(seconds * 1e9);
    const std::uint64_t span = t_.begin("bench.phase");
    LoadGen::RunOptions ropts;
    ropts.drain_until = end + kDrainGrace;
    gen.run(sched, ropts, [&](const Completion& c) {
      record(c, sched[c.index], ps, r, rtt_by_op_wire, rtt_by_plan);
    });
    t_.end(span);
    return ps;
  }

  /// Accounts one completion: attempt, failure, latency, generator lag, a
  /// span pair, and the per-plan document checks.
  void record(const Completion& c, const Scheduled& sched, PhaseStats& ps, Result& r,
              std::map<std::string, Samples>* rtt_by_op_wire,
              std::map<std::string, Samples>* rtt_by_plan) {
    ++ps.attempted;
    ++r.attempted;
    ps.lag_ms.add(c.lag_ms());
    // The end-to-end operation (due -> answer) and its serve round trip
    // (send -> answer).
    t_.add("bench.op.request", c.due, c.done, 0, c.index + 1);
    t_.add("serve.request", c.sent, c.done, 0, c.index + 1);
    if (!c.answered || !c.ok) {
      ++r.failed;
      ++ps.errors[c.answered ? c.error : "unanswered"];
      // A failed request misses every latency limit.
      ps.latency_ms.add(std::numeric_limits<double>::infinity());
      return;
    }
    ps.latency_ms.add(c.latency_ms());
    const serve::Request& req = sched.request;
    const std::string key = query::fingerprint(serve::plan_from_request(req)) + "@" + req.trace;
    Served& s = served_[key];
    if (s.wires.empty()) {
      s.request = req;
      s.doc = c.payload;
      s.panel = sched.tag == 1;
    } else {
      r.check(s.doc == c.payload, "same document for a repeated plan on both wires (" +
                                      std::string(op_label(req.op)) + " " + req.trace + ")");
    }
    s.wires.insert(c.wire);
    ++s.served;
    if (rtt_by_op_wire)
      (*rtt_by_op_wire)[std::string(op_label(req.op)) + "." + wire_label(c.wire)].add(c.rtt_ms());
    if (rtt_by_plan && s.panel && s.served > 1) (*rtt_by_plan)[key].add(c.rtt_ms());
  }

  /// Highest offered rate whose p99 meets the limit, interpolated (in log
  /// space) between the last passing and the first failing ladder level so
  /// the figure moves continuously with performance instead of jumping a
  /// whole level.
  ///
  /// A level's p99 is taken over every issued request, a failed or
  /// unanswered one counting as infinitely late; the open loop keeps issuing
  /// through an overload, so a growing backlog shows as a growing p99.
  /// Per-level p99s are noisy, so the curve is made monotone (running
  /// maximum) first.
  double max_qps(const std::vector<PhaseStats>& ladder, Result& r) {
    const double limit = kP99LimitMs;
    std::string line = "rate ladder:";
    std::vector<double> env;
    for (const PhaseStats& p : ladder) {
      const double p99 = p.latency_ms.quantile(0.99);
      env.push_back(env.empty() ? p99 : std::max(env.back(), p99));
      line += " " + fmt(p.rate, 0) + "/s p99=" + fmt(p99, 2) + "ms";
      for (const auto& [code, n] : p.errors) line += "[" + code + " x" + std::to_string(n) + "]";
      line += "[lag p99 " + fmt(p.lag_ms.quantile(0.99), 2) + "]";
    }
    r.note(line);
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      if (env[i] <= limit) continue;
      if (i == 0) {
        r.note("max_qps: the lowest ladder rate already misses the p99 limit");
        return ladder[0].rate * std::min(1.0, limit / env[0]);
      }
      if (!std::isfinite(env[i])) return ladder[i - 1].rate;
      const double f =
          (std::log(limit) - std::log(env[i - 1])) / (std::log(env[i]) - std::log(env[i - 1]));
      return std::exp(std::log(ladder[i - 1].rate) +
                      f * (std::log(ladder[i].rate) - std::log(ladder[i - 1].rate)));
    }
    r.note("max_qps: every ladder rate met the p99 limit (value is the top rate)");
    return ladder.back().rate;
  }

  /// Replays every served plan through a direct Engine: documents must be
  /// byte-identical; a sample of plans also times the engine cold (first
  /// run) and cached (result-cache hit), the query layer without serve/net.
  void replay(Result& r, const std::map<std::string, Samples>& rtt_by_plan) {
    const std::uint64_t op = t_.begin("bench.replay");
    std::map<std::string, std::unique_ptr<trace::OsntReader>> readers;
    for (const CatalogTrace& t : catalog_)
      readers[t.name] = std::make_unique<trace::OsntReader>(dir_ + "/" + t.name + ".osnt");
    query::Engine timing;  // default budgets, serial: the server's configuration
    Samples cold_ms, cold_cpu_ms, cached_ms, fast_ms, overhead_ms;
    std::vector<const Served*> rest;
    std::size_t timed_adhoc = 0;
    for (const auto& [key, s] : served_) {
      if (!s.panel && timed_adhoc++ >= kTimedAdhoc) {
        rest.push_back(&s);
        continue;
      }
      trace::OsntReader& reader = *readers.at(s.request.trace);
      const query::Plan plan = serve::plan_from_request(s.request);
      TimeNs t0 = now_ns();
      const DurNs c0 = thread_cpu_ns();
      std::string doc;
      {
        Scope sp(t_, "query.engine_run");
        doc = timing.run(reader, s.request.trace, plan);
      }
      const double cold = to_ms(now_ns() - t0);
      cold_cpu_ms.add(to_ms(thread_cpu_ns() - c0));
      t0 = now_ns();
      {
        Scope sp(t_, "query.engine_run");
        timing.run(reader, s.request.trace, plan);
      }
      const double cached = to_ms(now_ns() - t0);
      cold_ms.add(cold);
      cached_ms.add(cached);
      if (s.request.op == serve::Op::kSummary) fast_ms.add(cold);
      auto it = rtt_by_plan.find(key);
      if (it != rtt_by_plan.end() && !it->second.empty())
        overhead_ms.add(it->second.median() - cached);
      r.check(doc == s.doc, "served document equals a direct Engine::run (" +
                                std::string(op_label(s.request.op)) + " " + s.request.trace + ")");
    }
    // The remaining plans are only verified, on every core (one shared
    // engine; its caches and the readers are thread-safe).
    query::Engine verify;
    std::vector<char> same(rest.size(), 0);
    {
      ThreadPool pool(o_.nproc);
      pool.parallel_for(rest.size(), [&](std::size_t i) {
        const Served& s = *rest[i];
        same[i] = verify.run(*readers.at(s.request.trace), s.request.trace,
                             serve::plan_from_request(s.request)) == s.doc;
      });
    }
    for (std::size_t i = 0; i < rest.size(); ++i)
      r.check(same[i] != 0, "served document equals a direct Engine::run (" +
                                std::string(op_label(rest[i]->request.op)) + " " +
                                rest[i]->request.trace + ")");
    t_.end(op);
    std::size_t both_wires = 0;
    for (const auto& [key, s] : served_) both_wires += s.wires.size() == 2 ? 1 : 0;
    r.note("replayed all " + std::to_string(served_.size()) +
           " distinct served plans through Engine::run (" + std::to_string(both_wires) +
           " served on both wires)");
    r.set("p50_cpu_ms", cold_cpu_ms.median(), "ms", cold_cpu_ms.size());
    r.set("query.engine_cold_ms", cold_ms.median(), "ms", cold_ms.size());
    r.set("query.engine_cached_ms", cached_ms.median(), "ms", cached_ms.size());
    r.set("query.fast_path_summary_ms", fast_ms.median(), "ms", fast_ms.size());
    r.set("serve.overhead_ms", overhead_ms.median(), "ms", overhead_ms.size());
    served_.clear();
  }

  Options o_;
  Tracer& t_;
  std::string dir_;
  std::vector<Window> windows_;
  /// Traces whose simulation succeeded, in kApps order.
  struct CatalogTrace {
    std::string name;
    double end_ms = 0;
  };
  std::vector<CatalogTrace> catalog_;
  std::size_t build_failures_ = 0;
  bool counted_builds_ = false;
  std::map<std::string, Served> served_;
};

}  // namespace

std::unique_ptr<Workload> make_dashboard(const Options& o, Tracer& t) {
  return std::make_unique<Dashboard>(o, t);
}

}  // namespace osn::bench
