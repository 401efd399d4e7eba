// monitor-ingest: writes beside reads.
//
// A seeded UMT trace (12 simulated seconds, the highest event rate of the
// five apps) is simulated and decoded into memory at set-up. Each replay
// feeds every record, unpaced, into a fresh monitor::Monitor whose segment
// store rotates every kSegmentMs of trace time, retains kRetainMs at full
// resolution and compacts what expires, with one injected noise step. While
// it ingests, a low-rate open-loop reader (one generator thread, one
// connection per wire) issues refresh, summary and timeseries requests
// about the store's sealed segments through an embedded serve::Server;
// summaries and timeseries name the newest sealed segment at issue time.
// The server's catalog is a directory of hard links to the sealed segments,
// each made as its segment seals and before the reader may name it: a
// query that a loaded host delays past the segment's retention still finds
// it, so no request fails for the benchmark's timing. Each arrival is sent
// on both wires, and after the replay every served document is compared
// with a direct query::Engine::run of the same plan on the same segment.
//
// The reader's rate and mix are this benchmark's assumption (README.md):
// nothing in the repository fixes how often a monitor dashboard polls.
//
// The gated figures are CPU times, taken where no other thread's work is
// counted: records ingested per CPU second of the ingest thread, and the
// CPU time of a cold timeseries query (query::Engine::run, the executor the
// server runs) on each full-resolution segment left in the store after a
// replay. The reader's wall-clock latencies are reported beside them.
#include <atomic>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "export/index_summary.hpp"
#include "loadgen.hpp"
#include "monitor/monitor.hpp"
#include "monitor/rolling.hpp"
#include "query/engine.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "trace/osnt_reader.hpp"

namespace osn::bench {
namespace {

constexpr std::size_t kUmt = 4;  // workloads::SequoiaApp::kUmt
constexpr DurNs kAppDuration = sec(12);
/// Segment length and full-resolution retention, in trace time. Each seal
/// and each compaction creates, renames and unlinks files. On a virtual disk
/// (ext4 mounted with online discard) the ~220 seals and compactions of
/// 100 ms segments took about half of every replay, and their cost drifted
/// with the host by 40 % between runs; with 500 ms segments the ingest rate
/// on that disk matches the rate with the store on tmpfs. With 6 s retained,
/// about twelve full-resolution segments are left after each replay for the
/// timed store queries.
constexpr DurNs kSegmentMs = 500;
constexpr DurNs kRetainMs = 6000;
constexpr double kInjectAt = 0.6;         ///< of the trace span
/// Reader arrivals per second; each is sent once per wire, so the store
/// sees twice as many requests.
constexpr double kArrivalRate = 20.0;
constexpr std::uint64_t kQuantumUs = 10000;  ///< timeseries bucket width
/// The reader's ops in turn. Two thirds are timeseries, which decode one
/// segment (milliseconds of work), so the median request is a timeseries:
/// refresh and the index-only summary answer in about a millisecond, and a
/// median among them would follow the host's wakeup latency, not the store.
constexpr serve::Op kReaderMix[] = {serve::Op::kRefresh,    serve::Op::kSummary,
                                    serve::Op::kTimeseries, serve::Op::kTimeseries,
                                    serve::Op::kTimeseries, serve::Op::kTimeseries};
constexpr double kMaxReplaySeconds = 10;  ///< reader schedule horizon per replay
/// The ingest loop looks for newly sealed segments every this many records
/// (a 500 ms segment of UMT holds about 35,000).
constexpr std::size_t kPublishEvery = 1024;

const char* op_label(serve::Op op) {
  switch (op) {
    case serve::Op::kSummary: return "summary";
    case serve::Op::kTimeseries: return "timeseries";
    default: return "refresh";
  }
}

class MonitorIngest final : public Workload {
 public:
  MonitorIngest(const Options& o, Tracer& t) : o_(o), t_(t) {}

  void setup() override {
    dir_ = o_.work_dir + "/monitor";
    fresh_dir(dir_);
    const std::string path = dir_ + "/umt.osnt";
    records_.clear();
    build_failed_ = build_trace_isolated(kUmt, kAppDuration, o_.seed, path) == 0;
    if (build_failed_) return;
    trace::OsntReader reader(path);
    uncut_summary_ = exporter::index_summary_json(reader).value_or("");
    meta_ = reader.meta();
    tasks_ = reader.tasks();
    records_ = reader.read_all().merged();
  }

  void measure(double seconds, Result& r) override {
    if (!counted_build_) {
      ++r.attempted;
      r.failed += build_failed_ ? 1 : 0;
      counted_build_ = true;
    }
    r.check(!build_failed_, "UMT input trace simulated");
    if (build_failed_) return;

    Samples rec_per_s, rec_per_cpu_s, query_ms, query_cpu_ms, lag_ms, rolling_ms, bytes_per_rec;
    std::map<std::string, Samples> rtt_by_op_wire;
    std::map<std::string, std::size_t> errors;  // failed store queries by error code
    std::uint64_t rotations = 0, compactions = 0, forced = 0, alerts = 0, replays = 0;
    std::uint64_t verified = 0, both_wires = 0;
    double net_json = 0, net_osnb = 0, write_hwm = 0, shed = 0, deadline = 0;
    Rng rng(mix_seed(o_.seed, 0x40A170));
    std::size_t issued = 0;  // reader arrivals sent so far (position in kReaderMix)

    const TimeNs stop_at = now_ns() + static_cast<DurNs>(seconds * 1e9);
    for (std::uint64_t k = 0; now_ns() < stop_at || k < 2; ++k) {
      const std::string store = dir_ + "/store";
      const std::string kept = dir_ + "/served";  // hard links to sealed segments
      fresh_dir(store);
      fresh_dir(kept);
      monitor::MonitorOptions mopts;
      mopts.store.dir = store;
      mopts.store.segment_ns = kSegmentMs * kNsPerMs;
      mopts.store.retain_ns = kRetainMs * kNsPerMs;
      mopts.inject.enabled = true;
      mopts.inject.duration_ns = 300 * kNsPerUs;
      mopts.inject.start_ns =
          meta_.start_ns + static_cast<DurNs>(kInjectAt * static_cast<double>(meta_.end_ns - meta_.start_ns));
      monitor::Monitor mon(mopts, meta_, tasks_);
      r.check(mon.ok(), "segment store opens");

      serve::ServerOptions sopts;
      sopts.dir = kept;
      sopts.workers = 2;  // osn-monitord's default
      sopts.monitor_status = [&mon] { return mon.status_json(); };
      sopts.monitor_alerts = [&mon] { return mon.alerts_json(); };
      serve::Server server(sopts);
      // Placement: the ingest thread on CPU 0, the server's threads on
      // CPUs 1..n-2 and the reader's generator on CPU n-1, so the three
      // never time-slice (with fewer than four CPUs ingest and the server
      // share CPUs 0..n-2).
      const unsigned server_cpu = o_.nproc >= 4 ? 1 : 0;
      pin_to_cpus(server_cpu, std::max(1u, o_.nproc - 1 - server_cpu));
      std::string error;
      if (!server.start(&error)) {
        r.check(false, "embedded server starts: " + error);
        return;
      }
      pin_to_cpus(0, std::max(1u, o_.nproc >= 4 ? 1 : o_.nproc - 1));

      // ---- the reader: open loop, every arrival on both wires ----
      LoadGen gen(server.port(), {serve::Wire::kJson, serve::Wire::kBinary});
      r.check(gen.ok(), "reader connects to the embedded server");
      std::vector<Scheduled> sched;  // due times relative to the reader's start
      for (const TimeNs due : poisson_arrivals(rng, 0, kArrivalRate, kMaxReplaySeconds)) {
        Scheduled s;
        s.due = due;
        // The mix position carries over between replays, counting only the
        // arrivals sent, so the run as a whole issues the mix in its
        // proportions although one replay sends only a few arrivals.
        s.request.op = kReaderMix[(issued + sched.size() / 2) % std::size(kReaderMix)];
        s.request.quantum_us = kQuantumUs;
        for (std::size_t conn = 0; conn < 2; ++conn) {
          s.conn = conn;
          sched.push_back(s);
        }
      }
      std::atomic<bool> stop{false};
      std::atomic<bool> sealed_one{false};
      std::vector<Completion> done;
      LoadGen::RunOptions ropts;
      ropts.stop = &stop;
      // Summaries and timeseries read the newest sealed full-resolution
      // segment, as published by the ingest thread (the generator never
      // waits on the monitor's lock).
      std::mutex newest_mu;
      std::string newest;
      ropts.prepare = [&](serve::Request& req) {
        if (req.op == serve::Op::kRefresh) return;
        std::lock_guard<std::mutex> lock(newest_mu);
        req.trace = newest;
      };
      std::uint64_t published = 0;
      auto publish = [&](std::uint64_t sealed) {
        if (sealed == published) return;
        published = sealed;
        const std::vector<monitor::SegmentInfo> segs = mon.segments();
        for (auto it = segs.rbegin(); it != segs.rend(); ++it) {
          if (it->compacted) continue;
          std::error_code ec;
          std::filesystem::create_hard_link(it->path, kept + "/" + it->name, ec);
          {
            std::lock_guard<std::mutex> lock(newest_mu);
            newest = std::filesystem::path(it->name).stem().string();
          }
          sealed_one = true;
          return;
        }
      };
      std::thread reader([&] {
        pin_to_cpus(o_.nproc - 1, 1);
        // Queries name a sealed segment, so the reader starts at the first
        // seal (the generator owns this CPU and may spin).
        while (!sealed_one && !stop) {
        }
        const TimeNs start = now_ns();
        for (Scheduled& s : sched) s.due += start;
        ropts.drain_until = start + sec(30);
        gen.run(sched, ropts, [&](const Completion& c) { done.push_back(c); });
      });

      // ---- the replay ----
      const std::uint64_t op = t_.begin("bench.op.replay", k + 1);
      const TimeNs t0 = now_ns();
      const DurNs c0 = thread_cpu_ns();
      {
        Scope s(t_, "monitor.ingest", k + 1);
        for (std::size_t n = 0; n < records_.size(); ++n) {
          mon.ingest(records_[n]);
          if (n % kPublishEvery == 0) publish(mon.store_stats().segments_sealed);
        }
      }
      const DurNs ingest_cpu = thread_cpu_ns() - c0;
      const TimeNs t1 = now_ns();
      {
        Scope s(t_, "monitor.finish", k + 1);
        mon.finish(meta_.end_ns);
      }
      t_.end(op);
      rec_per_s.add(static_cast<double>(records_.size()) / to_s(t1 - t0));
      rec_per_cpu_s.add(static_cast<double>(records_.size()) / to_s(ingest_cpu));
      stop = true;
      reader.join();

      const serve::NetGauges net = server.net_gauges();
      net_json += static_cast<double>(net.requests_json);
      net_osnb += static_cast<double>(net.requests_osnb);
      write_hwm = std::max(write_hwm, static_cast<double>(net.write_queue_hwm));
      shed += static_cast<double>(server.metrics().shed());
      deadline += static_cast<double>(server.metrics().deadline_exceeded());
      server.stop();

      std::map<std::string, Served> served;  // by plan fingerprint @ segment
      for (const Completion& c : done) {
        if (c.sent == 0) continue;
        issued += c.wire == serve::Wire::kJson ? 1 : 0;
        ++r.attempted;
        lag_ms.add(c.lag_ms());
        t_.add("bench.op.request", c.due, c.done, 0, c.index + 1);
        t_.add("serve.request", c.sent, c.done, 0, c.index + 1);
        if (!c.answered || !c.ok) {
          ++r.failed;
          ++errors[c.answered ? c.error : "unanswered"];
          continue;
        }
        query_ms.add(c.latency_ms());
        serve::Request req = sched[c.index].request;
        rtt_by_op_wire[std::string(op_label(req.op)) + "." +
                       (c.wire == serve::Wire::kBinary ? "osnb" : "json")]
            .add(c.rtt_ms());
        if (req.op == serve::Op::kRefresh) continue;
        req.trace = c.trace;
        Served& s = served[query::fingerprint(serve::plan_from_request(req)) + "@" + req.trace];
        if (s.wires.empty()) {
          s.request = req;
          s.doc = c.payload;
        } else {
          r.check(s.doc == c.payload, "same document for one plan on both wires (" +
                                          std::string(op_label(req.op)) + " " + req.trace + ")");
        }
        s.wires.insert(c.wire);
      }

      // ---- output checks ----
      {
        Scope s(t_, "bench.verify", k + 1);
        query::Engine engine;
        for (const auto& [key, sv] : served) {
          const std::string path = kept + "/" + sv.request.trace + ".osnt";
          std::string doc;
          try {
            trace::OsntReader reader_of(path);
            doc = engine.run(reader_of, sv.request.trace, serve::plan_from_request(sv.request));
          } catch (const std::exception& e) {
            doc = std::string("error: ") + e.what();
          }
          r.check(doc == sv.doc, "served document equals a direct Engine::run (" +
                                     std::string(op_label(sv.request.op)) + " " +
                                     sv.request.trace + ")");
          ++verified;
          both_wires += sv.wires.size() == 2 ? 1 : 0;
        }
      }
      // ---- store queries: a cold timeseries on every retained segment ----
      for (const monitor::SegmentInfo& seg : mon.segments()) {
        if (seg.compacted) continue;
        serve::Request req;
        req.op = serve::Op::kTimeseries;
        req.quantum_us = kQuantumUs;
        req.trace = std::filesystem::path(seg.name).stem().string();
        const query::Plan plan = serve::plan_from_request(req);
        Scope s(t_, "query.store_run", k + 1);
        const DurNs q0 = thread_cpu_ns();
        trace::OsntReader reader_of(seg.path);
        query::Engine engine;
        const std::string doc = engine.run(reader_of, req.trace, plan);
        query_cpu_ms.add(to_ms(thread_cpu_ns() - q0));
        r.check(!doc.empty(), "store timeseries query answered (" + req.trace + ")");
      }
      const monitor::StoreStats st = mon.store_stats();
      rotations += st.segments_sealed;
      compactions += st.compactions;
      forced += st.rotations_forced;
      alerts += mon.alert_count();
      ++replays;
      std::uint64_t store_bytes = 0;
      for (const monitor::SegmentInfo& seg : mon.segments()) store_bytes += seg.bytes;
      bytes_per_rec.add(static_cast<double>(store_bytes) / static_cast<double>(records_.size()));
      r.check(mon.ok(), "segment store healthy after the replay");
      r.check(mon.alert_count() == 1, "one injected noise step raises exactly one alert (got " +
                                          std::to_string(mon.alert_count()) + ")");
      if (k % 4 == 0) {
        const TimeNs q0 = now_ns();
        std::string rolled;
        {
          Scope s(t_, "query.rolling_run", k + 1);
          monitor::RollingView view(store);
          rolled = view.run(query::Plan{});
        }
        rolling_ms.add(to_ms(now_ns() - q0));
        r.check(!uncut_summary_.empty() && rolled == uncut_summary_,
                "RollingView full-span summary equals the uncut trace's summary");
      }
    }

    pin_to_cpus(0, o_.nproc);
    r.check(verified > 0 && both_wires > 0,
            "served store documents were checked, some on both wires (" +
                std::to_string(verified) + " plans, " + std::to_string(both_wires) +
                " on both wires)");

    // ---- end-to-end metrics ----
    r.set("throughput_per_cpu_s", rec_per_cpu_s.median(), "1/s", rec_per_cpu_s.size());
    r.set("p50_cpu_ms", query_cpu_ms.median(), "ms", query_cpu_ms.size());
    r.primary = 1e9 / rec_per_cpu_s.median();
    r.note("ingest_rec_per_s = " + fmt(rec_per_s.median(), 0) + " 1/s wall, " +
           fmt(rec_per_cpu_s.median(), 0) + " 1/s of ingest-thread CPU time (medians of " +
           std::to_string(rec_per_s.size()) + " replays of " + std::to_string(records_.size()) +
           " records)");
    r.note("store timeseries query CPU time = " + fmt(query_cpu_ms.median(), 3) +
           " ms (median, n=" + std::to_string(query_cpu_ms.size()) +
           ", cold, one retained segment each)");
    if (generator_kept_schedule(lag_ms, query_ms, r))
      r.note("store_query_p50_ms = " + fmt(query_ms.median()) + " ms (n=" +
             std::to_string(query_ms.size()) + ", " + fmt(2 * kArrivalRate, 0) +
             " req/s offered)");
    r.note("bench.gen_lag_p99_ms = " + fmt(lag_ms.quantile(0.99)) + " ms (n=" +
           std::to_string(lag_ms.size()) + ")");
    r.note("checked " + std::to_string(verified) + " served store plans against Engine::run (" +
           std::to_string(both_wires) + " served on both wires)");
    for (const auto& [code, n] : errors)
      r.note("store queries failed: " + std::to_string(n) + " x " + code);

    // ---- per-layer ----
    const double per_replay = replays ? 1.0 / static_cast<double>(replays) : 0.0;
    r.set("monitor.ingest_ns_per_rec", 1e9 / rec_per_cpu_s.median(), "ns", rec_per_cpu_s.size());
    r.set("monitor.rotations", static_cast<double>(rotations) * per_replay, "count");
    r.set("monitor.compactions", static_cast<double>(compactions) * per_replay, "count");
    r.set("monitor.forced_cuts", static_cast<double>(forced) * per_replay, "count");
    r.set("monitor.store_bytes_per_rec", bytes_per_rec.median(), "B");
    r.set("monitor.alerts", static_cast<double>(alerts) * per_replay, "count");
    r.set("query.rolling_run_ms", rolling_ms.median(), "ms", rolling_ms.size());
    r.set("bench.gen_lag_p99_ms", lag_ms.quantile(0.99), "ms", lag_ms.size());
    for (const auto& [key, s] : rtt_by_op_wire)
      r.set("serve.rtt_ms." + key, s.median(), "ms", s.size());
    r.set("net.requests_json", net_json, "count");
    r.set("net.requests_osnb", net_osnb, "count");
    r.set("net.write_queue_hwm", write_hwm, "B");
    r.set("serve.shed", shed, "count");
    r.set("serve.deadline_exceeded", deadline, "count");
  }

  void teardown() override { remove_tree(dir_); }

 private:
  /// One served store plan: its request, the first document served for it
  /// and the wires it was served on.
  struct Served {
    serve::Request request;
    std::string doc;
    std::set<serve::Wire> wires;
  };

  Options o_;
  Tracer& t_;
  std::string dir_;
  bool build_failed_ = false;
  bool counted_build_ = false;
  trace::TraceMeta meta_;
  std::map<Pid, trace::TaskInfo> tasks_;
  std::vector<tracebuf::EventRecord> records_;
  std::string uncut_summary_;
};

}  // namespace

std::unique_ptr<Workload> make_monitor_ingest(const Options& o, Tracer& t) {
  return std::make_unique<MonitorIngest>(o, t);
}

}  // namespace osn::bench
