// The monitoring pipeline in one object: segment store + window tracker +
// regression detector behind a mutex, so an ingest thread (replaying or
// live) and serve workers (rendering status/alert payloads) can share it.
//
// Data flow per record:
//   ingest(rec)
//     -> WindowTracker::advance        (close trace-time windows; each
//                                       closed window feeds the detector)
//     -> SegmentStore::append          (write + rotate/retain/compact; the
//                                       segment aggregator's noise observer
//                                       feeds WindowTracker::observe)
//
// Synthetic noise injection (InjectOptions) adds observations to the
// tracker WITHOUT touching the stored records — the controlled "noise step"
// used to validate the alert path end-to-end while the segment store keeps
// byte-identity with the uncut trace, mirroring the paper's
// injection-validation methodology at the monitoring layer.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "monitor/baseline.hpp"
#include "monitor/segment_store.hpp"

namespace osn::monitor {

/// Deterministic synthetic noise source for alert validation: from
/// `start_ns` (trace time) onward, one interval of `duration_ns` every
/// `period_ns`, attributed to `category`.
struct InjectOptions {
  bool enabled = false;
  TimeNs start_ns = 0;
  DurNs period_ns = ms(2);
  DurNs duration_ns = us(200);
  noise::NoiseCategory category = noise::NoiseCategory::kScheduling;
};

struct MonitorOptions {
  StoreOptions store;
  DurNs window_ns = ms(50);
  DetectorOptions detector;
  InjectOptions inject;
};

class Monitor {
 public:
  /// `template_meta`/`tasks` as for SegmentStore (the stream's identity).
  Monitor(MonitorOptions opts, trace::TraceMeta template_meta,
          std::map<Pid, trace::TaskInfo> tasks);

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  bool ok() const;

  /// Feed the next record of the merged stream.
  void ingest(const tracebuf::EventRecord& rec);

  /// Seals the active segment and closes the final window. Idempotent.
  void finish(TimeNs end_ns);

  std::size_t alert_count() const;
  std::vector<SegmentInfo> segments() const;
  StoreStats store_stats() const;

  /// The `monitor_status` serve payload: store + pipeline counters.
  std::string status_json() const;
  /// The `alerts` serve payload.
  std::string alerts_json() const;

 private:
  /// Called with mutex_ held (from ingest, via the store's observer).
  void observe_noise(noise::NoiseCategory cat, TimeNs end_ts, DurNs charged);

  mutable std::mutex mutex_;
  MonitorOptions opts_;
  std::vector<Pid> app_pids_;        ///< sorted: the tasks whose noise is observed
  WindowTracker::Sink window_sink_;  ///< closed windows -> detector_ (mutex_ held)
  std::unique_ptr<SegmentStore> store_ OSN_GUARDED_BY(mutex_);
  WindowTracker tracker_ OSN_GUARDED_BY(mutex_);
  RegressionDetector detector_ OSN_GUARDED_BY(mutex_);
  TimeNs next_inject_ OSN_GUARDED_BY(mutex_) = 0;
  std::uint64_t injected_ OSN_GUARDED_BY(mutex_) = 0;
  bool finished_ OSN_GUARDED_BY(mutex_) = false;
};

}  // namespace osn::monitor
