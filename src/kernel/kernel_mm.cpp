// Demand paging: the touch/fault path.
//
// A task touching a region advances page by page; already-mapped pages cost
// only user time, while the first touch of an unmapped page raises a page
// fault whose handler runs as a kernel frame with a per-kind duration model
// (minor anonymous, copy-on-write, file-backed minor/major). The paper found
// page faults to be the dominant noise source for AMG and UMT (82-87% of
// total noise) with application-specific temporal distributions (Fig. 5);
// where faults happen in time is fully controlled by the workload programs.
#include "common/assert.hpp"
#include "kernel/kernel.hpp"

namespace osn::kernel {

void Kernel::continue_touch(CpuId cpu, Task& t) {
  auto* touch = std::get_if<OpTouch>(&t.op);
  OSN_ASSERT_MSG(touch != nullptr, "continue_touch without an OpTouch");
  MemRegion& region = t.regions[touch->act.region];
  const std::uint64_t end_page = touch->act.first_page + touch->act.pages;

  // Walk forward over mapped pages (pure user time) until the next fault or
  // the end of the touch; batch the user time into one segment.
  std::uint64_t mapped_run = 0;
  std::uint64_t page = touch->next_page;
  while (page < end_page && region.present[page]) {
    ++mapped_run;
    ++page;
  }

  if (page >= end_page) {
    // Touch complete: burn the trailing user time, then the op is done.
    t.op = OpNone{};
    t.user_remaining = mapped_run * touch->act.per_page_cost;
    if (t.user_remaining > 0) {
      t.op = OpCompute{};
      resume_user(cpu);
    } else {
      request_next_action(cpu, t);
    }
    return;
  }

  // Unmapped page at `page`: run the user time up to it, then fault.
  touch->next_page = page;
  if (mapped_run > 0) {
    t.user_remaining = mapped_run * touch->act.per_page_cost;
    resume_user(cpu);  // returns here (continue_touch) when the segment ends
    return;
  }
  handle_page_fault(cpu, t, region, page, touch->act.write);
}

void Kernel::handle_page_fault(CpuId cpu, Task& t, MemRegion& region, std::uint64_t page,
                               bool write) {
  CpuState& c = cpus_[cpu];
  // A COW region breaks the shared page only on write; a read maps it as a
  // plain minor fault.
  trace::PageFaultKind kind = region.fault_kind;
  if (!write && kind == trace::PageFaultKind::kCow) kind = trace::PageFaultKind::kMinorAnon;

  DurNs duration = 0;
  switch (kind) {
    case trace::PageFaultKind::kMinorAnon: duration = models_.pf_minor_anon.sample(c.rng); break;
    case trace::PageFaultKind::kCow: duration = models_.pf_cow.sample(c.rng); break;
    case trace::PageFaultKind::kFileMinor: duration = models_.pf_file_minor.sample(c.rng); break;
    case trace::PageFaultKind::kFileMajor: duration = models_.pf_file_major.sample(c.rng); break;
  }

  const Pid pid = t.pid;
  const std::uint32_t region_id = region.id;
  push_frame(cpu, FrameKind::kPageFault, static_cast<std::uint64_t>(kind), duration,
             [pid, region_id, page](Kernel& k) {
               Task& tt = k.task(pid);
               MemRegion& r = tt.regions[region_id];
               r.present[page] = true;
               ++tt.fault_count;
               auto* tch = std::get_if<OpTouch>(&tt.op);
               OSN_ASSERT(tch != nullptr && tch->next_page == page);
               tch->next_page = page + 1;
               // The frame epilogue returns through frame_completed ->
               // resume_context -> resume_user -> user_segment_done ->
               // continue_touch, which picks up at next_page.
             });
}

}  // namespace osn::kernel
