// ASCII rendering of execution traces and noise charts — the textual
// stand-in for the paper's Paraver screenshots and Matlab plots.
//
//  * render_timeline: a per-rank strip over a time window (Figs 2a, 5, 7):
//    each column is a time bucket, stamped with the dominant activity —
//    '.' user, 'T' periodic, 'P' page fault, 'S' scheduling, 'X' preemption,
//    'I' I/O. An optional kind filter reproduces the paper's "we filtered
//    out all the events but the page faults" views.
//  * render_spikes: the synthetic noise chart as one line per non-quiet
//    quantum with its per-activity decomposition (Figs 1b, 9b, 10).
#pragma once

#include <array>
#include <optional>
#include <string>

#include "noise/analysis.hpp"
#include "noise/chart.hpp"

namespace osn::exporter {

char category_glyph(noise::NoiseCategory c);

/// One strip per application rank over [t0, t1), `width` columns.
/// `only` restricts to a single category (e.g. page faults for Fig 5).
std::string render_timeline(const noise::NoiseAnalysis& analysis, TimeNs t0, TimeNs t1,
                            std::size_t width,
                            std::optional<noise::NoiseCategory> only = std::nullopt);

/// The synthetic chart as text: "t=<ms> noise=<us>: comp(dur) + ..." for
/// quanta whose noise exceeds `min_noise`; at most `max_rows` rows.
std::string render_spikes(const noise::SyntheticChart& chart, DurNs min_noise = 0,
                          std::size_t max_rows = 60);

/// Horizontal percentage bars for a per-category breakdown (Fig 3 rows).
std::string render_breakdown_row(const std::string& label,
                                 const noise::CategoryBreakdown& breakdown,
                                 std::size_t bar_width = 50);

}  // namespace osn::exporter
