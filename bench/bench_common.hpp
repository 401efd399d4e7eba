// Shared plumbing for the per-figure/per-table bench binaries.
//
// Every bench regenerates one artifact of the paper's evaluation. Simulated
// runs are cached on disk as OSNT traces (bench_cache/) so the six table
// benches share the same five application runs; delete the directory to
// force fresh runs. OSN_BENCH_SECONDS overrides the simulated duration
// (default 12 s per application), OSN_BENCH_SEED the seed.
#pragma once

#include <cstdio>
#include <string>

#include "common/format.hpp"
#include "common/table.hpp"
#include "noise/analysis.hpp"
#include "trace/trace_io.hpp"
#include "workloads/calibration.hpp"
#include "workloads/sequoia.hpp"
#include "workloads/workload.hpp"

namespace osn::bench {

std::uint64_t bench_seconds();
std::uint64_t bench_seed();

/// Runs (or loads from cache) one Sequoia application.
trace::TraceModel sequoia_trace(workloads::SequoiaApp app);

/// Adds a paper/measured row pair to a table.
void add_compare_rows(TextTable& table, const std::string& label,
                      const workloads::PaperEventRow& paper,
                      const noise::EventStats& measured);

/// Prints the standard bench header.
void print_header(const std::string& artifact, const std::string& description);

/// Prints a PASS/DEVIATION line for a shape criterion; returns `ok`.
bool check(bool ok, const std::string& what);

/// Writes `content` under bench_out/<name>, creating the directory.
void write_output(const std::string& name, const std::string& content);

}  // namespace osn::bench
