// osn-lint: the repo's static analyzer (see DESIGN.md §11).
//
// Exit codes: 0 clean, 1 findings, 2 bad command line, configuration error
// or --budget-ms exceeded. The check-static target and the StaticLint ctest
// run this over the whole tree; StaticLintPerf additionally asserts the
// full-repo run stays under its time budget.

#include <chrono>
#include <cstdio>
#include <string>

#include "common/flag_value.hpp"
#include "lint/driver.hpp"

namespace {

void usage() {
  std::fputs(
      "usage: osn-lint [--root DIR] [--rule NAME]... [--json]\n"
      "                [--budget-ms N] [--list-rules]\n"
      "\n"
      "Lints *.cpp/*.hpp under DIR/src and DIR/tools against the rule set\n"
      "described in DESIGN.md §11. Layering is read from DIR/tools/\n"
      "layering.txt. Suppress per line with `// osn-lint: allow(rule)`.\n"
      "\n"
      "  --root DIR      repo root to lint (default: .)\n"
      "  --rule NAME     run only this rule (repeatable)\n"
      "  --json          machine-readable output\n"
      "  --budget-ms N   fail (exit 2) if the run exceeds N milliseconds\n"
      "  --list-rules    print the rule names and summaries, then exit\n",
      stdout);
}

constexpr osn::Flag kFlags[] = {
    {"root", osn::Takes::kValue},       {"rule", osn::Takes::kValue},
    {"json", osn::Takes::kNothing},     {"budget-ms", osn::Takes::kValue},
    {"list-rules", osn::Takes::kNothing}, {"help", osn::Takes::kNothing},
    {"h", osn::Takes::kNothing},
};

}  // namespace

int main(int argc, char** argv) {
  const osn::Args args(argc, argv, kFlags);
  args.reject_positionals();
  if (args.has("help") || args.has("h")) {
    usage();
    return 0;
  }
  if (args.has("list-rules")) {
    for (const auto& r : osn::lint::all_rules()) std::printf("%-18s %s\n", r.name, r.summary);
    return 0;
  }
  const std::string root = args.get("root", ".");
  osn::lint::Options opt;
  opt.rules = args.all("rule");
  const std::uint64_t budget_ms = args.get_u64("budget-ms", osn::kU64Max);

  const auto start = std::chrono::steady_clock::now();
  const osn::lint::RunResult result = osn::lint::lint_tree(root, opt);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  if (args.has("json"))
    std::fputs(osn::lint::to_json(result).c_str(), stdout);
  else
    std::fputs(osn::lint::to_human(result).c_str(), stdout);

  if (!result.errors.empty()) return 2;
  if (static_cast<std::uint64_t>(elapsed) > budget_ms) {
    std::fprintf(stderr, "osn-lint: run took %lldms, over the %llums budget\n",
                 static_cast<long long>(elapsed), static_cast<unsigned long long>(budget_ms));
    return 2;
  }
  return result.findings.empty() ? 0 : 1;
}
