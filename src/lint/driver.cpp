#include "lint/driver.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json_writer.hpp"

namespace osn::lint {

namespace {

bool locked_subsystem_path(const std::string& path) {
  return path.rfind("src/net/", 0) == 0 || path.rfind("src/serve/", 0) == 0;
}

}  // namespace

RunResult lint_sources(const std::vector<SourceFile>& sources,
                       const Options& opt) {
  RunResult result;

  for (const std::string& r : opt.rules)
    if (!known_rule(r)) result.errors.push_back("unknown rule '" + r + "'");

  LayerSpec layers;
  bool use_layers = false;
  if (opt.have_layering) {
    layers = parse_layer_spec(opt.layering_text);
    if (layers.ok()) {
      use_layers = true;
    } else {
      for (const std::string& e : layers.errors) result.errors.push_back(e);
    }
  }
  if (!result.errors.empty()) return result;

  std::vector<LexedFile> lexed;
  lexed.reserve(sources.size());
  for (const SourceFile& s : sources) lexed.push_back(lex(s.path, s.content));

  // The guarded-by registry spans the locked subsystems, so .cpp access
  // sites see annotations declared in .hpp files.
  GuardRegistry guards;
  for (const LexedFile& f : lexed)
    if (locked_subsystem_path(f.path)) collect_guarded_fields(f, guards);

  for (const LexedFile& f : lexed) {
    const ScopeInfo scopes = analyze_scopes(f);
    const FileContext ctx{f,      scopes,    use_layers ? &layers : nullptr,
                          guards, opt.rules, &result.findings};
    run_rules(ctx);
    ++result.files;
  }

  std::sort(result.findings.begin(), result.findings.end());
  result.findings.erase(
      std::unique(result.findings.begin(), result.findings.end(),
                  [](const Finding& a, const Finding& b) {
                    return a.file == b.file && a.line == b.line &&
                           a.rule == b.rule;
                  }),
      result.findings.end());
  return result;
}

RunResult lint_tree(const std::string& root, const Options& opt) {
  namespace fs = std::filesystem;
  RunResult result;

  Options tree_opt = opt;
  const fs::path spec_path = fs::path(root) / "tools" / "layering.txt";
  {
    std::ifstream in(spec_path);
    if (!in) {
      result.errors.push_back("cannot read " + spec_path.string());
      return result;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    tree_opt.layering_text = buf.str();
    tree_opt.have_layering = true;
  }

  std::vector<std::string> rel_paths;
  for (const char* top : {"src", "tools"}) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") continue;
      rel_paths.push_back(
          fs::relative(entry.path(), root).generic_string());
    }
  }
  std::sort(rel_paths.begin(), rel_paths.end());

  std::vector<SourceFile> sources;
  sources.reserve(rel_paths.size());
  for (const std::string& rel : rel_paths) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    if (!in) {
      result.errors.push_back("cannot read " + rel);
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    sources.push_back(SourceFile{rel, buf.str()});
  }
  if (!result.errors.empty()) return result;

  return lint_sources(sources, tree_opt);
}

std::string to_human(const RunResult& result) {
  std::ostringstream out;
  for (const std::string& e : result.errors) out << "osn-lint: error: " << e << "\n";
  for (const Finding& f : result.findings)
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  if (result.errors.empty()) {
    if (result.findings.empty())
      out << "osn-lint: clean (" << result.files << " files)\n";
    else
      out << "osn-lint: " << result.findings.size() << " finding"
          << (result.findings.size() == 1 ? "" : "s") << " across "
          << result.files << " files\n";
  }
  return out.str();
}

std::string to_json(const RunResult& result) {
  JsonWriter w(JsonWriter::Layout::kCompact);
  w.begin_object().key("findings").begin_array();
  for (const Finding& f : result.findings)
    w.begin_object()
        .field("file", f.file)
        .field("line", f.line)
        .field("rule", f.rule)
        .field("message", f.message)
        .end_object();
  w.end_array().key("errors").begin_array();
  for (const std::string& e : result.errors) w.value(e);
  w.end_array().field("files", result.files).end_object();
  return std::move(w).take() + "\n";
}

}  // namespace osn::lint
