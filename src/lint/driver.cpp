#include "lint/driver.hpp"

#include <algorithm>
#include <filesystem>

namespace aiac::lint {

namespace fs = std::filesystem;

namespace {

bool has_source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

bool in_build_dir(const fs::path& p) {
  for (const auto& part : p) {
    const std::string s = part.string();
    if (s.rfind("build", 0) == 0 || s == "CMakeFiles") return true;
  }
  return false;
}

/// Path relative to root when the file lies under it, else unchanged.
std::string relativize(const std::string& root, const std::string& path) {
  std::error_code ec;
  const fs::path abs_root = fs::weakly_canonical(root, ec);
  const fs::path abs_path = fs::weakly_canonical(path, ec);
  if (ec) return path;
  const auto rel = fs::relative(abs_path, abs_root, ec);
  if (ec) return path;
  const std::string s = rel.generic_string();
  if (s.empty() || s.rfind("..", 0) == 0) return path;
  return s;
}

/// Default scan set for tree mode: src/ and tools/ sources plus the wire
/// golden test (the FrameType exhaustiveness rule reads it for
/// golden-frame evidence).
std::vector<std::string> walk_tree(const std::string& root) {
  std::vector<std::string> out;
  for (const char* dir : {"src", "tools"}) {
    const fs::path base = fs::path(root) / dir;
    std::error_code ec;
    if (!fs::exists(base, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(
             base, fs::directory_options::skip_permission_denied, ec);
         it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file(ec)) continue;
      const fs::path& p = it->path();
      if (in_build_dir(p) || !has_source_extension(p)) continue;
      out.push_back(p.string());
    }
  }
  const fs::path wire_test = fs::path(root) / "tests" / "test_net_wire.cpp";
  std::error_code ec;
  if (fs::exists(wire_test, ec)) out.push_back(wire_test.string());
  std::sort(out.begin(), out.end());
  return out;
}

bool check_enabled(const LintConfig& config, const std::string& check) {
  if (config.checks.empty()) return true;
  return std::find(config.checks.begin(), config.checks.end(), check) !=
         config.checks.end();
}

}  // namespace

bool run_lint(const LintConfig& config, LintReport& report) {
  report = LintReport{};

  // ---- Collect files ---------------------------------------------------
  std::vector<std::string> files = config.files;
  if (files.empty()) {
    files = walk_tree(config.root);
    if (files.empty()) {
      report.warnings.push_back("no sources found under " + config.root +
                                "/src — wrong --root?");
      return false;
    }
  }

  // ---- Build the token model ------------------------------------------
  CodeModel model;
  for (const std::string& path : files) {
    SourceFile file;
    if (!load_source(path, file)) {
      report.warnings.push_back("cannot read " + path);
      continue;
    }
    file.path = relativize(config.root, path);
    model.add_file(std::move(file));
    ++report.files_scanned;
  }
  if (report.files_scanned == 0) return false;
  model.index();

  // ---- Allowlist -------------------------------------------------------
  Allowlist allow;
  if (!config.allowlist_path.empty()) {
    allow = load_allowlist(config.allowlist_path);
    if (!allow.parse_errors.empty()) {
      for (const std::string& e : allow.parse_errors)
        report.warnings.push_back(e);
      return false;
    }
  }

  // ---- Run checks ------------------------------------------------------
  std::vector<Finding> raw;
  if (check_enabled(config, "alloc")) {
    AllocCheckConfig alloc;
    if (config.use_default_registry) alloc.roots = default_hot_registry();
    alloc.roots.insert(alloc.roots.end(), config.hot_roots.begin(),
                       config.hot_roots.end());
    check_hot_alloc(model, alloc, raw);
  }
  if (check_enabled(config, "lock")) {
    check_lock_discipline(model, LockCheckConfig{}, raw);
  }
  if (check_enabled(config, "wire")) {
    check_wire_hygiene(model, raw);
  }

  // ---- Apply the allowlist --------------------------------------------
  for (Finding& f : raw) {
    if (allow.allows(f.check, f.file, f.symbol)) {
      ++report.suppressed;
      continue;
    }
    report.findings.push_back(std::move(f));
  }
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });

  if (config.report_stale_allows) {
    for (const AllowEntry* entry : allow.unused()) {
      report.warnings.push_back(
          allow.path + ":" + std::to_string(entry->line) +
          ": stale allowlist entry (matched no finding): " + entry->check +
          " " + entry->file_pattern + " " + entry->symbol_pattern);
    }
  }
  return true;
}

}  // namespace aiac::lint
