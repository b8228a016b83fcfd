// aiac_lint's driver: collects the files to scan (an explicit file list
// or a source-tree walk), runs the enabled checks over the token model,
// applies the allowlist, and formats the report.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/allowlist.hpp"
#include "lint/checks.hpp"

namespace aiac::lint {

struct LintConfig {
  /// Repository root; file paths in findings are reported relative to it.
  std::string root = ".";
  /// Explicit files (fixture mode). When empty, the tree is walked.
  std::vector<std::string> files;
  /// Checks to run; empty = all of {"alloc", "lock", "wire"}.
  std::vector<std::string> checks;
  /// Extra hot entry points (fixtures use these with `use_default_registry
  /// = false`; the real tree adds to the built-in registry).
  std::vector<std::string> hot_roots;
  bool use_default_registry = true;
  /// Allowlist path; "" = no allowlist.
  std::string allowlist_path;
  /// Report allowlist entries that matched nothing (stale exceptions).
  bool report_stale_allows = true;
};

struct LintReport {
  std::vector<Finding> findings;       // after allowlist filtering
  std::vector<std::string> warnings;   // stale allows, parse errors, ...
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;          // findings the allowlist absorbed
};

/// Runs the configured checks. Returns false only on configuration
/// errors (unreadable root, malformed allowlist) — findings do not make
/// run() fail; callers inspect the report.
bool run_lint(const LintConfig& config, LintReport& report);

}  // namespace aiac::lint
