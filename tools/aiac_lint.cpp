// aiac_lint — the repo's invariant linter (DESIGN.md §12).
//
// Enforces what generic clang-tidy cannot express about this codebase:
// hot-path allocation freedom (call-graph reachability from a registry of
// hot entry points), lock discipline (no raw std::mutex outside
// src/runtime/, no rank inversions, no blocking under an OrderedMutex),
// and wire-format hygiene in src/net/ (no struct punning, fixed-width
// frame fields, FrameType serializer/parser/golden exhaustiveness).
//
//   tools/aiac_lint --root=.                          # whole tree
//   tools/aiac_lint --checks=lock --file=a.cpp,b.cpp  # explicit files
//
// Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
#include <cstdio>
#include <string>
#include <vector>

#include "lint/driver.hpp"
#include "util/cli.hpp"

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? std::string::npos
                                                     : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  aiac::util::CliParser cli(
      "aiac_lint: project-invariant static analysis (hot-path allocation "
      "freedom, lock discipline, wire-format hygiene)");
  cli.describe("root", "repository root findings are reported relative to",
               ".");
  cli.describe("checks", "comma list of checks to run: alloc,lock,wire",
               "all");
  cli.describe("hot", "extra hot entry points (comma list of "
                      "qualified-name suffixes)", "");
  cli.describe("no-default-registry",
               "only --hot entry points seed the alloc check", "false");
  cli.describe("allowlist", "per-site exception file "
                            "(default <root>/tools/aiac_lint.allow)", "");
  cli.describe("no-allowlist", "ignore the default allowlist", "false");
  cli.describe("file", "lint exactly these files (comma list); repeatable "
                       "via commas, disables the tree walk", "");
  cli.describe("list-registry", "print the built-in hot registry and exit",
               "false");
  cli.describe("quiet", "findings only, no summary line", "false");

  aiac::lint::LintConfig config;
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aiac_lint: %s\n", e.what());
    return 2;
  }
  if (cli.help_requested()) {
    std::printf("%s", cli.help_text().c_str());
    return 0;
  }
  if (cli.get_bool("list-registry")) {
    for (const std::string& root : aiac::lint::default_hot_registry())
      std::printf("%s\n", root.c_str());
    return 0;
  }

  config.root = cli.get_string("root", ".");
  config.checks = split_csv(cli.get_string("checks", ""));
  config.hot_roots = split_csv(cli.get_string("hot", ""));
  config.use_default_registry = !cli.get_bool("no-default-registry");
  config.files = split_csv(cli.get_string("file", ""));
  for (const std::string& check : config.checks) {
    if (check != "alloc" && check != "lock" && check != "wire") {
      std::fprintf(stderr, "aiac_lint: unknown check '%s'\n", check.c_str());
      return 2;
    }
  }
  if (cli.get_bool("no-allowlist")) {
    config.allowlist_path.clear();
  } else {
    config.allowlist_path = cli.get_string("allowlist", "");
    if (config.allowlist_path.empty() && config.files.empty())
      config.allowlist_path = config.root + "/tools/aiac_lint.allow";
  }

  aiac::lint::LintReport report;
  const bool ok = aiac::lint::run_lint(config, report);
  for (const std::string& w : report.warnings)
    std::fprintf(stderr, "aiac_lint: warning: %s\n", w.c_str());
  if (!ok) {
    std::fprintf(stderr, "aiac_lint: configuration error\n");
    return 2;
  }
  for (const auto& f : report.findings) {
    std::printf("%s:%zu: [%s] %s (in %s)\n", f.file.c_str(), f.line,
                f.check.c_str(), f.message.c_str(), f.symbol.c_str());
  }
  if (!cli.get_bool("quiet")) {
    std::printf(
        "aiac_lint: %zu file(s): %zu finding(s), %zu allowlisted\n",
        report.files_scanned, report.findings.size(), report.suppressed);
  }
  return report.findings.empty() ? 0 : 1;
}
