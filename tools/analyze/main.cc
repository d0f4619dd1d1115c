// gl_analyze: token-aware, cross-file contract checker (DESIGN.md §12).
//
// Usage:
//   gl_analyze [options] <file-or-dir>...
//   gl_analyze --self-test [--fixtures=DIR]
//   gl_analyze --list-rules
//
// Options:
//   --baseline=FILE        suppress findings recorded in FILE; an entry that
//                          matches nothing in an analyzed file is stale
//   --write-baseline=FILE  write current findings as a new baseline and exit
//   --sarif=FILE           write non-baselined findings as SARIF 2.1.0
//   --cache=FILE           mtime+hash incremental facts cache
//   --units-strict=SUBSTR  exit 1 if any analyzed file whose path contains
//                          SUBSTR still has unresolved '+'/'-'/comparison
//                          operands (repeatable)
//   --format=github        print findings as GitHub workflow ::error
//                          annotations instead of compiler-style lines
//   --quiet                findings only, no summary line
//
// The incremental cache stores per-file facts only; every verdict is
// recomputed from them on each run. Its header is keyed on the rule set
// (which changes with the extractor), not on the baseline or flags, so a
// run with different flags still finds the cache warm.
//
// Directories are scanned recursively for *.cc / *.h; directories named
// "fixtures" are skipped (the fixture corpus fires rules on purpose).
// Exit status: 0 clean, 1 non-baselined findings, stale baseline entries or
// a --units-strict violation, 2 usage or I/O error.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/analysis.h"

#ifndef GL_ANALYZE_FIXTURES_DIR
#define GL_ANALYZE_FIXTURES_DIR "tools/analyze/fixtures"
#endif

namespace {

using gl::analyze::AnalysisOptions;
using gl::analyze::Baseline;
using gl::analyze::BaselineResult;
using gl::analyze::CacheStats;
using gl::analyze::Finding;

int Usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "gl_analyze: %s\n", msg);
  std::fprintf(stderr,
               "usage: gl_analyze [--baseline=F] [--write-baseline=F] "
               "[--sarif=F] [--cache=F]\n"
               "                  [--units-strict=S]... [--format=github] "
               "[--quiet] <file-or-dir>...\n"
               "       gl_analyze --self-test [--fixtures=DIR]\n"
               "       gl_analyze --list-rules\n");
  return 2;
}

void CollectSources(const std::string& root, std::vector<std::string>* out) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    out->push_back(root);  // explicit files are always analyzed
    return;
  }
  for (auto it = fs::recursive_directory_iterator(root, ec);
       !ec && it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory() && it->path().filename() == "fixtures") {
      it.disable_recursion_pending();
      continue;
    }
    const std::string ext = it->path().extension().string();
    if (ext == ".cc" || ext == ".h") {
      out->push_back(it->path().string());
    }
  }
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return out.good();
}

// GitHub workflow-command escaping for ::error annotations: the message
// escapes %, CR, LF; property values additionally escape ',' and ':'.
[[nodiscard]] std::string GithubEscape(const std::string& s, bool property) {
  std::string out;
  for (const char c : s) {
    if (c == '%') out += "%25";
    else if (c == '\r') out += "%0D";
    else if (c == '\n') out += "%0A";
    else if (property && c == ',') out += "%2C";
    else if (property && c == ':') out += "%3A";
    else out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string write_baseline_path;
  std::string sarif_path;
  std::string cache_path;
  std::string fixtures_dir = GL_ANALYZE_FIXTURES_DIR;
  std::vector<std::string> strict_substrings;
  std::vector<std::string> inputs;
  bool github = false;
  bool self_test = false;
  bool list_rules = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg.starts_with("--baseline=")) {
      baseline_path = value("--baseline=");
    } else if (arg.starts_with("--write-baseline=")) {
      write_baseline_path = value("--write-baseline=");
    } else if (arg.starts_with("--sarif=")) {
      sarif_path = value("--sarif=");
    } else if (arg.starts_with("--cache=")) {
      cache_path = value("--cache=");
    } else if (arg.starts_with("--fixtures=")) {
      fixtures_dir = value("--fixtures=");
    } else if (arg.starts_with("--units-strict=")) {
      strict_substrings.push_back(value("--units-strict="));
    } else if (arg == "--format=github") {
      github = true;
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg.starts_with("--")) {
      return Usage(("unknown option: " + arg).c_str());
    } else {
      inputs.push_back(arg);
    }
  }

  if (list_rules) {
    for (const gl::analyze::RuleInfo& r : gl::analyze::Rules()) {
      std::printf("%s  %-24s  %s\n", r.id, r.name, r.summary);
    }
    return 0;
  }

  const AnalysisOptions opts;
  if (self_test) {
    const int failures = gl::analyze::RunSelfTest(fixtures_dir, opts,
                                                  std::cout);
    if (failures == 0) std::printf("gl_analyze self-test: all fixtures pass\n");
    return failures == 0 ? 0 : 1;
  }

  if (inputs.empty()) return Usage("no inputs");

  std::vector<std::string> paths;
  for (const std::string& in : inputs) CollectSources(in, &paths);
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  if (paths.empty()) return Usage("inputs matched no .cc/.h files");

  // Cache key: the cache holds per-file facts only, which depend on the
  // path, the source and the extractor — never on the baseline or flags.
  // The rule-set ids stand in for the extractor: they change when it does.
  // '\x1f' separates ids so adjacent ones cannot collide by concatenation.
  std::string config;
  for (const gl::analyze::RuleInfo& r : gl::analyze::Rules()) {
    config.push_back('\x1f');
    config += r.id;
  }
  const std::uint64_t config_hash = gl::analyze::HashBytes(config);

  CacheStats stats;
  std::string io_err;
  const std::vector<gl::analyze::FileFacts> facts = gl::analyze::LoadFacts(
      paths, cache_path, &stats, &io_err, config_hash);
  if (!io_err.empty()) {
    std::fprintf(stderr, "gl_analyze: %s\n", io_err.c_str());
    return 2;
  }

  gl::analyze::UnitsReport units;
  const std::vector<Finding> all = gl::analyze::Analyze(
      facts, opts, strict_substrings.empty() ? nullptr : &units);

  if (!write_baseline_path.empty()) {
    if (!WriteTextFile(write_baseline_path,
                       gl::analyze::FormatBaseline(all))) {
      std::fprintf(stderr, "gl_analyze: cannot write %s\n",
                   write_baseline_path.c_str());
      return 2;
    }
    std::printf("wrote %zu baseline entries to %s\n", all.size(),
                write_baseline_path.c_str());
    return 0;
  }

  BaselineResult result;
  if (!baseline_path.empty()) {
    Baseline baseline;
    std::string err;
    if (!gl::analyze::LoadBaseline(baseline_path, &baseline, &err)) {
      std::fprintf(stderr, "gl_analyze: %s\n", err.c_str());
      return 2;
    }
    result = gl::analyze::ApplyBaseline(all, baseline, paths);
  } else {
    result.fresh = all;
  }

  for (const Finding& f : result.fresh) {
    if (github) {
      std::printf("::error file=%s,line=%d,title=%s %s::%s\n",
                  GithubEscape(f.path, true).c_str(), f.line,
                  f.rule_id.c_str(),
                  GithubEscape(f.rule_name, true).c_str(),
                  GithubEscape(f.message, false).c_str());
    } else {
      std::printf("%s:%d: error [%s/%s] %s\n", f.path.c_str(), f.line,
                  f.rule_id.c_str(), f.rule_name.c_str(), f.message.c_str());
    }
  }
  for (const Baseline::Entry& e : result.stale) {
    std::printf("%s:%d: error: stale baseline entry %s|%s matches no "
                "finding; delete it\n",
                baseline_path.c_str(), e.file_line, e.rule_id.c_str(),
                e.path.c_str());
  }

  if (!sarif_path.empty()) {
    if (!WriteTextFile(sarif_path, gl::analyze::ToSarif(result.fresh))) {
      std::fprintf(stderr, "gl_analyze: cannot write %s\n",
                   sarif_path.c_str());
      return 2;
    }
  }

  bool strict_fail = false;
  for (const auto& fe : units.files) {
    const bool strict_hit =
        std::any_of(strict_substrings.begin(), strict_substrings.end(),
                    [&](const std::string& s) {
                      return fe.path.find(s) != std::string::npos;
                    });
    if (fe.unresolved_ops == 0 || !strict_hit) continue;
    strict_fail = true;
    for (const std::string& note : fe.notes) {
      std::printf("units: strict: %s\n", note.c_str());
    }
  }
  if (strict_fail) {
    std::printf(
        "gl_analyze: --units-strict: unresolved dimension operands remain\n");
  }

  if (!quiet) {
    std::printf(
        "gl_analyze: %d file(s) (%d cached, %d lexed), %zu finding(s), "
        "%d baselined, %zu stale baseline entr%s\n",
        stats.files_total, stats.files_cached, stats.files_lexed,
        result.fresh.size(), result.suppressed, result.stale.size(),
        result.stale.size() == 1 ? "y" : "ies");
  }
  return result.fresh.empty() && result.stale.empty() && !strict_fail ? 0
                                                                      : 1;
}
