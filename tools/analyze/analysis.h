// Cross-file analysis for gl_analyze (DESIGN.md §12).
//
// Per-file facts (tools/analyze/facts.h) merge into a whole-program symbol
// index here: a name-keyed call graph over every function definition seen.
// The rules then resolve:
//
//   GL001 unordered-iter         loops over unordered containers, including
//                                members declared in another file and
//                                locals returned by another file's function
//   GL002, GL004–GL007, GL009    token rules decided per file (randomness,
//                                pointer keys, float equality, threads,
//                                namespace-scope state, clocks)
//   GL020 unguarded-narrowing    64-to-32-bit vertex-id casts with no bounds
//                                check in an enclosing scope (per file)
//   GL010 alloc-in-hot-path      allocation sites in any function reachable
//                                from a hot root (default: Bisect,
//                                KWayPartition, every FmEngine method)
//   GL011 unguarded-shared-member  mutable members of mutex-owning classes
//                                lacking GL_GUARDED_BY (facts-level,
//                                surfaced here)
//   GL012 nondet-float-fold      float accumulation into captured locals
//                                inside ParallelFor bodies (facts-level)
//
// and runs the dataflow layer (GL014, GL016; dataflow.h).
//
// Call edges match by bare name, so reachability is an over-approximation —
// the safe direction for GL010: the analyzer can prove "no allocator call is
// reachable", never the reverse.
//
// Findings carry a (rule, trimmed-line-text) fingerprint; the committed
// baseline (tools/analyze/baseline.txt) suppresses known-accepted findings
// by that fingerprint plus a path-suffix match, which survives both
// absolute-path (ctest) and relative-path (check.sh, CI) invocations as
// well as unrelated line drift.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "analyze/dataflow.h"
#include "analyze/facts.h"

namespace gl::analyze {

struct RuleInfo {
  const char* id;       // "GL010"
  const char* name;     // "alloc-in-hot-path"
  const char* summary;  // one-line description for --list-rules / SARIF
};

// The analyzer rules, in id order.
[[nodiscard]] const std::vector<RuleInfo>& Rules();

struct Finding {
  std::string rule_id;
  std::string rule_name;
  std::string path;
  int line = 0;
  std::string line_text;  // trimmed source line: the baseline fingerprint
  std::string message;
};

struct AnalysisOptions {
  // Hot-path roots for GL010. A plain name matches every function with that
  // bare name; a "Class::" spec matches every method of that class.
  std::vector<std::string> hot_roots = {"Bisect", "KWayPartition",
                                        "FmEngine::"};
};

// Runs all rules over the merged facts. Findings come back sorted by
// (path, line, rule id) so output is stable across runs and platforms.
// `units`, when non-null, receives the GL014 coverage report (dataflow.h).
[[nodiscard]] std::vector<Finding> Analyze(const std::vector<FileFacts>& files,
                                           const AnalysisOptions& opts,
                                           UnitsReport* units = nullptr);

// --- baseline --------------------------------------------------------------

struct Baseline {
  struct Entry {
    std::string rule_id;
    std::string path;       // repo-relative; matched as a path suffix
    std::string line_text;  // trimmed source line
    int file_line = 0;      // line in the baseline file (for stale warnings)
  };
  std::vector<Entry> entries;
};

// Parses `RULE|path|line text` lines; '#' and blank lines are comments.
// Returns false (with *err set) on unreadable files or malformed lines.
[[nodiscard]] bool LoadBaseline(const std::string& path, Baseline* out,
                                std::string* err);

struct BaselineResult {
  std::vector<Finding> fresh;           // not covered by any entry
  int suppressed = 0;                   // findings matched by an entry
  std::vector<Baseline::Entry> stale;   // entries that matched nothing
};

// An entry is stale when it matched no finding although one of the
// `analyzed` paths ends with its path: entries for files outside this run
// (a src/-only sweep against a whole-tree baseline) are not judged.
[[nodiscard]] BaselineResult ApplyBaseline(
    const std::vector<Finding>& all, const Baseline& baseline,
    const std::vector<std::string>& analyzed);

// Renders findings in baseline-file format (for --write-baseline).
[[nodiscard]] std::string FormatBaseline(const std::vector<Finding>& all);

// --- SARIF -----------------------------------------------------------------

// SARIF 2.1.0 document for GitHub code scanning upload.
[[nodiscard]] std::string ToSarif(const std::vector<Finding>& findings);

// --- incremental cache -----------------------------------------------------

struct CacheStats {
  int files_total = 0;
  int files_cached = 0;  // facts reused from the cache
  int files_lexed = 0;   // facts re-extracted from source
};

// Extracts facts for every path, consulting (and rewriting) the cache file
// when `cache_path` is non-empty. A cache entry is reused when mtime+size
// match the stat, or — after an mtime-only change — when the content hash
// still matches. Unreadable source files are reported via *err and skipped.
// `config_hash` fingerprints whatever besides the sources the facts depend
// on (gl_analyze passes the rule-set ids, which change with the extractor);
// it is written into the cache header, so a change invalidates the whole
// cache. The cache never stores a verdict: baseline and flags are applied
// to the facts afresh on every run, so they stay out of the key.
[[nodiscard]] std::vector<FileFacts> LoadFacts(
    const std::vector<std::string>& paths, const std::string& cache_path,
    CacheStats* stats, std::string* err, std::uint64_t config_hash = 0);

// --- fixture self-test -----------------------------------------------------

// Runs every *.cc under `fixtures_dir` through single-file analysis and
// compares fired rule ids against the file's `// gl-analyze-expect:` header
// ("clean" or a comma-separated rule-id list). Prints one PASS/FAIL line per
// fixture to `out`; returns the number of failures (>0 also when the corpus
// is empty or a fixture lacks a header).
[[nodiscard]] int RunSelfTest(const std::string& fixtures_dir,
                              const AnalysisOptions& opts, std::ostream& out);

}  // namespace gl::analyze
