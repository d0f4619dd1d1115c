#include "analyze/analysis.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <unordered_map>

#include "analyze/dataflow.h"
#include "common/json_writer.h"

namespace gl::analyze {
namespace {

[[nodiscard]] std::string AllocKindLabel(AllocKind kind) {
  switch (kind) {
    case AllocKind::kNew:
      return "new expression";
    case AllocKind::kAllocCall:
      return "allocator call";
    case AllocKind::kInducedSubgraph:
      return "materializes an induced subgraph";
    case AllocKind::kLocalInit:
      return "local container constructed with contents";
    case AllocKind::kLocalGrowth:
      return "growth of a local container";
  }
  return "allocation";
}

// True when one path is a '/'-boundary suffix of the other. Findings carry
// whatever path the invoker passed (absolute under ctest, relative under
// check.sh), baseline entries are committed repo-relative; suffix matching
// makes them agree.
[[nodiscard]] bool PathSuffixMatch(const std::string& a,
                                   const std::string& b) {
  if (a == b) return true;
  const std::string& longer = a.size() > b.size() ? a : b;
  const std::string& shorter = a.size() > b.size() ? b : a;
  return longer.size() > shorter.size() + 1 &&
         longer.ends_with(shorter) &&
         longer[longer.size() - shorter.size() - 1] == '/';
}

[[nodiscard]] Finding MakeFinding(const std::string& rule_id,
                                  const std::string& path, int line,
                                  const std::string& line_text,
                                  std::string message) {
  Finding fd;
  fd.rule_id = rule_id;
  for (const RuleInfo& r : Rules()) {
    if (rule_id == r.id) fd.rule_name = r.name;
  }
  fd.path = path;
  fd.line = line;
  fd.line_text = line_text;
  fd.message = std::move(message);
  return fd;
}

[[nodiscard]] std::string Summary(const std::string& rule_id) {
  for (const RuleInfo& r : Rules()) {
    if (rule_id == r.id) return r.summary;
  }
  return "";
}

// Hot-root reachability for GL010: BFS over name-matched call edges from
// the AnalysisOptions roots, recording each function's BFS parent so
// findings can print the call chain.
struct HotReach {
  std::unordered_map<FuncRef, FuncRef, FuncRefHash> parent;  // root: {-1,-1}
  [[nodiscard]] bool Reached(const FuncRef& r) const {
    return parent.count(r) > 0;
  }
  // "Root -> ... -> fn" display chain for a reached function.
  [[nodiscard]] std::string Chain(const SymbolIndex& index,
                                  const FuncRef& r) const;
};

std::string HotReach::Chain(const SymbolIndex& index, const FuncRef& r) const {
  std::vector<std::string> chain;
  FuncRef walk = r;
  while (walk.file >= 0 && chain.size() < 32) {
    chain.push_back(index.Display(walk));
    const auto it = parent.find(walk);
    if (it == parent.end()) break;
    walk = it->second;
  }
  std::string via;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!via.empty()) via += " -> ";
    via += *it;
  }
  return via;
}

HotReach ComputeHotReach(const std::vector<FileFacts>& files,
                         const SymbolIndex& index,
                         const std::vector<std::string>& roots) {
  HotReach hr;
  std::vector<FuncRef> queue;
  const auto seed = [&](const FuncRef& r) {
    if (hr.parent.emplace(r, FuncRef{}).second) queue.push_back(r);
  };
  for (const std::string& spec : roots) {
    if (spec.ends_with("::")) {
      const std::vector<FuncRef>* refs =
          index.ByClass(spec.substr(0, spec.size() - 2));
      if (refs != nullptr) {
        for (const FuncRef& r : *refs) seed(r);
      }
    } else {
      const std::vector<FuncRef>* refs = index.ByName(spec);
      if (refs != nullptr) {
        for (const FuncRef& r : *refs) seed(r);
      }
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const FuncRef cur = queue[head];
    const FileFacts& f = files[static_cast<std::size_t>(cur.file)];
    for (const CallSite& c : f.calls) {
      if (c.func != cur.func) continue;
      const std::vector<FuncRef>* targets = index.Resolve(cur, c.callee);
      if (targets == nullptr) continue;
      for (const FuncRef& callee : *targets) {
        if (hr.parent.emplace(callee, cur).second) queue.push_back(callee);
      }
    }
  }
  return hr;
}

void AnalyzeHotPath(const std::vector<FileFacts>& files,
                    const SymbolIndex& index, const HotReach& hot,
                    std::vector<Finding>* out) {
  for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
    const FileFacts& f = files[static_cast<std::size_t>(fi)];
    for (const AllocSite& a : f.allocs) {
      const FuncRef ref{fi, a.func};
      if (!hot.Reached(ref)) continue;
      out->push_back(MakeFinding("GL010", f.path, a.line, a.line_text,
                                 AllocKindLabel(a.kind) + " (" + a.detail +
                                     ") on the hot path: " +
                                     hot.Chain(index, ref)));
    }
  }
}

// GL001. A loop over a known unordered local is already a taint seed
// (facts.cc ScanLoop); every other loop resolves here against the
// unordered names all files declare, which is how a member declared in a
// header is caught in its .cc.
void AnalyzeUnorderedIter(const std::vector<FileFacts>& files,
                          std::vector<Finding>* out) {
  std::set<std::pair<char, std::string>> declared;
  for (const FileFacts& f : files) {
    for (const UnorderedName& n : f.unordered_names) {
      declared.insert({n.kind, n.name});
    }
  }
  for (const FileFacts& f : files) {
    for (const TaintSeed& s : f.taint_seeds) {
      if (s.kind != "unordered-iter") continue;
      out->push_back(MakeFinding(
          "GL001", f.path, s.line, s.line_text,
          "loop over a local unordered container: " + Summary("GL001")));
    }
    for (const LoopOver& l : f.loops) {
      if (declared.count({l.element ? 'e' : 'v', l.container}) == 0 &&
          (l.callee.empty() || declared.count({'f', l.callee}) == 0)) {
        continue;
      }
      out->push_back(MakeFinding(
          "GL001", f.path, l.line, l.line_text,
          "loop over unordered '" + l.container + "': " + Summary("GL001")));
    }
  }
}

[[nodiscard]] std::string ReadWholeFile(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *ok = false;
    return "";
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *ok = true;
  return ss.str();
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"GL001", "unordered-iter",
       "iteration over an unordered container follows hash-bucket order; "
       "iterate a SortedItems()/SortedKeys() snapshot (common/stable_map.h) "
       "or use an ordered container (DESIGN.md §8)"},
      {"GL002", "adhoc-rng",
       "random-number source other than gl::Rng (common/rng.h): std "
       "engines, distributions and rand() differ across standard libraries "
       "and break seed replay (DESIGN.md §8)"},
      {"GL004", "pointer-key",
       "associative container keyed on a pointer: its order follows "
       "allocation addresses, which change from run to run (DESIGN.md §8)"},
      {"GL005", "float-eq",
       "raw ==/!= on resource doubles: compare through the epsilon helpers "
       "in common/resource.h (FitsIn, WithinCap, ApproxEq) (DESIGN.md §8)"},
      {"GL006", "raw-thread",
       "raw std::thread/std::async outside common/thread_pool: fan out "
       "through ThreadPool::ParallelFor so scheduling cannot reorder "
       "results (DESIGN.md §9)"},
      {"GL007", "global-state",
       "mutable namespace-scope state outlives the run, is shared across "
       "threads and is invisible to seed replay; pass it explicitly or make "
       "it const (DESIGN.md §9)"},
      {"GL009", "raw-clock",
       "clock, timer or process-id read outside obs/clock.h: time through "
       "obs::WallTimer / obs::MonotonicMicros so timings stay informational "
       "(DESIGN.md §10)"},
      {"GL010", "alloc-in-hot-path",
       "allocation reachable from the partitioner hot path (DESIGN.md §11: "
       "zero-allocation steady state)"},
      {"GL011", "unguarded-shared-member",
       "mutable member of a mutex-owning class lacks GL_GUARDED_BY "
       "(DESIGN.md §9)"},
      {"GL012", "nondet-float-fold",
       "float accumulation inside a ParallelFor body is schedule-dependent "
       "(DESIGN.md §8: fold in canonical index order)"},
      {"GL014", "unit-confusion",
       "mixed physical dimensions in arithmetic, comparison, assignment or "
       "argument binding (DESIGN.md §13: GL_UNITS lattice)"},
      {"GL016", "determinism-taint",
       "nondeterministic value (clock, rand, unordered iteration) flows "
       "into a state hash or deterministic counter (DESIGN.md §8)"},
      {"GL020", "unguarded-narrowing",
       "64-bit value narrowed to a 32-bit vertex-id type with no bounds "
       "check in an enclosing scope; GOLDILOCKS_CHECK it against the id "
       "range before the cast (DESIGN.md §14)"},
  };
  return kRules;
}

std::vector<Finding> Analyze(const std::vector<FileFacts>& files,
                             const AnalysisOptions& opts, UnitsReport* units) {
  std::vector<Finding> out;
  const SymbolIndex index(files);
  AnalyzeHotPath(files, index, ComputeHotReach(files, index, opts.hot_roots),
                 &out);
  AnalyzeUnorderedIter(files, &out);
  AnalyzeDataflow(files, index, &out, units);

  for (const FileFacts& f : files) {
    for (const RuleHit& h : f.rule_hits) {
      out.push_back(MakeFinding(h.rule, f.path, h.line, h.line_text,
                                "'" + h.detail + "': " + Summary(h.rule)));
    }
    for (const UnguardedMember& m : f.unguarded) {
      out.push_back(MakeFinding(
          "GL011", f.path, m.line, m.line_text,
          "member '" + m.member + "' of mutex-owning class '" + m.class_name +
              "' has no GL_GUARDED_BY annotation; annotate it or mark why it "
              "needs none in the baseline"));
    }
    for (const FloatFold& x : f.float_folds) {
      out.push_back(MakeFinding(
          "GL012", f.path, x.line, x.line_text,
          "float accumulation into captured '" + x.var +
              "' inside a ParallelFor body in '" + x.function +
              "' depends on worker schedule; write per-index slots and fold "
              "in canonical order"));
    }
  }

  std::sort(out.begin(), out.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule_id != b.rule_id) return a.rule_id < b.rule_id;
              return a.message < b.message;
            });
  // Exact duplicates happen when one source line matches a pattern twice
  // (e.g. nested vector<vector<T>> declarations); report each once.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.path == b.path && a.line == b.line &&
                                 a.rule_id == b.rule_id &&
                                 a.message == b.message;
                        }),
            out.end());
  return out;
}

// --- baseline --------------------------------------------------------------

bool LoadBaseline(const std::string& path, Baseline* out, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot open baseline file: " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::size_t p1 = line.find('|');
    const std::size_t p2 = p1 == std::string::npos ? p1 : line.find('|', p1 + 1);
    if (p2 == std::string::npos) {
      *err = path + ":" + std::to_string(lineno) +
             ": malformed baseline entry (want RULE|path|line text)";
      return false;
    }
    Baseline::Entry e;
    e.rule_id = line.substr(0, p1);
    e.path = line.substr(p1 + 1, p2 - p1 - 1);
    e.line_text = line.substr(p2 + 1);
    e.file_line = lineno;
    out->entries.push_back(std::move(e));
  }
  return true;
}

BaselineResult ApplyBaseline(const std::vector<Finding>& all,
                             const Baseline& baseline,
                             const std::vector<std::string>& analyzed) {
  BaselineResult r;
  std::vector<bool> hit(baseline.entries.size(), false);
  for (const Finding& f : all) {
    bool matched = false;
    for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
      const Baseline::Entry& e = baseline.entries[i];
      if (e.rule_id == f.rule_id && e.line_text == f.line_text &&
          PathSuffixMatch(e.path, f.path)) {
        hit[i] = true;
        matched = true;
      }
    }
    if (matched) {
      ++r.suppressed;
    } else {
      r.fresh.push_back(f);
    }
  }
  for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
    const Baseline::Entry& e = baseline.entries[i];
    if (!hit[i] && std::any_of(analyzed.begin(), analyzed.end(),
                               [&](const std::string& path) {
                                 return PathSuffixMatch(e.path, path);
                               })) {
      r.stale.push_back(e);
    }
  }
  return r;
}

std::string FormatBaseline(const std::vector<Finding>& all) {
  std::string out =
      "# gl_analyze baseline: accepted findings, one per line.\n"
      "# Format: RULE|repo-relative/path|trimmed source line\n"
      "# An entry suppresses every finding with the same rule, path suffix,\n"
      "# and line text. Keep a justification comment above each entry.\n";
  for (const Finding& f : all) {
    out += f.rule_id;
    out.push_back('|');
    out += f.path;
    out.push_back('|');
    out += f.line_text;
    out.push_back('\n');
  }
  return out;
}

// --- SARIF -----------------------------------------------------------------

std::string ToSarif(const std::vector<Finding>& findings) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("$schema");
  w.String(
      "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json");
  w.Key("version");
  w.String("2.1.0");
  w.Key("runs");
  w.BeginArray();
  w.BeginObject();
  w.Key("tool");
  w.BeginObject();
  w.Key("driver");
  w.BeginObject();
  w.Key("name");
  w.String("gl_analyze");
  w.Key("informationUri");
  w.String("DESIGN.md");
  w.Key("version");
  w.String("1.0.0");
  w.Key("rules");
  w.BeginArray();
  for (const RuleInfo& r : Rules()) {
    w.BeginObject();
    w.Key("id");
    w.String(r.id);
    w.Key("name");
    w.String(r.name);
    w.Key("shortDescription");
    w.BeginObject();
    w.Key("text");
    w.String(r.summary);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();  // driver
  w.EndObject();  // tool
  w.Key("results");
  w.BeginArray();
  for (const Finding& f : findings) {
    w.BeginObject();
    w.Key("ruleId");
    w.String(f.rule_id);
    w.Key("level");
    w.String("error");
    w.Key("message");
    w.BeginObject();
    w.Key("text");
    w.String(f.message);
    w.EndObject();
    w.Key("locations");
    w.BeginArray();
    w.BeginObject();
    w.Key("physicalLocation");
    w.BeginObject();
    w.Key("artifactLocation");
    w.BeginObject();
    w.Key("uri");
    w.String(f.path);
    w.EndObject();
    w.Key("region");
    w.BeginObject();
    w.Key("startLine");
    w.Int(f.line > 0 ? f.line : 1);
    w.EndObject();
    w.EndObject();  // physicalLocation
    w.EndObject();  // location
    w.EndArray();
    w.EndObject();  // result
  }
  w.EndArray();
  w.EndObject();  // run
  w.EndArray();
  w.EndObject();
  out.push_back('\n');
  return out;
}

// --- incremental cache -----------------------------------------------------

namespace {

struct CacheEntry {
  std::int64_t mtime_ns = 0;
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
  std::string blob;  // serialized FileFacts
};

[[nodiscard]] bool StatFile(const std::string& path, std::int64_t* mtime_ns,
                            std::uint64_t* size) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return false;
  *mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              st.st_mtim.tv_nsec;
  *size = static_cast<std::uint64_t>(st.st_size);
  return true;
}

// Cache file format (a cache of another version is rejected by the header
// check, and its files are simply re-extracted):
//   glcache v6 <config hash hex>
//   file <path>\t<mtime_ns>\t<size>\t<hash hex>
//   <serialized facts lines>
//   end
// The config hash fingerprints what the facts depend on besides the source
// (LoadFacts doc). The cache stores facts only, never a verdict: baseline
// and flags are applied afresh on every run.
[[nodiscard]] std::string CacheHeader(std::uint64_t config_hash) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(config_hash));
  return std::string("glcache v6 ") + buf;
}

void ParseCacheFile(const std::string& path, const std::string& header_line,
                    std::unordered_map<std::string, CacheEntry>* out) {
  bool ok = false;
  const std::string blob = ReadWholeFile(path, &ok);
  if (!ok) return;
  std::size_t pos = 0;
  const auto next_line = [&](std::string* line) {
    if (pos >= blob.size()) return false;
    std::size_t nl = blob.find('\n', pos);
    if (nl == std::string::npos) nl = blob.size();
    line->assign(blob, pos, nl - pos);
    pos = nl + 1;
    return true;
  };
  std::string line;
  if (!next_line(&line) || line != header_line) return;
  while (next_line(&line)) {
    if (!line.starts_with("file ")) return;  // malformed: drop the rest
    const std::string header = line.substr(5);
    std::vector<std::string> cols;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= header.size(); ++i) {
      if (i == header.size() || header[i] == '\t') {
        cols.push_back(header.substr(start, i - start));
        start = i + 1;
      }
    }
    if (cols.size() != 4) return;
    CacheEntry e;
    char* end = nullptr;
    e.mtime_ns = std::strtoll(cols[1].c_str(), &end, 10);
    e.size = std::strtoull(cols[2].c_str(), &end, 10);
    e.hash = std::strtoull(cols[3].c_str(), &end, 16);
    while (next_line(&line) && line != "end") {
      e.blob += line;
      e.blob.push_back('\n');
    }
    (*out)[cols[0]] = std::move(e);
  }
}

}  // namespace

std::vector<FileFacts> LoadFacts(const std::vector<std::string>& paths,
                                 const std::string& cache_path,
                                 CacheStats* stats, std::string* err,
                                 std::uint64_t config_hash) {
  const std::string header = CacheHeader(config_hash);
  std::unordered_map<std::string, CacheEntry> cache;
  if (!cache_path.empty()) ParseCacheFile(cache_path, header, &cache);

  std::vector<FileFacts> out;
  std::map<std::string, CacheEntry> fresh_cache;  // written in path order
  for (const std::string& path : paths) {
    ++stats->files_total;
    CacheEntry entry;
    const bool stat_ok = StatFile(path, &entry.mtime_ns, &entry.size);
    bool read_ok = stat_ok;
    FileFacts facts;
    const auto it = cache.find(path);
    // A stat match reuses the facts without reading the file.
    bool reused = stat_ok && it != cache.end() &&
                  it->second.mtime_ns == entry.mtime_ns &&
                  it->second.size == entry.size &&
                  DeserializeFacts(it->second.blob, &facts);
    if (stat_ok && !reused) {
      const std::string source = ReadWholeFile(path, &read_ok);
      entry.hash = HashBytes(source);
      // Touched but unchanged: the content hash rescues the entry.
      reused = read_ok && it != cache.end() && it->second.hash == entry.hash &&
               DeserializeFacts(it->second.blob, &facts);
      if (read_ok && !reused) {
        facts = ExtractFacts(path, source);
        SerializeFacts(facts, &entry.blob);
      }
    }
    if (!read_ok) {
      if (!err->empty()) err->push_back('\n');
      *err += (stat_ok ? "cannot read: " : "cannot stat: ") + path;
      continue;
    }
    if (reused) {
      entry.hash = it->second.hash;
      entry.blob = std::move(it->second.blob);
    }
    facts.path = path;  // cached blobs may carry a stale path spelling
    ++(reused ? stats->files_cached : stats->files_lexed);
    fresh_cache[path] = std::move(entry);
    out.push_back(std::move(facts));
  }

  if (!cache_path.empty()) {
    std::string blob = header + "\n";
    for (const auto& [p, e] : fresh_cache) {
      blob += "file " + p + "\t" + std::to_string(e.mtime_ns) + "\t" +
              std::to_string(e.size) + "\t";
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(e.hash));
      blob += buf;
      blob.push_back('\n');
      blob += e.blob;
      blob += "end\n";
    }
    std::ofstream outf(cache_path, std::ios::binary | std::ios::trunc);
    if (outf) outf << blob;
  }
  return out;
}

// --- fixture self-test -----------------------------------------------------

int RunSelfTest(const std::string& fixtures_dir, const AnalysisOptions& opts,
                std::ostream& os) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(fixtures_dir, ec)) {
    if (entry.path().extension() == ".cc") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    os << "FAIL cannot list fixtures dir: " << fixtures_dir << "\n";
    return 1;
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    os << "FAIL no fixtures found in " << fixtures_dir << "\n";
    return 1;
  }

  int failures = 0;
  for (const std::string& path : paths) {
    const std::string base = fs::path(path).filename().string();
    bool ok = false;
    const std::string source = ReadWholeFile(path, &ok);
    if (!ok) {
      os << "FAIL " << base << ": unreadable\n";
      ++failures;
      continue;
    }
    // Expectation header: the first "// gl-analyze-expect:" comment.
    std::set<std::string> expected;
    bool have_header = false;
    {
      const std::size_t at = source.find("gl-analyze-expect:");
      if (at != std::string::npos) {
        have_header = true;
        std::size_t eol = source.find('\n', at);
        if (eol == std::string::npos) eol = source.size();
        std::string list = source.substr(at + 18, eol - at - 18);
        std::size_t pos = 0;
        while (pos <= list.size()) {
          std::size_t comma = list.find(',', pos);
          if (comma == std::string::npos) comma = list.size();
          std::string item = list.substr(pos, comma - pos);
          const auto b = item.find_first_not_of(" \t\r");
          const auto e = item.find_last_not_of(" \t\r");
          if (b != std::string::npos) {
            item = item.substr(b, e - b + 1);
            if (item != "clean") expected.insert(item);
          }
          pos = comma + 1;
        }
      }
    }
    if (!have_header) {
      os << "FAIL " << base << ": missing // gl-analyze-expect: header\n";
      ++failures;
      continue;
    }

    const std::vector<FileFacts> facts = {ExtractFacts(path, source)};
    const std::vector<Finding> findings = Analyze(facts, opts);
    std::set<std::string> fired;
    for (const Finding& f : findings) fired.insert(f.rule_id);

    const auto join = [](const std::set<std::string>& s) {
      if (s.empty()) return std::string("clean");
      std::string j;
      for (const std::string& x : s) {
        if (!j.empty()) j += ",";
        j += x;
      }
      return j;
    };
    if (fired == expected) {
      os << "PASS " << base << " (" << join(expected) << ")\n";
    } else {
      os << "FAIL " << base << ": expected " << join(expected) << ", got "
         << join(fired) << "\n";
      ++failures;
    }
  }
  return failures;
}

}  // namespace gl::analyze
