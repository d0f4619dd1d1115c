// CFG construction and the GL017, GL018, GL020 and GL021 abstract
// interpreters (cfg.h, DESIGN.md §14).
//
// The builder is a recursive-descent walk over one function body's
// structural tokens. It never needs to be a full parser: every construct it
// does not recognize degrades into "events stay in the current block", which
// only ever merges paths — the conservative direction for the may-analyses
// (GL017/GL018 may over-report held locks or poisoned refs, both of which a
// fixture pins down) and a plain miss for the must-analysis (GL020).
//
// The interpreters run at analysis time over CFGs that were serialized with
// the per-file facts, so a warm run replays cached graphs and pays only for
// the (cheap) fixpoints.

#include "analyze/cfg.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "analyze/analysis.h"

namespace gl::analyze {
namespace {

// --- token view (mirror of facts.cc's SView over the shared pointer vec) ---

struct TView {
  const std::vector<const Token*>& toks;

  [[nodiscard]] std::size_t size() const { return toks.size(); }
  [[nodiscard]] const std::string& text(std::size_t i) const {
    static const std::string kEmpty;
    return i < toks.size() ? toks[i]->text : kEmpty;
  }
  [[nodiscard]] int line(std::size_t i) const {
    return i < toks.size() ? toks[i]->line : 0;
  }
  [[nodiscard]] bool is(std::size_t i, std::string_view s) const {
    return i < toks.size() && toks[i]->text == s;
  }
  [[nodiscard]] bool IsIdent(std::size_t i) const {
    return i < toks.size() && toks[i]->kind == TokKind::kIdent;
  }
};

std::size_t MatchGroup(const TView& t, std::size_t i, std::string_view open,
                       std::string_view close) {
  int depth = 0;
  for (std::size_t k = i; k < t.size(); ++k) {
    if (t.is(k, open)) ++depth;
    if (t.is(k, close) && --depth == 0) return k + 1;
  }
  return t.size();
}

// Just past a template argument list opening at `i`, or `i` when the '<' is
// a comparison (same bail heuristics as facts.cc).
std::size_t SkipTemplateArgs(const TView& t, std::size_t i) {
  if (!t.is(i, "<")) return i;
  int depth = 0;
  for (std::size_t k = i; k < t.size() && k < i + 400; ++k) {
    const std::string& s = t.text(k);
    if (s == "<") ++depth;
    else if (s == ">") --depth;
    else if (s == ">>") depth -= 2;
    else if (s == "(") { k = MatchGroup(t, k, "(", ")") - 1; continue; }
    else if (s == ";" || s == "{" || s == "}") return i;
    else if (s == "&&" || s == "||" || s == "=" || s == "==" || s == "+" ||
             s == "-") {
      return i;
    }
    if (depth <= 0) return k + 1;
  }
  return i;
}

// --- name sets -------------------------------------------------------------

// 64-bit declared types: evidence that a static_cast to a 32-bit id type
// actually narrows (GL020). "long" also catches "unsigned long"/"long long".
const std::unordered_set<std::string_view> kWide64Types = {
    "size_t", "ssize_t", "ptrdiff_t", "int64_t", "uint64_t", "intptr_t",
    "uintptr_t", "long"};

// 32-bit vertex-id targets GL020 guards. Deliberately not plain int:
// static_cast<int> is pervasive and mostly benign; the vertex-id types are
// where narrowing corrupts a partition.
const std::unordered_set<std::string_view> kNarrowTargets = {
    "VertexIndex", "int32_t", "uint32_t"};

// Scratch types whose Clear()/Reset() invalidates derived refs (GL018).
const std::unordered_set<std::string_view> kScratchTypes = {
    "PartitionScratch", "GroupAccumulator", "LazyMaxHeap"};

// Containers tracked for GL018.
const std::unordered_set<std::string_view> kOwningContainers = {
    "vector", "deque", "list", "string", "basic_string", "map", "set",
    "multimap", "multiset", "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset", "queue", "stack",
    "priority_queue"};

// Contiguous containers whose growth/shrink invalidates element refs and
// iterators (GL018's vector half; node containers keep refs stable).
const std::unordered_set<std::string_view> kRefUnstableContainers = {
    "vector", "string", "basic_string", "deque"};

const std::unordered_set<std::string_view> kVecInvalidating = {
    "push_back", "emplace_back", "resize", "insert", "clear", "assign",
    "reserve", "erase", "shrink_to_fit"};

// Calls yielding an iterator/pointer into the receiver: binding their result
// is poisonable even without '&' on the left-hand side.
const std::unordered_set<std::string_view> kIterCalls = {
    "begin", "end", "cbegin", "cend", "rbegin", "rend", "crbegin", "crend",
    "data"};

// Element-view calls: poisonable when bound by reference/pointer.
const std::unordered_set<std::string_view> kViewCalls = {"front", "back",
                                                         "at"};

// Thread-varying condition sources for GL021 (superset of the GL016 taint
// callees: a branch on any of these diverges across workers).
const std::unordered_set<std::string_view> kVaryingCallees = {
    "rand", "random", "drand48", "lrand48", "mrand48", "random_device",
    "now", "time", "clock", "gettimeofday", "clock_gettime", "getpid",
    "MonotonicMicros", "ElapsedMs", "ElapsedUs"};

// Deterministic-state sinks (mirrors dataflow.cc's kTaintSinkCallees; the
// Mix* family is matched by prefix so new mixers stay covered).
const std::unordered_set<std::string_view> kSinkCallees = {"HashAssignment",
                                                           "HashLoads"};

const std::unordered_set<std::string_view> kCounterSinkMethods = {
    "Add", "Increment", "Inc"};

// gl:: synchronization infrastructure is exempt from GL017: Mutex::Lock and
// the MutexLock constructor *are* the acquire sites.
const std::unordered_set<std::string_view> kLockInfraClasses = {
    "Mutex", "MutexLock", "CondVar"};

[[nodiscard]] std::string TrimCopy(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// ---------------------------------------------------------------------------
// Builder: one pass over a function body producing a FuncCfg.
// ---------------------------------------------------------------------------

struct Builder {
  Builder(const TView& tv, const std::vector<std::string>& ls)
      : t(tv), lines(ls) {}

  const TView& t;
  const std::vector<std::string>& lines;  // 0-based source lines
  FuncCfg cfg;

  int cur = 0;          // current block; -1 after a terminator (dead code)
  bool par = false;     // inside a ParallelFor lambda body
  int guard = 0;        // line of innermost thread-varying branch (0 = none)
  std::vector<int> continue_to;
  std::vector<int> break_to;

  // Function-wide declaration context (prepass; flow-insensitive on
  // purpose — scoping inside one body is not worth modeling here).
  std::set<std::string> wide64;    // 64-bit declared locals and params
  std::set<std::string> scratch;   // PartitionScratch/GroupAccumulator/...
  std::set<std::string> vecs;      // ref-unstable container locals/params
  std::set<std::string> own;       // body-declared owning containers
  std::set<std::string> counters;  // Counter-typed locals/params
  std::map<std::string, std::string> alias;  // container alias -> source
  std::set<std::string> bound;     // vars with a kBind seen so far

  [[nodiscard]] std::string LineText(int line) const {
    const std::size_t idx = static_cast<std::size_t>(line) - 1;
    return line >= 1 && idx < lines.size() ? TrimCopy(lines[idx]) : "";
  }

  int NewBlock() {
    if (static_cast<int>(cfg.blocks.size()) >= kCfgBlockBudget) {
      cfg.budget_exceeded = true;
      return cur >= 0 ? cur : 0;
    }
    CfgBlock b;
    b.in_parallel = par;
    b.varying_guard = guard;
    cfg.blocks.push_back(std::move(b));
    return static_cast<int>(cfg.blocks.size()) - 1;
  }

  void Edge(int from, int to) {
    if (from < 0 || cfg.budget_exceeded) return;
    std::vector<int>& s = cfg.blocks[static_cast<std::size_t>(from)].succ;
    if (std::find(s.begin(), s.end(), to) == s.end()) s.push_back(to);
  }

  void Emit(CfgEventKind kind, std::string a, std::string b, int line) {
    if (cur < 0 || cfg.budget_exceeded) return;
    CfgEvent e;
    e.kind = kind;
    e.a = std::move(a);
    e.b = std::move(b);
    e.line = line;
    e.line_text = LineText(line);
    cfg.blocks[static_cast<std::size_t>(cur)].events.push_back(std::move(e));
  }

  // --- declaration prepass -------------------------------------------------

  // Past any '*', '&', '&&', 'const', '::' decorating a declarator.
  [[nodiscard]] std::size_t SkipDecl(std::size_t k, std::size_t hi) const {
    while (k < hi && (t.is(k, "*") || t.is(k, "&") || t.is(k, "&&") ||
                      t.is(k, "const") || t.is(k, "::"))) {
      ++k;
    }
    return k;
  }

  void CollectDecls(std::size_t lo, std::size_t hi, bool is_sig) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (!t.IsIdent(i)) continue;
      const std::string& s = t.text(i);
      if (kWide64Types.count(s)) {
        std::size_t k = i + 1;
        // "long long x", "unsigned long x": fold the remaining int words.
        while (k < hi && (t.is(k, "long") || t.is(k, "int") ||
                          t.is(k, "unsigned"))) {
          ++k;
        }
        k = SkipDecl(k, hi);
        if (t.IsIdent(k) && !IsReservedWord(t.text(k))) {
          wide64.insert(t.text(k));
        }
        continue;
      }
      if (kScratchTypes.count(s)) {
        const std::size_t k = SkipDecl(i + 1, hi);
        if (t.IsIdent(k) && !IsReservedWord(t.text(k))) {
          scratch.insert(t.text(k));
        }
        continue;
      }
      if (s == "Counter") {
        const std::size_t k = SkipDecl(i + 1, hi);
        if (t.IsIdent(k) && !IsReservedWord(t.text(k))) {
          counters.insert(t.text(k));
        }
        continue;
      }
      if (kOwningContainers.count(s)) {
        std::size_t k = SkipTemplateArgs(t, i + 1);
        if (k == i + 1 && t.is(k, "<")) continue;  // unparsable args
        k = SkipDecl(k, hi);
        if (t.IsIdent(k) && !IsReservedWord(t.text(k))) {
          if (kRefUnstableContainers.count(s)) vecs.insert(t.text(k));
          if (!is_sig) own.insert(t.text(k));
        }
        continue;
      }
      // `const auto n = v.size();` — a deduced 64-bit count.
      if (s == "auto") {
        const std::size_t k = SkipDecl(i + 1, hi);
        if (t.IsIdent(k) && t.is(k + 1, "=")) {
          int d = 0;
          for (std::size_t j = k + 2; j < hi; ++j) {
            const std::string& js = t.text(j);
            if (js == "(" || js == "[" || js == "{") ++d;
            else if (js == ")" || js == "]" || js == "}") --d;
            else if (js == ";" && d == 0) break;
            if (d == 0 && js == "size" && t.is(j + 1, "(") &&
                (t.is(j - 1, ".") || t.is(j - 1, "->"))) {
              wide64.insert(t.text(k));
              break;
            }
          }
        }
      }
    }
  }

  // --- chains and terms ----------------------------------------------------

  // Receiver chain ending at the '.'/'->' at `dot`, alias-substituted at the
  // head. "" when any link is not a plain identifier.
  [[nodiscard]] std::string ChainBefore(std::size_t dot) const {
    std::vector<std::string> parts;
    std::size_t k = dot;
    while (true) {
      if (k < 1 || !t.IsIdent(k - 1)) return "";
      parts.push_back(t.text(k - 1));
      if (k >= 3 && (t.is(k - 2, ".") || t.is(k - 2, "->"))) {
        k -= 2;
        continue;
      }
      break;
    }
    std::reverse(parts.begin(), parts.end());
    std::string chain;
    const auto it = alias.find(parts[0]);
    chain = it != alias.end() ? it->second : parts[0];
    for (std::size_t i = 1; i < parts.size(); ++i) chain += "." + parts[i];
    return chain;
  }

  [[nodiscard]] static std::string HeadOf(const std::string& chain) {
    const std::size_t dot = chain.find('.');
    return dot == std::string::npos ? chain : chain.substr(0, dot);
  }

  // kCheck/kNarrow terms inside [s, e): bare 64-bit identifiers and
  // `chain.size` call chains. `any_ident` relaxes the wide64 requirement
  // (checks bound whatever they compare; narrows need 64-bit evidence).
  template <typename Fn>
  void ForEachTerm(std::size_t s, std::size_t e, bool any_ident,
                   Fn&& fn) const {
    for (std::size_t k = s; k < e; ++k) {
      if (!t.IsIdent(k)) continue;
      const std::string& id = t.text(k);
      if (id == "size" && t.is(k + 1, "(") && k > s &&
          (t.is(k - 1, ".") || t.is(k - 1, "->"))) {
        const std::string chain = ChainBefore(k - 1);
        if (!chain.empty()) fn(chain + ".size");
        continue;
      }
      const bool bare = !(k > 0 && (t.is(k - 1, ".") || t.is(k - 1, "->"))) &&
                        !t.is(k + 1, "(");
      if (!bare || IsReservedWord(id)) continue;
      if (any_ident || wide64.count(id)) fn(id);
    }
  }

  void EmitCheckTerms(std::size_t s, std::size_t e, int line) {
    ForEachTerm(s, e, /*any_ident=*/true,
                [&](const std::string& term) {
                  Emit(CfgEventKind::kCheck, term, "", line);
                });
  }

  [[nodiscard]] bool CondVaries(std::size_t s, std::size_t e) const {
    for (std::size_t k = s; k < e; ++k) {
      const std::string& id = t.text(k);
      if (id == "reinterpret_cast" || id == "uintptr_t" || id == "intptr_t") {
        return true;
      }
      if (!t.IsIdent(k) || !t.is(k + 1, "(")) continue;
      if (kVaryingCallees.count(id) || id.starts_with("Elapsed")) return true;
    }
    return false;
  }

  // --- per-statement event extraction --------------------------------------

  struct BindInfo {
    bool valid = false;
    bool alias_only = false;
    std::string name;
    std::string src;
    std::size_t name_tok = 0;
    int line = 0;
  };

  [[nodiscard]] BindInfo DetectBind(std::size_t s, std::size_t e) const {
    BindInfo out;
    int d = 0;
    std::size_t eq = e;
    for (std::size_t k = s; k < e; ++k) {
      const std::string& ks = t.text(k);
      if (ks == "(" || ks == "[" || ks == "{") ++d;
      else if (ks == ")" || ks == "]" || ks == "}") --d;
      else if (d == 0 && ks == "=") { eq = k; break; }
    }
    if (eq == e || eq == s) return out;
    // Left side: a simple declared/assigned name directly before the '='.
    if (!t.IsIdent(eq - 1) || IsReservedWord(t.text(eq - 1))) return out;
    if (eq >= 2 && (t.is(eq - 2, ".") || t.is(eq - 2, "->"))) return out;
    const std::size_t name_tok = eq - 1;
    bool is_ref = false;
    for (std::size_t k = s; k < name_tok; ++k) {
      if (t.is(k, "&") || t.is(k, "*")) is_ref = true;
    }
    // Right side: optional '&', then ident ('.'|'->' ident)*, then an
    // optional trailing subscript or call.
    std::size_t k = eq + 1;
    bool addr = false;
    if (t.is(k, "&")) { addr = true; ++k; }
    if (!t.IsIdent(k) || IsReservedWord(t.text(k))) return out;
    std::vector<std::string> parts = {t.text(k)};
    ++k;
    while (k + 1 < e && (t.is(k, ".") || t.is(k, "->")) && t.IsIdent(k + 1)) {
      parts.push_back(t.text(k + 1));
      k += 2;
    }
    bool derived = false;
    std::string last_call;
    if (t.is(k, "[")) {
      derived = true;
    } else if (t.is(k, "(") && parts.size() >= 2) {
      last_call = parts.back();
      if (!kIterCalls.count(last_call) && !kViewCalls.count(last_call)) {
        return out;  // value call (size(), Top(), ...) — nothing to dangle
      }
      parts.pop_back();
      derived = true;
    } else if (t.is(k, "(")) {
      return out;  // free call — not a container view
    }
    std::string src;
    {
      const auto it = alias.find(parts[0]);
      src = it != alias.end() ? it->second : parts[0];
      for (std::size_t i = 1; i < parts.size(); ++i) src += "." + parts[i];
    }
    const std::string root = HeadOf(src);
    if (!derived) {
      if ((is_ref || addr) &&
          (scratch.count(root) || vecs.count(root) || own.count(root))) {
        out.alias_only = true;
        out.name = t.text(name_tok);
        out.src = src;
      }
      return out;
    }
    bool track = false;
    if (scratch.count(root)) {
      track = true;  // element, index or view from a scratch object
    } else if (vecs.count(root)) {
      track = is_ref || addr || kIterCalls.count(last_call) ||
              (kViewCalls.count(last_call) && (is_ref || addr));
    }
    if (!track) return out;
    out.valid = true;
    out.name = t.text(name_tok);
    out.src = std::move(src);
    out.name_tok = name_tok;
    out.line = t.line(name_tok);
    return out;
  }

  void ScanEvents(std::size_t s, std::size_t e) {
    if (cur < 0 || cfg.budget_exceeded || s >= e) return;
    const BindInfo bind = DetectBind(s, e);
    if (bind.alias_only) alias[bind.name] = bind.src;

    for (std::size_t k = s; k < e; ++k) {
      if (!t.IsIdent(k)) continue;
      const std::string& id = t.text(k);
      const bool method = k >= 2 && (t.is(k - 1, ".") || t.is(k - 1, "->"));
      const bool call = t.is(k + 1, "(");

      // Manual lock discipline: single-ident receiver only (x.Lock()).
      if ((id == "Lock" || id == "Unlock") && call && t.is(k + 2, ")") &&
          method && t.IsIdent(k - 2) &&
          !(k >= 3 && (t.is(k - 3, ".") || t.is(k - 3, "->")))) {
        Emit(id == "Lock" ? CfgEventKind::kLock : CfgEventKind::kUnlock,
             t.text(k - 2), "", t.line(k));
        continue;
      }

      // Bounds-check macros grant their argument terms.
      if ((id.starts_with("GOLDILOCKS_CHECK") || id == "assert") && call) {
        const std::size_t pc = MatchGroup(t, k + 1, "(", ")");
        EmitCheckTerms(k + 2, pc - 1, t.line(k));
        continue;
      }

      // static_cast<NarrowType>(...64-bit term...).
      if (id == "static_cast" && t.is(k + 1, "<")) {
        int d = 0;
        std::size_t k2 = k + 1;
        bool narrow = false;
        std::string target;
        for (; k2 < e; ++k2) {
          const std::string& ts = t.text(k2);
          if (ts == "<") ++d;
          else if (ts == ">") { if (--d == 0) { ++k2; break; } }
          else if (ts == ">>") { d -= 2; if (d <= 0) { ++k2; break; } }
          else if (t.IsIdent(k2) && kNarrowTargets.count(ts)) {
            narrow = true;
            target = ts;
          }
        }
        if (narrow && t.is(k2, "(")) {
          const std::size_t pc = MatchGroup(t, k2, "(", ")");
          ForEachTerm(k2 + 1, pc - 1, /*any_ident=*/false,
                      [&](const std::string& term) {
                        Emit(CfgEventKind::kNarrow, term, target, t.line(k));
                      });
        }
        continue;
      }

      if (method && call) {
        const std::string chain = ChainBefore(k - 1);
        if (!chain.empty()) {
          const std::string root = HeadOf(chain);
          if ((id == "Clear" || id == "Reset" || id == "clear") &&
              scratch.count(root)) {
            Emit(CfgEventKind::kInvalidate, chain, id, t.line(k));
          } else if (vecs.count(root) && kVecInvalidating.count(id) &&
                     chain == root) {
            Emit(CfgEventKind::kInvalidate, chain, id, t.line(k));
          }
          if (counters.count(root) && kCounterSinkMethods.count(id)) {
            Emit(CfgEventKind::kSink, "Counter::" + id, "", t.line(k));
          }
        }
      }

      // Deterministic-state sinks: the Mix* family and named hash sinks.
      if (call && (id.starts_with("Mix") || kSinkCallees.count(id))) {
        Emit(CfgEventKind::kSink, id, "", t.line(k));
        continue;
      }

      // Use of a previously bound ref/index/view (bare occurrences only).
      if (bound.count(id) && !method &&
          !(bind.valid && k == bind.name_tok)) {
        Emit(CfgEventKind::kUse, id, "", t.line(k));
      }
    }

    if (bind.valid) {
      Emit(CfgEventKind::kBind, bind.name, bind.src, bind.line);
      bound.insert(bind.name);
    }
  }

  // Condition span: events, then check-grants if it compares anything.
  void ScanCond(std::size_t s, std::size_t e) {
    ScanEvents(s, e);
    int d = 0;
    for (std::size_t k = s; k < e; ++k) {
      const std::string& ks = t.text(k);
      if (ks == "(" || ks == "[" || ks == "{") ++d;
      else if (ks == ")" || ks == "]" || ks == "}") --d;
      else if (d == 0 && (ks == "<" || ks == "<=" || ks == ">" ||
                          ks == ">=" || ks == "==" || ks == "!=")) {
        EmitCheckTerms(s, e, t.line(s));
        return;
      }
    }
  }

  // --- statement structure -------------------------------------------------

  [[nodiscard]] std::size_t StmtEnd(std::size_t i, std::size_t hi) const {
    int d = 0;
    for (std::size_t k = i; k < hi; ++k) {
      const std::string& s = t.text(k);
      if (s == "(" || s == "[" || s == "{") ++d;
      else if (s == ")" || s == "]" || s == "}") --d;
      else if (s == ";" && d <= 0) return k;
    }
    return hi;
  }

  [[nodiscard]] std::size_t SkipPast(std::size_t i, std::size_t hi,
                                     std::string_view stop) const {
    for (std::size_t k = i; k < hi; ++k) {
      if (t.is(k, stop)) return k + 1;
    }
    return hi;
  }

  void ParseRegion(std::size_t lo, std::size_t hi) {
    std::size_t i = lo;
    while (i < hi && !cfg.budget_exceeded) i = ParseStmt(i, hi);
  }

  std::size_t ParseStmt(std::size_t i, std::size_t hi) {
    if (i >= hi) return hi;
    const std::string& s = t.text(i);
    if (s == ";") return i + 1;
    if (s == "{") {
      const std::size_t close = MatchGroup(t, i, "{", "}");
      ParseRegion(i + 1, std::min(close - 1, hi));
      return std::min(close, hi);
    }
    if (s == "if") return ParseIf(i, hi);
    if (s == "while") return ParseWhile(i, hi);
    if (s == "for") return ParseFor(i, hi);
    if (s == "do") return ParseDo(i, hi);
    if (s == "switch") return ParseSwitch(i, hi);
    if (s == "break" || s == "continue") {
      const std::vector<int>& stack = s == "break" ? break_to : continue_to;
      Edge(cur, stack.empty() ? -1 : stack.back());
      cur = -1;
      return SkipPast(i, hi, ";");
    }
    if (s == "return") {
      const std::size_t e = StmtEnd(i, hi);
      ScanEvents(i + 1, e);
      Edge(cur, -1);
      cur = -1;
      return e < hi ? e + 1 : hi;
    }
    if (s == "case" || s == "default") return SkipPast(i, hi, ":");
    if (s == "else") return ParseStmt(i + 1, hi);  // orphan else: merge arms
    return ParseSimple(i, hi);
  }

  std::size_t ParseIf(std::size_t i, std::size_t hi) {
    std::size_t j = i + 1;
    if (t.is(j, "constexpr")) ++j;
    if (!t.is(j, "(")) return ParseSimple(i, hi);
    const std::size_t close = MatchGroup(t, j, "(", ")");
    ScanCond(j + 1, close - 1);
    const int cond_blk = cur;
    const bool varying = par && CondVaries(j + 1, close - 1);
    const int saved_guard = guard;
    if (varying) guard = t.line(i);

    const int then_entry = NewBlock();
    Edge(cond_blk, then_entry);
    cur = then_entry;
    std::size_t next = ParseStmt(close, hi);
    const int then_exit = cur;

    if (t.is(next, "else")) {
      const int else_entry = NewBlock();
      Edge(cond_blk, else_entry);
      cur = else_entry;
      next = ParseStmt(next + 1, hi);
      const int else_exit = cur;
      guard = saved_guard;
      const int join = NewBlock();
      Edge(then_exit, join);
      Edge(else_exit, join);
      cur = join;
    } else {
      guard = saved_guard;
      const int join = NewBlock();
      Edge(cond_blk, join);
      Edge(then_exit, join);
      cur = join;
    }
    return next;
  }

  std::size_t ParseWhile(std::size_t i, std::size_t hi) {
    const std::size_t j = i + 1;
    if (!t.is(j, "(")) return ParseSimple(i, hi);
    const std::size_t close = MatchGroup(t, j, "(", ")");
    const int head = NewBlock();
    Edge(cur, head);
    cur = head;
    ScanCond(j + 1, close - 1);
    const int exit_blk = NewBlock();
    Edge(head, exit_blk);
    const int body = NewBlock();
    Edge(head, body);
    continue_to.push_back(head);
    break_to.push_back(exit_blk);
    cur = body;
    const std::size_t next = ParseStmt(close, hi);
    Edge(cur, head);
    continue_to.pop_back();
    break_to.pop_back();
    cur = exit_blk;
    return next;
  }

  std::size_t ParseFor(std::size_t i, std::size_t hi) {
    const std::size_t j = i + 1;
    if (!t.is(j, "(")) return ParseSimple(i, hi);
    const std::size_t close = MatchGroup(t, j, "(", ")");
    // Split the head: range-for has a top-level ':'; classic has two ';'s.
    int d = 0;
    std::size_t colon = 0;
    std::vector<std::size_t> semis;
    for (std::size_t k = j + 1; k + 1 < close; ++k) {
      const std::string& ks = t.text(k);
      if (ks == "(" || ks == "[" || ks == "{") ++d;
      else if (ks == ")" || ks == "]" || ks == "}") --d;
      else if (d == 0 && ks == ";") semis.push_back(k);
      else if (d == 0 && ks == ":" && colon == 0 && semis.empty()) colon = k;
    }
    if (semis.size() >= 2) {
      ScanEvents(j + 1, semis[0]);  // init runs once, pre-loop
      const int head = NewBlock();
      Edge(cur, head);
      cur = head;
      ScanCond(semis[0] + 1, semis[1]);
      const int exit_blk = NewBlock();
      Edge(head, exit_blk);
        const int body = NewBlock();
      Edge(head, body);
      const int latch = NewBlock();  // the step; `continue` lands here
      continue_to.push_back(latch);
      break_to.push_back(exit_blk);
      cur = body;
      const std::size_t next = ParseStmt(close, hi);
      Edge(cur, latch);
      cur = latch;
      ScanEvents(semis[1] + 1, close - 1);
      Edge(latch, head);
      continue_to.pop_back();
      break_to.pop_back();
        cur = exit_blk;
      return next;
    }
    if (colon != 0) {
      ScanEvents(colon + 1, close - 1);  // range expr evaluates once
      const int head = NewBlock();
      Edge(cur, head);
      cur = head;
      const int exit_blk = NewBlock();
      Edge(head, exit_blk);
        const int body = NewBlock();
      Edge(head, body);
      continue_to.push_back(head);
      break_to.push_back(exit_blk);
      cur = body;
      const std::size_t next = ParseStmt(close, hi);
      Edge(cur, head);
      continue_to.pop_back();
      break_to.pop_back();
        cur = exit_blk;
      return next;
    }
    // Malformed head: treat the whole group as a condition.
    const int head = NewBlock();
    Edge(cur, head);
    cur = head;
    ScanCond(j + 1, close - 1);
    const int exit_blk = NewBlock();
    Edge(head, exit_blk);
    const int body = NewBlock();
    Edge(head, body);
    continue_to.push_back(head);
    break_to.push_back(exit_blk);
    cur = body;
    const std::size_t next = ParseStmt(close, hi);
    Edge(cur, head);
    continue_to.pop_back();
    break_to.pop_back();
    cur = exit_blk;
    return next;
  }

  std::size_t ParseDo(std::size_t i, std::size_t hi) {
    const int exit_blk = NewBlock();
    const int body = NewBlock();
    const int latch = NewBlock();  // the while(cond); `continue` lands here
    Edge(cur, body);
    continue_to.push_back(latch);
    break_to.push_back(exit_blk);
    cur = body;
    std::size_t next = ParseStmt(i + 1, hi);
    Edge(cur, latch);
    continue_to.pop_back();
    break_to.pop_back();
    if (t.is(next, "while") && t.is(next + 1, "(")) {
      const std::size_t close = MatchGroup(t, next + 1, "(", ")");
      cur = latch;
      ScanCond(next + 2, close - 1);
      next = t.is(close, ";") ? close + 1 : close;
    } else {
      cur = latch;
    }
    Edge(latch, body);
    Edge(latch, exit_blk);
    cur = exit_blk;
    return next;
  }

  std::size_t ParseSwitch(std::size_t i, std::size_t hi) {
    const std::size_t j = i + 1;
    if (!t.is(j, "(")) return ParseSimple(i, hi);
    const std::size_t close = MatchGroup(t, j, "(", ")");
    ScanEvents(j + 1, close - 1);
    const int head = cur;
    const int exit_blk = NewBlock();
    break_to.push_back(exit_blk);
    if (!t.is(close, "{")) {
      break_to.pop_back();
      Edge(head, exit_blk);
      cur = exit_blk;
      return close;
    }
    const std::size_t bclose = MatchGroup(t, close, "{", "}");
    const std::size_t lim = bclose - 1;
    bool have_default = false;
    cur = -1;  // nothing executes before the first label
    std::size_t k = close + 1;
    while (k < lim && !cfg.budget_exceeded) {
      if (t.is(k, "case") || (t.is(k, "default") && t.is(k + 1, ":"))) {
        have_default = have_default || t.is(k, "default");
        int d = 0;
        std::size_t col = k + 1;
        while (col < lim) {
          const std::string& cs = t.text(col);
          if (cs == "(" || cs == "[" || cs == "{") ++d;
          else if (cs == ")" || cs == "]" || cs == "}") --d;
          else if (d == 0 && cs == ":") break;
          ++col;
        }
        const int prev = cur;
        const int case_blk = NewBlock();
        Edge(head, case_blk);
        Edge(prev, case_blk);  // fallthrough from the previous label
        cur = case_blk;
        k = col + 1;
        continue;
      }
      k = ParseStmt(k, lim);
    }
    Edge(cur, exit_blk);
    if (!have_default) Edge(head, exit_blk);
    break_to.pop_back();
    cur = exit_blk;
    return std::min(bclose, hi);
  }

  std::size_t ParseSimple(std::size_t i, std::size_t hi) {
    const std::size_t e = StmtEnd(i, hi);
    // ParallelFor(..., [captures](args) { body }) — the body is a region of
    // its own, marked in_parallel for GL021.
    for (std::size_t k = i; k < e; ++k) {
      if (!t.IsIdent(k) || !t.text(k).starts_with("ParallelFor") ||
          !t.is(k + 1, "(")) {
        continue;
      }
      const std::size_t pc = MatchGroup(t, k + 1, "(", ")");
      std::size_t lb = 0;
      for (std::size_t m = k + 2; m + 1 < pc; ++m) {
        if (t.is(m, "[")) { lb = m; break; }
      }
      if (lb == 0) break;
      const std::size_t rb = MatchGroup(t, lb, "[", "]");
      std::size_t bo = 0;
      for (std::size_t m = rb; m + 1 < pc; ++m) {
        if (t.is(m, "{")) { bo = m; break; }
        if (t.is(m, ";")) break;
      }
      if (bo == 0) break;
      const std::size_t bc = MatchGroup(t, bo, "{", "}");
      ScanEvents(i, bo);  // receiver, bounds and captures
      const bool saved_par = par;
      par = true;
      const int entry = NewBlock();
      Edge(cur, entry);
      cur = entry;
      ParseRegion(bo + 1, bc - 1);
      par = saved_par;
      const int after = NewBlock();
      Edge(cur, after);
      cur = after;
      ScanEvents(bc, e);  // trailing arguments
      return e < hi ? e + 1 : hi;
    }
    // Statement-level ternary: a diamond with one expression per arm.
    int d = 0;
    std::size_t q = 0;
    std::size_t col = 0;
    for (std::size_t k = i; k < e; ++k) {
      const std::string& ks = t.text(k);
      if (ks == "(" || ks == "[" || ks == "{") ++d;
      else if (ks == ")" || ks == "]" || ks == "}") --d;
      else if (d == 0 && ks == "?" && q == 0) q = k;
      else if (d == 0 && ks == ":" && q != 0 && col == 0) col = k;
    }
    if (q != 0 && col != 0) {
      ScanEvents(i, q);
      const int cond_blk = cur;
      const int arm1 = NewBlock();
      Edge(cond_blk, arm1);
      cur = arm1;
      ScanEvents(q + 1, col);
      const int arm2 = NewBlock();
      Edge(cond_blk, arm2);
      cur = arm2;
      ScanEvents(col + 1, e);
      const int join = NewBlock();
      Edge(arm1, join);
      Edge(arm2, join);
      cur = join;
      return e < hi ? e + 1 : hi;
    }
    ScanEvents(i, e);
    return e < hi ? e + 1 : hi;
  }
};

// ---------------------------------------------------------------------------
// Interpreters.
// ---------------------------------------------------------------------------

constexpr int kMaxPasses = 64;

[[nodiscard]] std::vector<char> Reachable(const FuncCfg& cfg) {
  std::vector<char> seen(cfg.blocks.size(), 0);
  if (cfg.blocks.empty()) return seen;
  std::vector<int> stack = {0};
  seen[0] = 1;
  while (!stack.empty()) {
    const int b = stack.back();
    stack.pop_back();
    for (const int s : cfg.blocks[static_cast<std::size_t>(b)].succ) {
      if (s >= 0 && s < static_cast<int>(cfg.blocks.size()) && !seen[s]) {
        seen[static_cast<std::size_t>(s)] = 1;
        stack.push_back(s);
      }
    }
  }
  return seen;
}

[[nodiscard]] std::vector<std::vector<int>> Preds(const FuncCfg& cfg) {
  std::vector<std::vector<int>> preds(cfg.blocks.size());
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    for (const int s : cfg.blocks[b].succ) {
      if (s >= 0 && s < static_cast<int>(cfg.blocks.size())) {
        preds[static_cast<std::size_t>(s)].push_back(static_cast<int>(b));
      }
    }
  }
  return preds;
}

void PushFinding(std::vector<Finding>* out, const char* id, const char* name,
                 const std::string& path, int line,
                 const std::string& line_text, std::string message) {
  Finding fd;
  fd.rule_id = id;
  fd.rule_name = name;
  fd.path = path;
  fd.line = line;
  fd.line_text = line_text;
  fd.message = std::move(message);
  out->push_back(std::move(fd));
}

// GL017: forward may-held analysis. State: lock -> first acquire site.
void RunLockLeak(const FileFacts& f, const FuncCfg& cfg,
                 const FunctionDef& fn, const std::set<std::string>& exempt,
                 const std::vector<char>& reach, std::vector<Finding>* out) {
  using State = std::map<std::string, std::pair<int, std::string>>;
  bool any = false;
  // Locks whose earliest manual event in the function is an Unlock entered
  // the function already held (the thread_pool drop-and-retake pattern);
  // exiting while holding them is the contract, not a leak. This also
  // covers GL_REQUIRES spelled only on the header declaration, which fact
  // extraction (definitions only) cannot see.
  std::map<std::string, int> first_lock;
  std::map<std::string, int> first_unlock;
  for (const CfgBlock& b : cfg.blocks) {
    for (const CfgEvent& e : b.events) {
      if (e.kind == CfgEventKind::kLock) {
        any = true;
        const auto it = first_lock.find(e.a);
        if (it == first_lock.end() || e.line < it->second) {
          first_lock[e.a] = e.line;
        }
      } else if (e.kind == CfgEventKind::kUnlock) {
        const auto it = first_unlock.find(e.a);
        if (it == first_unlock.end() || e.line < it->second) {
          first_unlock[e.a] = e.line;
        }
      }
    }
  }
  if (!any) return;
  std::set<std::string> entry_held;
  for (const auto& [lock, line] : first_unlock) {
    const auto it = first_lock.find(lock);
    if (it == first_lock.end() || line < it->second) entry_held.insert(lock);
  }

  const auto preds = Preds(cfg);
  const std::size_t n = cfg.blocks.size();
  std::vector<State> outs(n);
  std::vector<char> has(n, 0);
  const auto transfer = [](State st, const CfgBlock& b) {
    for (const CfgEvent& e : b.events) {
      if (e.kind == CfgEventKind::kLock) {
        st.emplace(e.a, std::make_pair(e.line, e.line_text));
      } else if (e.kind == CfgEventKind::kUnlock) {
        st.erase(e.a);
      }
    }
    return st;
  };
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool changed = false;
    for (std::size_t b = 0; b < n; ++b) {
      if (!reach[b]) continue;
      State in;
      for (const int p : preds[b]) {
        if (!has[static_cast<std::size_t>(p)]) continue;
        for (const auto& [lock, site] : outs[static_cast<std::size_t>(p)]) {
          const auto it = in.find(lock);
          if (it == in.end() || site.first < it->second.first) {
            in[lock] = site;  // union join, earliest acquire wins
          }
        }
      }
      State next = transfer(std::move(in), cfg.blocks[b]);
      if (!has[b] || next != outs[b]) {
        outs[b] = std::move(next);
        has[b] = 1;
        changed = true;
      }
    }
    if (!changed) break;
  }

  State at_exit;
  for (std::size_t b = 0; b < n; ++b) {
    if (!reach[b] || !has[b]) continue;
    const auto& succ = cfg.blocks[b].succ;
    if (std::find(succ.begin(), succ.end(), -1) == succ.end() &&
        !succ.empty()) {
      continue;
    }
    for (const auto& [lock, site] : outs[b]) {
      const auto it = at_exit.find(lock);
      if (it == at_exit.end() || site.first < it->second.first) {
        at_exit[lock] = site;
      }
    }
  }
  for (const auto& [lock, site] : at_exit) {
    if (exempt.count(lock)) continue;      // GL_REQUIRES / GL_ACQUIRE contract
    if (entry_held.count(lock)) continue;  // unlock-first: held at entry
    PushFinding(out, "GL017", "lock-path-leak", f.path, site.first,
                site.second,
                "manual '" + lock + ".Lock()' in '" + fn.name +
                    "' can reach function exit still holding the lock (some "
                    "path skips the Unlock); use gl::MutexLock or cover "
                    "every exit path");
  }
}

// GL018: forward may-poison analysis over ref/index binds.
void RunUseAfterInval(const FileFacts& f, const FuncCfg& cfg,
                      const std::vector<char>& reach,
                      std::vector<Finding>* out) {
  struct Poison {
    std::string chain;
    std::string call;
    int line = 0;
    bool operator==(const Poison&) const = default;
  };
  struct State {
    std::map<std::string, std::string> bound;   // var -> source chain
    std::map<std::string, Poison> poison;       // var -> invalidation site
    bool operator==(const State&) const = default;
  };
  bool any = false;
  for (const CfgBlock& b : cfg.blocks) {
    for (const CfgEvent& e : b.events) {
      if (e.kind == CfgEventKind::kBind) any = true;
    }
  }
  if (!any) return;

  const auto preds = Preds(cfg);
  const std::size_t n = cfg.blocks.size();
  std::vector<State> outs(n);
  std::vector<char> has(n, 0);
  const auto join_into = [](State* into, const State& from) {
    for (const auto& [v, src] : from.bound) {
      const auto it = into->bound.find(v);
      if (it == into->bound.end() || src < it->second) into->bound[v] = src;
    }
    for (const auto& [v, p] : from.poison) {
      const auto it = into->poison.find(v);
      if (it == into->poison.end() || p.line < it->second.line) {
        into->poison[v] = p;
      }
    }
  };
  const auto transfer = [](State st, const CfgBlock& b) {
    for (const CfgEvent& e : b.events) {
      if (e.kind == CfgEventKind::kBind) {
        st.bound[e.a] = e.b;
        st.poison.erase(e.a);
      } else if (e.kind == CfgEventKind::kInvalidate) {
        for (const auto& [v, src] : st.bound) {
          if (src == e.a || src.starts_with(e.a + ".")) {
            st.poison.emplace(v, Poison{e.a, e.b, e.line});
          }
        }
      }
    }
    return st;
  };
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool changed = false;
    for (std::size_t b = 0; b < n; ++b) {
      if (!reach[b]) continue;
      State in;
      for (const int p : preds[b]) {
        if (has[static_cast<std::size_t>(p)]) {
          join_into(&in, outs[static_cast<std::size_t>(p)]);
        }
      }
      State next = transfer(std::move(in), cfg.blocks[b]);
      if (!has[b] || !(next == outs[b])) {
        outs[b] = std::move(next);
        has[b] = 1;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Report pass: walk each block's events against its in-state.
  for (std::size_t b = 0; b < n; ++b) {
    if (!reach[b] || !has[b]) continue;
    State st;
    for (const int p : preds[b]) {
      if (has[static_cast<std::size_t>(p)]) {
        join_into(&st, outs[static_cast<std::size_t>(p)]);
      }
    }
    for (const CfgEvent& e : cfg.blocks[b].events) {
      if (e.kind == CfgEventKind::kBind) {
        st.bound[e.a] = e.b;
        st.poison.erase(e.a);
      } else if (e.kind == CfgEventKind::kInvalidate) {
        for (const auto& [v, src] : st.bound) {
          if (src == e.a || src.starts_with(e.a + ".")) {
            st.poison.emplace(v, Poison{e.a, e.b, e.line});
          }
        }
      } else if (e.kind == CfgEventKind::kUse) {
        const auto it = st.poison.find(e.a);
        if (it == st.poison.end()) continue;
        PushFinding(out, "GL018", "use-after-invalidation", f.path, e.line,
                    e.line_text,
                    "'" + e.a + "' was obtained from '" + it->second.chain +
                        "' but '" + it->second.chain + "." +
                        it->second.call + "()' on line " +
                        std::to_string(it->second.line) +
                        " may invalidate it before this use; re-acquire the "
                        "reference after the invalidation");
      }
    }
  }
}

// GL020: must-checked analysis (intersection at joins, events in order
// within a block, so a check in the same block dominates later casts).
void RunNarrowing(const FileFacts& f, const FuncCfg& cfg,
                  const std::vector<char>& reach, std::vector<Finding>* out) {
  bool any = false;
  for (const CfgBlock& b : cfg.blocks) {
    for (const CfgEvent& e : b.events) {
      if (e.kind == CfgEventKind::kNarrow) any = true;
    }
  }
  if (!any) return;

  const auto preds = Preds(cfg);
  const std::size_t n = cfg.blocks.size();
  std::vector<std::set<std::string>> outs(n);
  std::vector<char> has(n, 0);
  const auto in_of = [&](std::size_t b) {
    std::set<std::string> in;
    bool first = true;
    for (const int p : preds[b]) {
      if (!has[static_cast<std::size_t>(p)]) continue;
      const auto& po = outs[static_cast<std::size_t>(p)];
      if (first) {
        in = po;
        first = false;
      } else {
        std::set<std::string> merged;
        std::set_intersection(in.begin(), in.end(), po.begin(), po.end(),
                              std::inserter(merged, merged.begin()));
        in = std::move(merged);
      }
    }
    return std::make_pair(std::move(in), first);
  };
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool changed = false;
    for (std::size_t b = 0; b < n; ++b) {
      if (!reach[b]) continue;
      auto [in, undefined] = in_of(b);
      if (undefined && b != 0) continue;  // optimistic: wait for a pred
      for (const CfgEvent& e : cfg.blocks[b].events) {
        if (e.kind == CfgEventKind::kCheck) in.insert(e.a);
      }
      if (!has[b] || in != outs[b]) {
        outs[b] = std::move(in);
        has[b] = 1;
        changed = true;
      }
    }
    if (!changed) break;
  }

  for (std::size_t b = 0; b < n; ++b) {
    if (!reach[b] || !has[b]) continue;
    auto [st, undefined] = in_of(b);
    if (undefined && b != 0) continue;
    for (const CfgEvent& e : cfg.blocks[b].events) {
      if (e.kind == CfgEventKind::kCheck) {
        st.insert(e.a);
      } else if (e.kind == CfgEventKind::kNarrow && !st.count(e.a)) {
        PushFinding(out, "GL020", "unguarded-narrowing", f.path, e.line,
                    e.line_text,
                    "64-bit value '" + e.a + "' narrowed to '" + e.b +
                        "' with no dominating bounds check on this path; "
                        "GOLDILOCKS_CHECK it against the id range before "
                        "the cast");
      }
    }
  }
}

// GL021: deterministic-state sink inside a thread-varying branch of a
// ParallelFor body. Purely structural — the builder marked the blocks.
void RunDivergent(const FileFacts& f, const FuncCfg& cfg,
                  const FunctionDef& fn, const std::vector<char>& reach,
                  std::vector<Finding>* out) {
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    const CfgBlock& blk = cfg.blocks[b];
    if (!reach[b] || !blk.in_parallel || blk.varying_guard == 0) continue;
    for (const CfgEvent& e : blk.events) {
      if (e.kind != CfgEventKind::kSink) continue;
      PushFinding(out, "GL021", "divergent-parallel-update", f.path, e.line,
                  e.line_text,
                  "deterministic-state write ('" + e.a +
                      "') is guarded by a thread-varying branch (line " +
                      std::to_string(blk.varying_guard) +
                      ") inside a ParallelFor body in '" + fn.name +
                      "'; decide on deterministic inputs or record per-index "
                      "and fold canonically");
    }
  }
}

}  // namespace

void BuildFunctionCfg(const std::vector<const Token*>& toks,
                      const std::vector<std::string>& lines, int func,
                      std::size_t sig_begin, std::size_t body_begin,
                      std::size_t body_end, FileFacts* out) {
  const TView view{toks};
  Builder b{view, lines};
  b.cfg.func = func;
  b.cur = b.NewBlock();  // entry block
  b.CollectDecls(sig_begin, body_begin, /*is_sig=*/true);
  b.CollectDecls(body_begin, body_end, /*is_sig=*/false);
  b.ParseRegion(body_begin, body_end);
  b.Edge(b.cur, -1);  // fallthrough off the end is a return
  out->cfgs.push_back(std::move(b.cfg));
}

void AnalyzeCfg(const std::vector<FileFacts>& files,
                std::vector<Finding>* out) {
  for (const FileFacts& f : files) {
    std::map<int, std::set<std::string>> exempt;  // func -> contract locks
    for (const LockAnno& q : f.lock_annos) exempt[q.func].insert(q.lock);
    for (const FuncCfg& cfg : f.cfgs) {
      if (cfg.func < 0 ||
          cfg.func >= static_cast<int>(f.functions.size()) ||
          cfg.budget_exceeded || cfg.blocks.empty()) {
        continue;
      }
      const FunctionDef& fn = f.functions[static_cast<std::size_t>(cfg.func)];
      const std::vector<char> reach = Reachable(cfg);
      if (!kLockInfraClasses.count(fn.class_name)) {
        static const std::set<std::string> kNone;
        const auto it = exempt.find(cfg.func);
        RunLockLeak(f, cfg, fn, it != exempt.end() ? it->second : kNone,
                    reach, out);
      }
      RunUseAfterInval(f, cfg, reach, out);
      RunNarrowing(f, cfg, reach, out);
      RunDivergent(f, cfg, fn, reach, out);
    }
  }
}

}  // namespace gl::analyze
