#include "analyze/facts.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

namespace gl::analyze {
namespace {

// Structural view: comments and preprocessor directives removed, but the
// original token (with its line) still reachable.
struct SView {
  std::vector<const Token*> toks;

  [[nodiscard]] std::size_t size() const { return toks.size(); }
  [[nodiscard]] const std::string& text(std::size_t i) const {
    return i < toks.size() ? toks[i]->text : kEmpty;
  }
  [[nodiscard]] TokKind kind(std::size_t i) const {
    return i < toks.size() ? toks[i]->kind : TokKind::kPunct;
  }
  [[nodiscard]] int line(std::size_t i) const {
    return i < toks.size() ? toks[i]->line : 0;
  }
  [[nodiscard]] bool is(std::size_t i, std::string_view s) const {
    return i < toks.size() && toks[i]->text == s;
  }
  [[nodiscard]] bool IsIdent(std::size_t i) const {
    return kind(i) == TokKind::kIdent;
  }

  static const std::string kEmpty;
};
const std::string SView::kEmpty;

// Index just past the token matching the opener at `i` ("{...}" or "(...)").
std::size_t MatchGroup(const SView& t, std::size_t i, std::string_view open,
                       std::string_view close) {
  int depth = 0;
  for (std::size_t k = i; k < t.size(); ++k) {
    if (t.is(k, open)) ++depth;
    if (t.is(k, close) && --depth == 0) return k + 1;
  }
  return t.size();
}

// If t[i] opens a template argument list, returns the index just past its
// closing '>'; otherwise returns i. Heuristic: bails (no template) when a
// ';' or brace interrupts, or after 400 tokens.
std::size_t SkipTemplateArgs(const SView& t, std::size_t i) {
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
      return i;  // expression operators never appear in template args here
    }
    if (depth <= 0) return k + 1;
  }
  return i;
}

const std::unordered_set<std::string_view> kOwningContainers = {
    "vector", "deque", "list", "string", "basic_string", "map", "set",
    "multimap", "multiset", "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset", "queue", "stack",
    "priority_queue"};

const std::unordered_set<std::string_view> kAllocCalls = {
    "make_unique", "make_shared", "malloc", "calloc", "realloc", "strdup",
    "aligned_alloc"};

const std::unordered_set<std::string_view> kGrowthCalls = {
    "push_back", "emplace_back", "emplace", "insert", "append", "push_front",
    "resize", "reserve", "assign"};

const std::unordered_set<std::string_view> kMutexTypes = {
    "Mutex", "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
    "recursive_timed_mutex"};

const std::unordered_set<std::string_view> kCondVarTypes = {
    "CondVar", "condition_variable", "condition_variable_any"};

const std::unordered_set<std::string_view> kBodyIntroducers = {
    "const", "noexcept", "override", "final", "mutable", "try"};

// Int-family type names: locals declared with these default to the "count"
// dimension, so loop counters and sizes never pollute the units lattice.
const std::unordered_set<std::string_view> kIntTypes = {
    "int", "unsigned", "long", "short", "size_t", "ssize_t", "ptrdiff_t",
    "int8_t", "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t",
    "uint32_t", "uint64_t"};

// Containers whose iteration order is nondeterministic (GL016 seeds).
const std::unordered_set<std::string_view> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

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

// Operators that terminate an additive flow chunk; a chunk containing one
// of these is untrackable ("?:").
const std::unordered_set<std::string_view> kFlowBreakers = {
    "<<", ">>", "&", "|", "^", "%", "&&", "||"};

// ---------------------------------------------------------------------------
// Extraction context.
// ---------------------------------------------------------------------------
struct Extractor {
  const SView& t;
  const std::vector<std::string>& lines;  // 0-based source lines
  FileFacts& out;

  // Per-function name sets: local_kinds (name -> ContainerKind) is primed
  // with the parameters by ParseSignature, the rest by ScanStatements'
  // prepass over the body.
  std::unordered_map<std::string, char> local_kinds;
  std::unordered_set<std::string> counter_locals;
  std::unordered_map<std::string, std::string> auto_calls;  // x -> F

  [[nodiscard]] std::string LineText(int line) const {
    if (line < 1 || line > static_cast<int>(lines.size())) return "";
    std::string s = lines[static_cast<std::size_t>(line - 1)];
    const auto b = s.find_first_not_of(" \t");
    const auto e = s.find_last_not_of(" \t\r");
    if (b == std::string::npos) return "";
    return s.substr(b, e - b + 1);
  }

  // --- function bodies -----------------------------------------------------

  void ScanBody(int fidx, std::size_t begin, std::size_t end) {
    // Local owning containers (name -> declaration token index).
    std::unordered_set<std::string> locals;
    CollectLocalContainers(fidx, begin, end, &locals);

    for (std::size_t k = begin; k < end; ++k) {
      // Call sites + allocator calls + new expressions.
      if (t.IsIdent(k)) {
        const std::string& s = t.text(k);
        if (s == "new") {
          out.allocs.push_back({fidx, AllocKind::kNew, "new", t.line(k),
                                LineText(t.line(k))});
          continue;
        }
        if (s == "InducedSubgraph") {
          out.allocs.push_back({fidx, AllocKind::kInducedSubgraph,
                                "InducedSubgraph", t.line(k),
                                LineText(t.line(k))});
          continue;
        }
        const bool called = t.is(k + 1, "(") ||
                            (t.is(k + 1, "<") &&
                             SkipTemplateArgs(t, k + 1) != k + 1 &&
                             t.is(SkipTemplateArgs(t, k + 1), "("));
        if (kAllocCalls.count(s) && called) {
          out.allocs.push_back({fidx, AllocKind::kAllocCall, s, t.line(k),
                                LineText(t.line(k))});
          continue;
        }
        if (t.is(k + 1, "(") && !IsReservedWord(s) && !t.is(k - 1, "new") &&
            !s.starts_with("GL_")) {
          out.calls.push_back({fidx, s, t.line(k)});
        }
        // Growth call on a local container: NAME . grow ( ...
        if (t.is(k + 1, ".") && t.IsIdent(k + 2) && t.is(k + 3, "(") &&
            kGrowthCalls.count(t.text(k + 2)) && locals.count(s) &&
            !(k > begin && (t.is(k - 1, ".") || t.is(k - 1, "->") ||
                            t.is(k - 1, ")") || t.is(k - 1, "]")))) {
          out.allocs.push_back({fidx, AllocKind::kLocalGrowth,
                                s + "." + t.text(k + 2), t.line(k),
                                LineText(t.line(k))});
        }
      }
    }
    ScanParallelForFolds(fidx, begin, end);
    ScanStatements(fidx, begin, end);
  }

  // Declarations of local owning containers; records kLocalInit sites for
  // the ones constructed with contents.
  void CollectLocalContainers(int fidx, std::size_t begin, std::size_t end,
                              std::unordered_set<std::string>* locals) {
    std::size_t stmt_start = begin;
    for (std::size_t k = begin; k < end; ++k) {
      const std::string& s = t.text(k);
      if (s == ";" || s == "{" || s == "}") {
        stmt_start = k + 1;
        continue;
      }
      if (!t.IsIdent(k) || !kOwningContainers.count(s)) continue;
      // Reject member/qualified accesses (x.vector nonsense) but allow a
      // leading std::.
      if (t.is(k - 1, ".") || t.is(k - 1, "->")) continue;
      if (t.is(k - 1, "::") && !t.is(k - 2, "std")) continue;
      // `static` locals allocate once per process, not per call.
      bool is_static = false;
      for (std::size_t b = stmt_start; b < k; ++b) {
        if (t.is(b, "static")) is_static = true;
      }
      std::size_t p = SkipTemplateArgs(t, k + 1);
      if (p == k + 1 && t.is(k + 1, "<")) continue;  // unparsable args
      if (t.is(p, "&") || t.is(p, "*")) continue;    // reference / pointer
      if (!t.IsIdent(p) || IsReservedWord(t.text(p))) continue;
      const std::string name = t.text(p);
      const std::string& nxt = t.text(p + 1);
      bool init = false;
      if (nxt == "=") {
        init = true;
      } else if (nxt == "{") {
        init = !t.is(p + 2, "}");
      } else if (nxt == "(") {
        if (t.is(p + 2, ")")) continue;  // function declaration
        init = true;
      } else if (nxt != ";" && nxt != ",") {
        continue;
      }
      if (is_static) continue;
      locals->insert(name);
      if (init) {
        out.allocs.push_back({fidx, AllocKind::kLocalInit,
                              t.text(k) + " " + name, t.line(p),
                              LineText(t.line(p))});
      }
    }
  }

  // GL012: float accumulation into captured enclosing-scope locals inside
  // ParallelFor lambda bodies.
  void ScanParallelForFolds(int fidx, std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      if (!t.IsIdent(k) || t.text(k) != "ParallelFor" || !t.is(k + 1, "(")) {
        continue;
      }
      const std::size_t args_end = MatchGroup(t, k + 1, "(", ")");
      // Find the lambda: first '[' inside the argument list.
      std::size_t lb = k + 2;
      while (lb < args_end && !t.is(lb, "[")) ++lb;
      if (lb >= args_end) continue;
      std::size_t p = MatchGroup(t, lb, "[", "]");
      if (t.is(p, "(")) p = MatchGroup(t, p, "(", ")");
      while (p < args_end && !t.is(p, "{") && p < lb + 64) ++p;  // specifiers
      if (!t.is(p, "{")) continue;
      const std::size_t body_end = MatchGroup(t, p, "{", "}");

      // double/float locals declared outside vs inside the lambda body.
      std::unordered_set<std::string> outer;
      std::unordered_set<std::string> inner;
      for (std::size_t d = begin; d < end; ++d) {
        if (!t.IsIdent(d) ||
            (t.text(d) != "double" && t.text(d) != "float") ||
            !t.IsIdent(d + 1) || IsReservedWord(t.text(d + 1))) {
          continue;
        }
        const std::string& after = t.text(d + 2);
        if (after != "=" && after != ";" && after != "{" && after != ",") {
          continue;
        }
        (d > p && d < body_end ? inner : outer).insert(t.text(d + 1));
      }

      for (std::size_t q = p; q < body_end; ++q) {
        const std::string& op = t.text(q);
        if (op != "+=" && op != "-=" && op != "*=" && op != "/=") continue;
        if (!t.IsIdent(q - 1)) continue;  // excludes arr[i] += (prev is ']')
        if (t.is(q - 2, ".") || t.is(q - 2, "->") || t.is(q - 2, "]") ||
            t.is(q - 2, ")")) {
          continue;  // member/element target, not a captured scalar
        }
        const std::string& var = t.text(q - 1);
        if (outer.count(var) && !inner.count(var)) {
          const std::string fn =
              fidx >= 0 ? out.functions[static_cast<std::size_t>(fidx)].name
                        : std::string("?");
          out.float_folds.push_back(
              {var, fn, t.line(q), LineText(t.line(q))});
        }
      }
      k = args_end - 1;
    }
  }

  // --- dataflow term extraction (GL014/GL016) and loops (GL001) -----------
  //
  // Statements are the token runs between ';', '{' and '}'. Each statement
  // is scanned for declared dimensions, value flows, unit-relevant binary
  // operators, call arguments, returns, loops and taint seeds. Terms use
  // the encoding documented in facts.h.

  // Parses one operand starting at `k`, bounded by `hi`. Returns the term
  // and the index just past the operand ("" when `k` starts no operand).
  [[nodiscard]] std::pair<std::string, std::size_t> OperandFwd(
      std::size_t k, std::size_t hi) const {
    // Unary prefixes are dimension-transparent (or irrelevant to joins).
    while (k < hi && (t.is(k, "-") || t.is(k, "+") || t.is(k, "!") ||
                      t.is(k, "~") || t.is(k, "*") || t.is(k, "&"))) {
      ++k;
    }
    if (k >= hi) return {"", k};
    if (t.kind(k) == TokKind::kNumber) return {"k:", k + 1};
    if (t.kind(k) == TokKind::kString || t.kind(k) == TokKind::kChar) {
      return {"?:", k + 1};
    }
    if (t.is(k, "(")) {  // parenthesized subexpression: single-term or opaque
      const std::size_t close = MatchGroup(t, k, "(", ")");
      std::vector<std::string> inner;
      FlowTerms(k + 1, close - 1, &inner);
      return {inner.size() == 1 ? inner[0] : std::string("?:"), close};
    }
    if (!t.IsIdent(k)) return {"", k};
    const std::string& first = t.text(k);
    if (first == "static_cast" || first == "const_cast" ||
        first == "reinterpret_cast" || first == "dynamic_cast") {
      // Casts are dimension-transparent: recurse into the cast operand.
      std::size_t p = SkipTemplateArgs(t, k + 1);
      if (!t.is(p, "(")) return {"?:", p};
      const std::size_t close = MatchGroup(t, p, "(", ")");
      std::vector<std::string> inner;
      FlowTerms(p + 1, close - 1, &inner);
      return {inner.size() == 1 ? inner[0] : std::string("?:"), close};
    }
    if (first == "sizeof") {
      std::size_t p = k + 1;
      if (t.is(p, "(")) p = MatchGroup(t, p, "(", ")");
      return {"k:", p};
    }
    if (IsReservedWord(first) && first != "this") return {"", k};

    std::string cur = first;
    bool member = false;
    std::size_t pos = k + 1;
    {  // template arguments on the head name (make_foo<T>(...))
      const std::size_t p = SkipTemplateArgs(t, pos);
      if (p != pos && t.is(p, "(")) pos = p;
    }
    while (pos < hi) {
      if (t.is(pos, "(")) {  // call: the term is the callee's return value
        const std::size_t close = MatchGroup(t, pos, "(", ")");
        if (t.is(close, ".") || t.is(close, "->")) {
          if (!t.IsIdent(close + 1)) return {"?:", close};
          cur = t.text(close + 1);
          member = true;
          pos = close + 2;
          continue;
        }
        // The call site's line keys the term: two calls of the same callee
        // in one function must not share a dataflow node (max() over counts
        // would pollute max() over watts). pos-1 is the callee ident, the
        // same token CallSite and CallArg records take their line from.
        return {"c:" + cur + "@" + std::to_string(t.line(pos - 1)), close};
      }
      if (t.is(pos, "[")) {  // subscripts are transparent (element of base)
        pos = MatchGroup(t, pos, "[", "]");
        continue;
      }
      if (t.is(pos, ".") || t.is(pos, "->")) {
        if (!t.IsIdent(pos + 1)) return {"?:", pos};
        cur = t.text(pos + 1);
        member = true;
        pos += 2;
        continue;
      }
      if (t.is(pos, "::")) {  // qualification, not member access
        if (!t.IsIdent(pos + 1)) return {"?:", pos};
        cur = t.text(pos + 1);
        pos += 2;
        continue;
      }
      break;
    }
    if (cur == "this") return {"?:", pos};
    return {(member ? "m:" : "v:") + cur, pos};
  }

  // Finds the start of the operand that ends just before `k`, then parses
  // it forward. Returns "" when nothing parseable precedes `k`.
  [[nodiscard]] std::string OperandBack(std::size_t lo, std::size_t k) const {
    std::size_t j = k;
    while (true) {
      if (j <= lo) return "";
      std::size_t p = j - 1;
      if (t.is(p, ")") || t.is(p, "]")) {
        const std::string_view open = t.is(p, ")") ? "(" : "[";
        const std::string_view close = t.is(p, ")") ? ")" : "]";
        int depth = 0;
        while (true) {
          if (t.is(p, close)) ++depth;
          if (t.is(p, open) && --depth == 0) break;
          if (p == lo) return "";
          --p;
        }
        // A call-ish group: keep the callee name (and its receiver chain).
        if (p > lo && t.IsIdent(p - 1)) {
          if (t.text(p - 1).starts_with("GL_")) {
            // Annotation macro — not part of the operand; keep walking.
            j = p - 1;
            continue;
          }
          j = p - 1;
        } else {
          j = p;
          break;  // plain parenthesized group: operand starts at '('
        }
      } else if (t.IsIdent(p) || t.kind(p) == TokKind::kNumber) {
        j = p;
      } else {
        return "";
      }
      // Extend left over member/qualifier chains: a.b / a->b / a::b.
      if (j > lo + 1 &&
          (t.is(j - 1, ".") || t.is(j - 1, "->") || t.is(j - 1, "::")) &&
          t.IsIdent(j - 2)) {
        j -= 2;
        continue;
      }
      break;
    }
    return OperandFwd(j, k).first;
  }

  // Splits [lo,hi) at top-level additive/ternary boundaries and appends one
  // term per trackable chunk. A chunk with '*' or '/' flows its single
  // non-literal factor (x * 0.5 keeps x's dimension); two tracked factors
  // make a genuinely new dimension, which the scanner cannot represent.
  // The right operand of a binary operator: the first multiplicative chunk
  // after the operator, via FlowTerms. A product of two tracked factors has
  // no single dimension, so `s += cpu / ref.cpu` must NOT flow cpu's
  // dimension into s — the chunk is untracked ("?:") instead. The region is
  // cut at a top-level '?' (the operand is just the ternary condition) and
  // at the enclosing group's close.
  [[nodiscard]] std::string RhsChunk(std::size_t from, std::size_t e) const {
    std::size_t stop = e;
    int depth = 0;
    for (std::size_t k = from; k < e; ++k) {
      if (t.is(k, "(") || t.is(k, "[") || t.is(k, "{")) ++depth;
      if (t.is(k, ")") || t.is(k, "]") || t.is(k, "}")) --depth;
      if (depth < 0 || (depth == 0 && t.is(k, "?"))) {
        stop = k;
        break;
      }
    }
    std::vector<std::string> terms;
    FlowTerms(from, stop, &terms);
    return terms.empty() ? std::string() : terms[0];
  }

  void FlowTerms(std::size_t lo, std::size_t hi,
                 std::vector<std::string>* terms) const {
    std::size_t chunk = lo;
    int depth = 0;
    const auto flush = [&](std::size_t end) {
      if (chunk >= end) return;
      std::vector<std::size_t> factor_starts = {chunk};
      bool opaque = false;
      int d2 = 0;
      for (std::size_t k = chunk; k < end; ++k) {
        if (t.is(k, "(") || t.is(k, "[") || t.is(k, "{")) ++d2;
        if (t.is(k, ")") || t.is(k, "]") || t.is(k, "}")) --d2;
        if (d2 != 0) continue;
        const std::string& s = t.text(k);
        if (s == "*" || s == "/") {
          if (k > chunk && (t.IsIdent(k - 1) ||
                            t.kind(k - 1) == TokKind::kNumber ||
                            t.is(k - 1, ")") || t.is(k - 1, "]"))) {
            factor_starts.push_back(k + 1);  // binary, not deref
          }
        } else if (kFlowBreakers.count(s) || s == "<" || s == ">" ||
                   s == "<=" || s == ">=" || s == "==" || s == "!=" ||
                   s == "=") {
          opaque = true;
        }
      }
      if (opaque) {
        terms->push_back("?:");
      } else if (factor_starts.size() == 1) {
        const std::string term = OperandFwd(chunk, end).first;
        if (!term.empty()) terms->push_back(term);
      } else {
        std::string tracked;
        int non_literal = 0;
        for (std::size_t fs : factor_starts) {
          const std::string f = OperandFwd(fs, end).first;
          if (f.empty() || f == "?:") {
            non_literal = 2;  // untrackable factor: give up
            break;
          }
          if (f != "k:") {
            ++non_literal;
            tracked = f;
          }
        }
        terms->push_back(non_literal == 1 ? tracked : std::string("?:"));
      }
      chunk = end;
    };
    for (std::size_t k = lo; k < hi; ++k) {
      if (t.is(k, "(") || t.is(k, "[") || t.is(k, "{")) ++depth;
      if (t.is(k, ")") || t.is(k, "]") || t.is(k, "}")) --depth;
      if (depth != 0) continue;
      const std::string& s = t.text(k);
      const bool binary_pm =
          (s == "+" || s == "-") && k > lo &&
          ((t.IsIdent(k - 1) && !IsReservedWord(t.text(k - 1))) ||
           t.kind(k - 1) == TokKind::kNumber || t.is(k - 1, ")") ||
           t.is(k - 1, "]"));
      if (binary_pm || s == "?" || s == ":" || s == ",") {
        flush(k);
        chunk = k + 1;
        if (s == "?") {
          // Everything before '?' is the condition, not a flowing value.
          terms->clear();
        }
      }
    }
    flush(hi);
  }

  // Declarator after the container type at `k` (`unordered_map<K, V>& x`
  // yields x's index), or 0 when none follows or when the closing `>>`
  // also closes an enclosing list (`vector<unordered_map<K, V>> x` declares
  // x as the vector).
  [[nodiscard]] std::size_t DeclaredName(std::size_t k) const {
    std::size_t p = SkipTemplateArgs(t, k + 1);
    if (p == k + 1) return 0;
    int depth = 0;
    for (std::size_t q = k + 1; q < p; ++q) {
      depth += t.is(q, "<") ? 1 : t.is(q, ">") ? -1 : t.is(q, ">>") ? -2 : 0;
    }
    if (depth < 0) return 0;
    while (t.is(p, "&") || t.is(p, "&&") || t.is(p, "*") || t.is(p, "const")) {
      ++p;
    }
    return t.IsIdent(p) && !IsReservedWord(t.text(p)) ? p : 0;
  }

  // Whether the first template argument of the associative type at `k`
  // spells a pointer anywhere (`map<Node*, int>`, `set<pair<T*, int>>`).
  [[nodiscard]] bool KeyHasPointer(std::size_t k) const {
    const std::size_t end = SkipTemplateArgs(t, k + 1);
    int depth = 0;
    for (std::size_t q = k + 2; q + 1 < end; ++q) {
      if (t.is(q, "<") || t.is(q, "(") || t.is(q, "[")) ++depth;
      if (t.is(q, ">") || t.is(q, ")") || t.is(q, "]")) --depth;
      if (t.is(q, "*")) return true;
      if (depth == 0 && t.is(q, ",")) return false;
    }
    return false;
  }

  // How a declaration of the container type at `k` iterates: 'v' unordered,
  // 'e' a sequence of unordered containers (`vector<unordered_set<int>>`),
  // 'p' ordered but pointer-keyed, 0 deterministically or not a
  // declaration. The declarator's index goes to *name.
  [[nodiscard]] char ContainerKind(std::size_t k, std::size_t* name) const {
    const std::string& s = t.text(k);
    const bool seq = s == "vector" || s == "array" || s == "deque";
    const bool ordered =
        s == "map" || s == "set" || s == "multimap" || s == "multiset";
    if (!seq && !ordered && !kUnorderedContainers.count(s)) return 0;
    *name = DeclaredName(k);
    if (*name == 0) return 0;
    if (ordered) return KeyHasPointer(k) ? 'p' : 0;
    if (!seq) return 'v';
    const std::size_t end = SkipTemplateArgs(t, k + 1);
    for (std::size_t q = k + 1; q < end; ++q) {
      if (kUnorderedContainers.count(t.text(q))) return 'e';
    }
    return 0;
  }

  // The per-statement scanner. `begin`/`end` span the function body.
  void ScanStatements(int fidx, std::size_t begin, std::size_t end) {
    // Prepass: locals with nondeterministic iteration order, and
    // deterministic-counter locals (GL016 receivers).
    counter_locals.clear();
    auto_calls.clear();
    for (std::size_t k = begin; k < end; ++k) {
      if (!t.IsIdent(k)) continue;
      const std::string& s = t.text(k);
      std::size_t p = 0;
      const char kind = ContainerKind(k, &p);
      if (kind != 0) local_kinds[t.text(p)] = kind;
      // `auto x = F(...)`: whether F returns an unordered container is a
      // cross-file question (LoopOver::callee).
      if (s == "auto") {
        const std::size_t q = t.is(k + 1, "&") || t.is(k + 1, "&&") ? k + 2
                                                                    : k + 1;
        if (t.IsIdent(q) && t.is(q + 1, "=") && t.IsIdent(q + 2) &&
            t.is(q + 3, "(")) {
          auto_calls[t.text(q)] = t.text(q + 2);
        }
      }
      if (s == "Counter" && t.is(k + 1, "&") && t.IsIdent(k + 2)) {
        for (std::size_t q = k; q < end && !t.is(q, ";"); ++q) {
          if (t.is(q, "kDeterministic")) {
            counter_locals.insert(t.text(k + 2));
            break;
          }
        }
      }
    }

    std::size_t stmt = begin;
    for (std::size_t k = begin; k <= end; ++k) {
      if (k < end && !t.is(k, ";") && !t.is(k, "{") && !t.is(k, "}")) continue;
      ScanOneStatement(fidx, stmt, k);
      stmt = k + 1;
    }
  }

  // A loop over a container: a range-for whose range is a plain name,
  // member chain or one subscript (`for (auto& x : a.b[i])`; calls such as
  // SortedItems(m) are snapshots, not the container), or `.begin()` in a
  // for header (`for (auto it = m.begin(); ...)`). Loops over a known
  // unordered or pointer-keyed local seed taint (GL016, and GL001 for
  // unordered ones); the rest become LoopOver facts for the cross-file
  // GL001 join.
  void ScanLoop(int fidx, std::size_t s, std::size_t e) {
    const std::size_t close = std::min(MatchGroup(t, s + 1, "(", ")"), e);
    std::string var;
    std::string container;
    bool element = false;
    bool chained = false;  // `a.b`, `p->b`, `ns::b`: never a local
    for (std::size_t k = s + 2; k < close && container.empty(); ++k) {
      if (t.is(k, ":") && (t.IsIdent(k - 1) || t.is(k - 1, "]"))) {
        var = t.text(t.is(k - 1, "]") ? k - 2 : k - 1);
        std::size_t q = k + 1;
        while (t.IsIdent(q)) {
          container = t.text(q);
          const bool link = t.is(q + 1, "::") || t.is(q + 1, ".") ||
                            t.is(q + 1, "->");
          q += link ? 2 : 1;
          if (!link) break;
          chained = true;
        }
        if (t.is(q, "[")) {
          element = true;
          q = MatchGroup(t, q, "[", "]");
        }
        if (q + 1 != close) return;
      } else if (t.is(k, ")")) {
        return;
      } else if (t.IsIdent(k) && t.is(k + 1, ".") &&
                 (t.is(k + 2, "begin") || t.is(k + 2, "cbegin")) &&
                 t.is(k + 3, "(")) {
        container = t.text(k);
        for (std::size_t q = s + 2; q < k; ++q) {
          if (t.IsIdent(q) && t.is(q + 1, "=")) var = t.text(q);
        }
      }
    }
    if (container.empty()) return;
    const auto kind = chained ? local_kinds.end() : local_kinds.find(container);
    const char local = kind == local_kinds.end() ? 0 : kind->second;
    const bool unordered = local == (element ? 'e' : 'v');
    const bool ptrkey = !element && local == 'p';
    const int line = t.line(s);
    if (unordered || ptrkey) {
      out.taint_seeds.push_back(
          {fidx, "v:" + (var.empty() ? container : var),
           unordered ? "unordered-iter" : "pointer-key", line, LineText(line)});
      return;
    }
    const auto it = auto_calls.find(container);
    out.loops.push_back({container,
                         it == auto_calls.end() || element ? "" : it->second,
                         element, line, LineText(line)});
  }

  void ScanOneStatement(int fidx, std::size_t s, std::size_t e) {
    if (s >= e) return;

    // GL_UNITS on a local declaration: `double x GL_UNITS(watts) = ...`.
    for (std::size_t k = s; k < e; ++k) {
      if (t.is(k, "GL_UNITS") && t.is(k + 1, "(") && t.IsIdent(k + 2) &&
          t.IsIdent(k - 1)) {
        out.unit_decls.push_back(
            {fidx, t.text(k - 1), t.text(k + 2), t.line(k)});
      }
    }

    // Int-family declarations default to "count".
    for (std::size_t k = s; k + 1 < e; ++k) {
      if (t.IsIdent(k) && kIntTypes.count(t.text(k)) && t.IsIdent(k + 1) &&
          !IsReservedWord(t.text(k + 1)) && !kIntTypes.count(t.text(k + 1))) {
        const std::string& nxt = t.text(k + 2);
        if (nxt == "=" || nxt == ";" || nxt == "," || nxt == ")" ||
            nxt == ":" || k + 2 >= e) {
          out.unit_decls.push_back({fidx, t.text(k + 1), "count", t.line(k)});
        }
      }
    }

    if (t.is(s, "for") && t.is(s + 1, "(")) ScanLoop(fidx, s, e);

    // Binary operators (any nesting depth); template args are skipped.
    static const std::unordered_set<std::string_view> kUnitOps = {
        "+", "-", "+=", "-=", "<", "<=", ">", ">=", "==", "!="};
    for (std::size_t k = s; k < e; ++k) {
      if (t.IsIdent(k) && t.is(k + 1, "<")) {
        const std::size_t p = SkipTemplateArgs(t, k + 1);
        if (p != k + 1) {
          k = p - 1;  // template argument list, not comparisons
          continue;
        }
      }
      const std::string& op = t.text(k);
      if (t.kind(k) != TokKind::kPunct || !kUnitOps.count(op)) continue;
      if (op == "+" || op == "-") {
        const bool binary =
            k > s && ((t.IsIdent(k - 1) && !IsReservedWord(t.text(k - 1))) ||
                      t.kind(k - 1) == TokKind::kNumber || t.is(k - 1, ")") ||
                      t.is(k - 1, "]"));
        if (!binary) continue;
      }
      const std::string lhs = OperandBack(s, k);
      const std::string rhs = RhsChunk(k + 1, e);
      if (lhs.empty() || rhs.empty()) continue;
      if ((lhs == "?:" || lhs == "k:") && (rhs == "?:" || rhs == "k:")) {
        continue;  // nothing trackable on either side
      }
      out.binops.push_back(
          {fidx, op, lhs, rhs, t.line(k), LineText(t.line(k))});
      if (op == "+=" || op == "-=") {  // also a flow into the target
        if (rhs != "?:" && rhs != "k:" && lhs != "?:" && lhs != "k:") {
          out.assigns.push_back(
              {fidx, lhs, rhs, t.line(k), LineText(t.line(k))});
        }
      }
    }

    // Assignment flow: first top-level '='.
    {
      int depth = 0;
      for (std::size_t k = s; k < e; ++k) {
        if (t.is(k, "(") || t.is(k, "[")) ++depth;
        if (t.is(k, ")") || t.is(k, "]")) --depth;
        if (depth != 0 || !t.is(k, "=")) continue;
        const std::string lhs = OperandBack(s, k);
        if (!lhs.empty() && lhs != "?:" && lhs != "k:") {
          std::vector<std::string> rhs;
          FlowTerms(k + 1, e, &rhs);
          for (const std::string& r : rhs) {
            if (r != "?:" && r != "k:") {
              out.assigns.push_back(
                  {fidx, lhs, r, t.line(k), LineText(t.line(k))});
            }
          }
        }
        break;
      }
    }

    // Return flow.
    if (t.is(s, "return") && s + 1 < e) {
      std::vector<std::string> terms;
      FlowTerms(s + 1, e, &terms);
      for (const std::string& r : terms) {
        if (r != "?:" && r != "k:") {
          out.returns.push_back({fidx, r, t.line(s)});
        }
      }
    }

    // Call arguments.
    for (std::size_t k = s; k < e; ++k) {
      if (!t.IsIdent(k) || !t.is(k + 1, "(") || IsReservedWord(t.text(k)) ||
          t.is(k - 1, "new") || t.text(k).starts_with("GL_")) {
        continue;
      }
      std::string callee = t.text(k);
      if (callee == "MutexLock") continue;
      if ((callee == "Add" || callee == "Increment") &&
          (t.is(k - 1, ".") || t.is(k - 1, "->")) && t.IsIdent(k - 2) &&
          counter_locals.count(t.text(k - 2))) {
        callee = "Counter::" + callee;
      }
      const std::size_t close = MatchGroup(t, k + 1, "(", ")");
      // Split the argument list at top-level commas.
      int depth = 0;
      std::size_t arg_start = k + 2;
      int index = 0;
      for (std::size_t q = k + 2; q <= close - 1 && q < t.size(); ++q) {
        if (t.is(q, "(") || t.is(q, "[") || t.is(q, "{")) ++depth;
        if (t.is(q, ")") || t.is(q, "]") || t.is(q, "}")) --depth;
        const bool last = q == close - 1;
        if ((t.is(q, ",") && depth == 0) || last) {
          const std::size_t arg_end = last ? close - 1 : q;
          if (arg_end > arg_start) {
            std::vector<std::string> terms;
            FlowTerms(arg_start, arg_end, &terms);
            for (const std::string& term : terms) {
              if (term != "?:" && term != "k:") {
                // Line of the callee ident: the same key OperandFwd bakes
                // into "c:callee@line" terms for this call.
                out.call_args.push_back({fidx, callee, index, term, t.line(k),
                                         LineText(t.line(k))});
              }
            }
          }
          arg_start = q + 1;
          ++index;
        }
      }
    }
  }

  // Parses a function signature: the parameter list starting at `paren_tok`
  // and the trailing specifiers up to the body's '{' at `body_open`. Emits
  // ParamDecl records and the return units, and primes
  // `local_kinds` with the unordered parameters for the body scan.
  void ParseSignature(int fidx, std::size_t paren_tok, std::size_t body_open) {
    local_kinds.clear();
    const std::size_t paren_end = MatchGroup(t, paren_tok, "(", ")");

    int index = 0;
    std::size_t seg = paren_tok + 1;
    int depth = 0;
    for (std::size_t k = paren_tok + 1; k < paren_end && k < t.size(); ++k) {
      if (t.IsIdent(k) && t.is(k + 1, "<")) {
        const std::size_t p = SkipTemplateArgs(t, k + 1);
        if (p != k + 1 && p <= paren_end) {
          k = p - 1;  // commas inside template args are not separators
          continue;
        }
      }
      if (t.is(k, "(") || t.is(k, "[") || t.is(k, "{")) ++depth;
      if (t.is(k, ")") || t.is(k, "]") || t.is(k, "}")) --depth;
      const bool last = k + 1 >= paren_end;
      if ((t.is(k, ",") && depth == 0) || last) {
        const std::size_t seg_end = t.is(k, ",") && depth == 0 ? k : k;
        if (seg_end > seg) EmitParam(fidx, index++, seg, seg_end);
        seg = k + 1;
      }
    }

    // Trailing specifiers: GL_UNITS(dim) names the return's dimension.
    for (std::size_t k = paren_end; k < body_open; ++k) {
      if (t.is(k, "GL_UNITS") && t.is(k + 1, "(") && t.IsIdent(k + 2)) {
        out.functions[static_cast<std::size_t>(fidx)].ret_units =
            t.text(k + 2);
      }
    }
  }

  void EmitParam(int fidx, int index, std::size_t lo, std::size_t hi) {
    std::string units;
    std::string name;
    bool is_int = false;
    bool is_unordered = false;
    for (std::size_t k = lo; k < hi; ++k) {
      const std::string& s = t.text(k);
      if (s == "=") break;  // default argument
      if (s == "GL_UNITS" && t.is(k + 1, "(") && t.IsIdent(k + 2)) {
        units = t.text(k + 2);
        k = MatchGroup(t, k + 1, "(", ")") - 1;
        continue;
      }
      if (t.IsIdent(k) && s.starts_with("GL_")) {
        if (t.is(k + 1, "(")) k = MatchGroup(t, k + 1, "(", ")") - 1;
        continue;
      }
      if (t.IsIdent(k) && kIntTypes.count(s)) is_int = true;
      if (t.IsIdent(k) && kUnorderedContainers.count(s)) is_unordered = true;
      if (t.is(k + 1, "<")) {  // skip template arguments of the type
        const std::size_t p = SkipTemplateArgs(t, k + 1);
        if (p != k + 1) {
          k = p - 1;
          continue;
        }
      }
      if (t.IsIdent(k) && !IsReservedWord(s)) name = s;
    }
    if (name.empty()) return;
    if (units.empty() && is_int) units = "count";
    if (is_unordered) local_kinds[name] = 'v';
    out.params.push_back({fidx, index, name, units});
  }

  // --- class members (GL011) ----------------------------------------------

  struct MemberInfo {
    std::string name;
    int line = 0;
    bool annotated = false;
    bool exempt = false;    // const / atomic / sync primitive / reference
    bool is_mutex = false;  // owning mutex member
  };

  struct ClassCtx {
    std::string name;
    std::vector<MemberInfo> members;
    bool owns_mutex = false;
  };

  void ProcessMemberStatement(const std::vector<std::size_t>& head,
                              ClassCtx* cls) {
    if (head.empty()) return;
    bool annotated = false;
    bool exempt = false;
    bool is_mutex = false;
    bool is_ref = false;
    bool is_int = false;
    std::string units;
    int angle = 0;
    std::size_t name_tok = t.size();
    for (std::size_t hi = 0; hi < head.size(); ++hi) {
      const std::size_t k = head[hi];
      const std::string& s = t.text(k);
      if (s == "<" && hi > 0 && t.IsIdent(head[hi - 1])) { ++angle; continue; }
      if (s == ">" && angle > 0) { --angle; continue; }
      if (s == ">>" && angle > 0) { angle = std::max(0, angle - 2); continue; }
      if (angle > 0) continue;
      if (s == "using" || s == "typedef" || s == "friend" || s == "static" ||
          s == "template" || s == "static_assert" || s == "operator" ||
          s == "enum" || s == "class" || s == "struct" || s == "union" ||
          s == ":") {
        return;  // not an instance data member (':' = bit-field / base)
      }
      if (s == "GL_GUARDED_BY" || s == "GL_PT_GUARDED_BY" ||
          s == "GL_UNITS") {
        if (s != "GL_UNITS") annotated = true;
        // Skip the annotation's argument list (capturing a GL_UNITS dim).
        if (hi + 1 < head.size() && t.is(head[hi + 1], "(")) {
          if (s == "GL_UNITS" && hi + 2 < head.size() &&
              t.IsIdent(head[hi + 2])) {
            units = t.text(head[hi + 2]);
          }
          int d = 0;
          while (hi < head.size()) {
            if (t.is(head[hi], "(")) ++d;
            if (t.is(head[hi], ")") && --d == 0) break;
            ++hi;
          }
        }
        continue;
      }
      if (s == "(") {
        // A top-level call-ish paren group that is not an annotation:
        // member function declaration (incl. function-pointer members).
        return;
      }
      if (s == "const" || s == "constexpr") exempt = true;
      if (s == "atomic") exempt = true;
      if (t.IsIdent(k) && kIntTypes.count(s)) is_int = true;
      if (s == "&") is_ref = true;
      if (t.IsIdent(k) && kCondVarTypes.count(s)) { exempt = true; }
      if (t.IsIdent(k) && kMutexTypes.count(s)) is_mutex = true;
      if (s == "=" || s == "[" || s == "{") break;
      if (t.IsIdent(k) && !IsReservedWord(s)) name_tok = k;
    }
    if (name_tok == t.size()) return;
    if (is_mutex && is_ref) {
      is_mutex = false;  // borrowed mutex (e.g. MutexLock), not ownership
      exempt = true;
    }
    if (is_mutex) cls->owns_mutex = true;
    if (units.empty() && is_int) units = "count";
    if (!units.empty() && !cls->name.empty()) {
      out.unit_decls.push_back({-1, cls->name + "::" + t.text(name_tok),
                                units, t.line(name_tok)});
    }
    cls->members.push_back({t.text(name_tok), t.line(name_tok), annotated,
                            exempt, is_mutex});
  }

  void FinalizeClass(const ClassCtx& cls) {
    if (!cls.owns_mutex) return;
    for (const MemberInfo& m : cls.members) {
      if (m.is_mutex || m.exempt || m.annotated) continue;
      out.unguarded.push_back(
          {cls.name, m.name, m.line, LineText(m.line)});
    }
  }

  // --- token rules (GL001 names, GL002, GL004–GL007, GL009) ---------------

  // Records one hit per rule per line.
  void Hit(const char* rule, const std::string& detail, std::size_t k) {
    const int line = t.line(k);
    for (const RuleHit& h : out.rule_hits) {
      if (h.line == line && h.rule == rule) return;
    }
    out.rule_hits.push_back({rule, detail, line, LineText(line)});
  }

  // GL001 raw material from a statement outside any function body: member
  // and namespace-scope variables of unordered (or container-of-unordered)
  // type, and functions returning an unordered container.
  void NoteUnorderedDecls(const std::vector<std::size_t>& head) {
    int depth = 0;
    for (const std::size_t k : head) {
      if (t.is(k, "(")) ++depth;
      if (t.is(k, ")")) --depth;
      std::size_t p = 0;
      const char kind = depth == 0 ? ContainerKind(k, &p) : 0;
      if (kind != 'v' && kind != 'e') continue;
      while (t.is(p + 1, "::") && t.IsIdent(p + 2)) p += 2;  // Class::Method
      const bool fn = t.is(p + 1, "(");
      if (fn && kind == 'e') continue;
      out.unordered_names.push_back({t.text(p), fn ? 'f' : kind});
    }
  }

  // GL007: a mutable variable defined at namespace scope. `head` holds the
  // statement's tokens, brace initializers folded to their closing '}'.
  void CheckNamespaceStatement(const std::vector<std::size_t>& head) {
    static const std::unordered_set<std::string_view> kNotVariables = {
        "using", "typedef", "extern", "template", "static_assert", "friend",
        "class", "struct", "enum", "union", "namespace", "concept",
        "requires"};
    std::size_t b = 0;  // past a leading [[attribute]]
    if (head.size() > 1 && t.is(head[0], "[") && t.is(head[1], "[")) {
      while (b + 1 < head.size() &&
             !(t.is(head[b], "]") && t.is(head[b + 1], "]"))) {
        ++b;
      }
      b += 2;
    }
    if (b >= head.size() || kNotVariables.count(t.text(head[b]))) return;
    std::size_t q = b;
    while (q < head.size() && (t.is(head[q], "static") ||
                               t.is(head[q], "inline"))) {
      ++q;
    }
    if (q < head.size() && t.is(head[q], "const")) return;
    std::size_t paren = head.size();
    std::size_t eq = head.size();
    for (std::size_t i = b; i < head.size(); ++i) {
      const std::string& s = t.text(head[i]);
      if (s == "constexpr" || s == "constinit" || s == "operator") return;
      if (s == "(" && paren == head.size()) paren = i;
      if (s == "=" && eq == head.size()) eq = i;
    }
    if (paren < eq) return;  // a function declaration
    for (std::size_t i = b + 1; i < head.size(); ++i) {
      const std::size_t prev = head[i - 1];
      const bool after_type =
          t.IsIdent(prev) || t.is(prev, ">") || t.is(prev, ">>") ||
          t.is(prev, ")") || t.is(prev, "*") || t.is(prev, "&") ||
          t.is(prev, "]");
      const bool declarator =
          i + 1 == head.size() || t.is(head[i + 1], "=") ||
          t.is(head[i + 1], "}");
      if (t.IsIdent(head[i]) && after_type && declarator) {
        Hit("GL007", t.text(head[i]), head[b]);
        return;
      }
    }
  }

  // GL002, GL004, GL005, GL006 and GL009: patterns decided by a token and
  // its neighbours.
  void ScanTokenRules() {
    static const std::unordered_set<std::string_view> kRngNames = {
        "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
        "default_random_engine", "random_device", "drand48", "lrand48",
        "random_shuffle"};
    static const std::unordered_set<std::string_view> kClockNames = {
        "steady_clock", "high_resolution_clock", "gettimeofday",
        "clock_gettime"};
    static const std::unordered_set<std::string_view> kAssoc = {
        "map", "set", "multimap", "multiset", "unordered_map",
        "unordered_set", "unordered_multimap", "unordered_multiset"};
    static const std::unordered_set<std::string_view> kResourceFields = {
        "cpu", "mem_gb", "net_mbps"};
    for (std::size_t k = 0; k < t.size(); ++k) {
      const std::string& s = t.text(k);
      if (!t.IsIdent(k)) {
        if ((s == "==" || s == "!=") && t.IsIdent(k + 1) &&
            t.is(k + 2, ".") && kResourceFields.count(t.text(k + 3))) {
          Hit("GL005", s + " ." + t.text(k + 3), k);
        }
        continue;
      }
      const bool member = k > 0 && t.is(k - 1, ".");
      const bool call = t.is(k + 1, "(");
      const bool bare_call = call && t.is(k + 2, ")");
      const bool ranlux = s.starts_with("ranlux") && s.size() > 6 &&
                          s.find_first_not_of("0123456789", 6) ==
                              std::string::npos;
      if (kRngNames.count(s) || ranlux ||
          (s.ends_with("_distribution") && t.is(k + 1, "<")) ||
          (s == "rand" && bare_call && !member) || (s == "srand" && call)) {
        Hit("GL002", s, k);
      }
      const bool time_call =
          call && (t.is(k + 2, ")") ||
                   ((t.is(k + 2, "NULL") || t.is(k + 2, "nullptr") ||
                     t.is(k + 2, "0")) &&
                    t.is(k + 3, ")")));
      if (kClockNames.count(s) || (s == "now" && call && t.is(k - 1, "::")) ||
          (!member && ((s == "time" && time_call) ||
                       (s == "clock" && bare_call) ||
                       (s == "getpid" && call)))) {
        Hit("GL009", s, k);
      }
      if (kAssoc.count(s) && t.is(k + 1, "<") && KeyHasPointer(k)) {
        Hit("GL004", s, k);
      }
      if (kResourceFields.count(s) && (t.is(k + 1, "==") || t.is(k + 1, "!="))) {
        Hit("GL005", s + " " + t.text(k + 1), k);
      }
      const bool std_name = k >= 2 && t.is(k - 1, "::") && t.is(k - 2, "std");
      if ((std_name && (s == "thread" || s == "jthread" || s == "async")) ||
          s == "pthread_create" || (member && s == "detach" && call)) {
        Hit("GL006", std_name ? "std::" + s : s, k);
      }
    }
  }

  // --- GL020: narrowing casts (DESIGN.md §14) ------------------------------
  //
  // One walk over a function body keeps a stack of grant sets, one per open
  // scope: a {…} block (lambda bodies included), the body of a braceless
  // if/else/for/while/do, or one case/default arm. GOLDILOCKS_CHECK*(…)
  // grants its argument terms to the innermost scope. An if/while condition,
  // or a classic for's middle clause, that holds a top-level comparison
  // grants its terms to the scope holding the statement. Terms are bare
  // identifiers and `chain.size` for a .size() call. A static_cast to a
  // 32-bit vertex-id type of a 64-bit term fires unless some grant set on
  // the stack holds the term.

  std::unordered_set<std::string> wide64;  // 64-bit locals and parameters
  std::vector<std::unordered_set<std::string>> grants;  // innermost last

  // `sig` opens the parameter list; [begin, end) is the body.
  void ScanNarrowing(std::size_t sig, std::size_t begin, std::size_t end) {
    wide64.clear();
    for (std::size_t i = sig; i < end; ++i) NoteWide64(i, end);
    NarrowBlock(begin, end);
  }

  // 64-bit evidence at `i`: a size_t-family declaration, or
  // `auto x = ….size()` with the call at the initializer's top level.
  void NoteWide64(std::size_t i, std::size_t end) {
    const std::string& s = t.text(i);
    if (!t.IsIdent(i) || (s != "auto" && !kWide64Types.count(s))) return;
    std::size_t k = i + 1;
    // "long long x", "unsigned long x": fold the remaining int words.
    while (s != "auto" &&
           (t.is(k, "long") || t.is(k, "int") || t.is(k, "unsigned"))) {
      ++k;
    }
    while (t.is(k, "*") || t.is(k, "&") || t.is(k, "&&") ||
           t.is(k, "const") || t.is(k, "::")) {
      ++k;
    }
    if (k >= end || !t.IsIdent(k) || IsReservedWord(t.text(k))) return;
    if (s != "auto") {
      wide64.insert(t.text(k));
      return;
    }
    if (!t.is(k + 1, "=")) return;
    const std::size_t size_call =
        TopLevel(k + 2, end, [&](std::size_t j) {
          return t.is(j, ";") ||
                 (t.is(j, "size") && t.is(j + 1, "(") &&
                  (t.is(j - 1, ".") || t.is(j - 1, "->")));
        });
    if (t.is(size_call, "size")) wide64.insert(t.text(k));
  }

  // First index in [s, e) outside any (), [] or {} group for which `pred`
  // holds, or e.
  template <typename Pred>
  [[nodiscard]] std::size_t TopLevel(std::size_t s, std::size_t e,
                                     Pred pred) const {
    int depth = 0;
    for (std::size_t k = s; k < e; ++k) {
      const std::string& x = t.text(k);
      if (x == "(" || x == "[" || x == "{") ++depth;
      else if (x == ")" || x == "]" || x == "}") --depth;
      else if (depth == 0 && pred(k)) return k;
    }
    return e;
  }

  // A TopLevel predicate: the token spells `s`.
  [[nodiscard]] auto Tok(std::string_view s) const {
    return [this, s](std::size_t k) { return t.is(k, s); };
  }

  // "a.b" for the identifier chain that ends at the '.'/'->' at `dot`, ""
  // when a link is not a plain identifier.
  [[nodiscard]] std::string ChainBefore(std::size_t dot) const {
    std::string chain;
    for (std::size_t k = dot;; k -= 2) {
      if (k < 1 || !t.IsIdent(k - 1)) return "";
      chain = chain.empty() ? t.text(k - 1) : t.text(k - 1) + "." + chain;
      if (k < 3 || !(t.is(k - 2, ".") || t.is(k - 2, "->"))) return chain;
    }
  }

  // The terms in [s, e): any identifier for a grant, only a 64-bit one for
  // a cast; a .size() call counts either way.
  template <typename Fn>
  void ForEachNarrowTerm(std::size_t s, std::size_t e, bool any_ident,
                         Fn&& fn) const {
    for (std::size_t k = s; k < e; ++k) {
      if (!t.IsIdent(k)) continue;
      const std::string& id = t.text(k);
      const bool member = t.is(k - 1, ".") || t.is(k - 1, "->");
      if (id == "size" && t.is(k + 1, "(") && k > s && member) {
        const std::string chain = ChainBefore(k - 1);
        if (!chain.empty()) fn(chain + ".size");
      } else if (!member && !t.is(k + 1, "(") && !IsReservedWord(id) &&
                 (any_ident || wide64.count(id))) {
        fn(id);
      }
    }
  }

  void Grant(std::size_t s, std::size_t e) {
    ForEachNarrowTerm(s, e, /*any_ident=*/true,
                      [&](const std::string& term) {
                        grants.back().insert(term);
                      });
  }

  // The statements in [lo, hi) under a scope of their own. A case or
  // default label closes the previous arm's scope and opens the next.
  void NarrowBlock(std::size_t lo, std::size_t hi) {
    const std::size_t outer = grants.size();
    grants.emplace_back();
    while (lo < hi) {
      if (t.is(lo, "case") || (t.is(lo, "default") && t.is(lo + 1, ":"))) {
        grants.resize(outer + 1);
        grants.emplace_back();
        lo = TopLevel(lo, hi, Tok(":")) + 1;
      } else {
        lo = NarrowStmt(lo, hi);
      }
    }
    grants.resize(outer);
  }

  // An if/else/for/while/do body under a scope of its own.
  std::size_t NarrowBody(std::size_t i, std::size_t hi) {
    grants.emplace_back();
    const std::size_t next = NarrowStmt(i, hi);
    grants.pop_back();
    return next;
  }

  // One statement at `i`; returns the index just past it.
  std::size_t NarrowStmt(std::size_t i, std::size_t hi) {
    if (i >= hi) return hi;
    const std::string& s = t.text(i);
    if (s == "{") {
      const std::size_t close = std::min(MatchGroup(t, i, "{", "}"), hi);
      NarrowBlock(i + 1, close - 1);
      return close;
    }
    if (s == "else" || s == "do") return NarrowBody(i + 1, hi);
    const std::size_t open =
        i + (s == "if" && t.is(i + 1, "constexpr") ? 2 : 1);
    if ((s != "if" && s != "while" && s != "for" && s != "switch") ||
        !t.is(open, "(")) {
      const std::size_t e = TopLevel(i, hi, Tok(";"));
      NarrowExpr(i, e);
      return e < hi ? e + 1 : hi;
    }
    const std::size_t close = MatchGroup(t, open, "(", ")") - 1;  // the ')'
    if (s == "switch") {
      NarrowExpr(open + 1, close);
      return NarrowStmt(close + 1, hi);  // the block: its arms are scopes
    }
    if (s != "for") {
      NarrowCond(open + 1, close);
    } else {
      const std::size_t init_end = TopLevel(open + 1, close, Tok(";"));
      const std::size_t cond_end = TopLevel(init_end + 1, close, Tok(";"));
      if (cond_end < close) {  // classic for: init; cond; step
        NarrowExpr(open + 1, init_end);
        NarrowCond(init_end + 1, cond_end);
        NarrowExpr(cond_end + 1, close);
      } else {  // range-for
        NarrowExpr(open + 1, close);
      }
    }
    std::size_t next = NarrowBody(close + 1, hi);
    if (s == "if" && t.is(next, "else")) next = NarrowBody(next + 1, hi);
    return next;
  }

  // A condition: its own checks and casts, then a grant of its terms to the
  // enclosing scope when it compares at top level.
  void NarrowCond(std::size_t s, std::size_t e) {
    NarrowExpr(s, e);
    const std::size_t cmp = TopLevel(s, e, [&](std::size_t k) {
      const std::string& x = t.text(k);
      return x == "<" || x == "<=" || x == ">" || x == ">=" || x == "==" ||
             x == "!=";
    });
    if (cmp < e) Grant(s, e);
  }

  // Checks, casts and nested blocks (lambda bodies) in the expression tokens
  // [s, e), in source order.
  void NarrowExpr(std::size_t s, std::size_t e) {
    for (std::size_t k = s; k < e; ++k) {
      const std::string& x = t.text(k);
      if (x == "{") {
        const std::size_t close = std::min(MatchGroup(t, k, "{", "}"), e);
        NarrowBlock(k + 1, close - 1);
        k = close - 1;
      } else if (t.IsIdent(k) && x.starts_with("GOLDILOCKS_CHECK") &&
                 t.is(k + 1, "(")) {
        Grant(k + 2, MatchGroup(t, k + 1, "(", ")") - 1);
      } else if (x == "static_cast" && t.is(k + 1, "<")) {
        NarrowCast(k);
      }
    }
  }

  // static_cast<T>(…) at `k`: fires on each unchecked 64-bit term when T is
  // a 32-bit vertex-id type.
  void NarrowCast(std::size_t k) {
    const std::size_t open = SkipTemplateArgs(t, k + 1);  // past the '>'
    std::string target;
    for (std::size_t p = k + 2; p + 1 < open; ++p) {
      if (kNarrowTargets.count(t.text(p))) target = t.text(p);
    }
    if (target.empty() || !t.is(open, "(")) return;
    ForEachNarrowTerm(
        open + 1, MatchGroup(t, open, "(", ")") - 1, /*any_ident=*/false,
        [&](const std::string& term) {
          const bool checked =
              std::any_of(grants.begin(), grants.end(),
                          [&](const auto& g) { return g.count(term) > 0; });
          if (!checked) Hit("GL020", term + " -> " + target, k);
        });
  }
};

// ---------------------------------------------------------------------------
// Scope machine: walks namespace/class scope, indexes function definitions,
// skips (and scans) their bodies wholesale.
// ---------------------------------------------------------------------------
void WalkStructure(Extractor& ex) {
  const SView& t = ex.t;
  enum class ScopeType { kNamespace, kClass, kBlock };
  struct Scope {
    ScopeType type;
    Extractor::ClassCtx cls;
  };
  std::vector<Scope> scopes;
  std::vector<std::size_t> head;

  const auto current_class = [&]() -> Extractor::ClassCtx* {
    return !scopes.empty() && scopes.back().type == ScopeType::kClass
               ? &scopes.back().cls
               : nullptr;
  };

  std::size_t i = 0;
  while (i < t.size()) {
    const std::string& s = t.text(i);

    if (t.IsIdent(i) && s == "namespace" && head.empty()) {
      std::size_t j = i + 1;
      while (j < t.size() && !t.is(j, "{") && !t.is(j, ";") && !t.is(j, "=")) {
        ++j;
      }
      if (t.is(j, "{")) {
        scopes.push_back({ScopeType::kNamespace, {}});
        i = j + 1;
      } else if (t.is(j, "=")) {  // namespace alias
        while (j < t.size() && !t.is(j, ";")) ++j;
        i = j + 1;
      } else {
        i = j + 1;
      }
      head.clear();
      continue;
    }

    if (t.IsIdent(i) && s == "enum") {
      std::size_t j = i + 1;
      while (j < t.size() && !t.is(j, "{") && !t.is(j, ";")) ++j;
      i = t.is(j, "{") ? MatchGroup(t, j, "{", "}") : j + 1;
      head.clear();
      continue;
    }

    if (t.IsIdent(i) && (s == "class" || s == "struct" || s == "union")) {
      // Scan ahead for '{' (definition) or ';' (declaration / member).
      std::size_t j = i + 1;
      std::string name;
      bool in_bases = false;
      while (j < t.size() && !t.is(j, "{") && !t.is(j, ";")) {
        if (t.is(j, "(")) { j = MatchGroup(t, j, "(", ")"); continue; }
        if (t.is(j, ":") && !t.is(j + 1, ":") && !t.is(j - 1, ":")) {
          in_bases = true;
        }
        if (!in_bases && t.IsIdent(j) && !IsReservedWord(t.text(j)) &&
            t.text(j) != "final" && !t.text(j).starts_with("GL_")) {
          name = t.text(j);
        }
        ++j;
      }
      if (t.is(j, "{")) {
        Scope sc{ScopeType::kClass, {}};
        sc.cls.name = name;
        scopes.push_back(std::move(sc));
        i = j + 1;
      } else {
        i = j + 1;  // forward declaration or `struct X*` member — skip
      }
      head.clear();
      continue;
    }

    if (t.IsIdent(i) &&
        (s == "public" || s == "private" || s == "protected") &&
        t.is(i + 1, ":") && current_class() != nullptr) {
      i += 2;
      head.clear();
      continue;
    }

    if (s == "{") {
      // extern "C" { ... } keeps namespace-like scope.
      if (head.size() == 2 && t.is(head[0], "extern") &&
          t.kind(head[1]) == TokKind::kString) {
        scopes.push_back({ScopeType::kNamespace, {}});
        ++i;
        head.clear();
        continue;
      }
      // Function body vs brace initializer: a body's '{' follows ')', '}',
      // '>', a reserved type word, or a specifier; an initializer's '{'
      // follows the variable name, '=', ',' or '('.
      const std::string& last = head.empty() ? SView::kEmpty
                                             : t.text(head.back());
      // A ')' closing a GL_ annotation arg list (`double x GL_UNITS(w){}`)
      // still introduces an initializer, not a body — unless the statement
      // also has a parameter list (then it's a function with a trailing
      // annotation, e.g. `double f() const GL_UNITS(watts) { ... }`).
      bool after_annotation = false;
      if (last == ")") {
        int d = 0;
        for (std::size_t hi = head.size(); hi-- > 0;) {
          if (t.is(head[hi], ")")) ++d;
          if (t.is(head[hi], "(") && --d == 0) {
            after_annotation = hi > 0 && t.IsIdent(head[hi - 1]) &&
                               t.text(head[hi - 1]).starts_with("GL_");
            if (after_annotation) {
              for (std::size_t pj = 0; pj + 1 < hi; ++pj) {
                if (t.is(head[pj + 1], "(") && t.IsIdent(head[pj]) &&
                    !t.text(head[pj]).starts_with("GL_")) {
                  after_annotation = false;  // param list → function body
                  break;
                }
              }
            }
            break;
          }
        }
      }
      const bool init_like =
          !head.empty() &&
          (last == "=" || last == "," || last == "(" || last == "[" ||
           after_annotation ||
           (t.IsIdent(head.back()) && !IsReservedWord(last) &&
            !kBodyIntroducers.count(last)));
      if (head.empty() || init_like) {
        // Brace initializer (member/global init) — consume, keep statement
        // open. An empty head is a stray block; skip it the same way.
        const std::size_t close = MatchGroup(t, i, "{", "}");
        if (!head.empty()) head.push_back(close - 1);  // '}' marker
        i = close;
        continue;
      }
      // Function definition: name = identifier before the first top-level
      // paren group; Class::Name qualification wins over lexical scope.
      std::string fname;
      std::string fclass;
      int fline = t.line(i);
      std::size_t paren_tok = t.size();
      int angle = 0;
      for (std::size_t hi = 0; hi < head.size(); ++hi) {
        const std::size_t k = head[hi];
        const std::string& hs = t.text(k);
        if (hs == "<" && hi > 0 && t.IsIdent(head[hi - 1])) { ++angle; continue; }
        if (hs == ">" && angle > 0) { --angle; continue; }
        if (hs == ">>" && angle > 0) { angle = std::max(0, angle - 2); continue; }
        if (angle > 0) continue;
        if (hs == "(" && hi > 0 && t.IsIdent(head[hi - 1]) &&
            !t.text(head[hi - 1]).starts_with("GL_")) {
          fname = t.text(head[hi - 1]);
          fline = t.line(head[hi - 1]);
          paren_tok = k;
          if (hi >= 3 && t.is(head[hi - 2], "::") &&
              t.IsIdent(head[hi - 3])) {
            fclass = t.text(head[hi - 3]);
          }
          break;
        }
        if (hs == "operator") {
          fname = "operator";
          break;
        }
      }
      if (fclass.empty()) {
        const Extractor::ClassCtx* cc = current_class();
        if (cc != nullptr) fclass = cc->name;
      }
      const std::size_t body_end = MatchGroup(t, i, "{", "}");
      if (!fname.empty()) {
        const int fidx = static_cast<int>(ex.out.functions.size());
        FunctionDef def;
        def.name = fname;
        def.class_name = fclass;
        def.line = fline;
        def.body_end_line = t.line(body_end - 1);
        def.line_text = ex.LineText(fline);
        ex.out.functions.push_back(std::move(def));
        ex.NoteUnorderedDecls(head);
        if (paren_tok < t.size()) ex.ParseSignature(fidx, paren_tok, i);
        else ex.local_kinds.clear();
        ex.ScanBody(fidx, i + 1, body_end - 1);
        ex.ScanNarrowing(paren_tok < t.size() ? paren_tok : i + 1, i + 1,
                         body_end - 1);
      }
      i = body_end;
      head.clear();
      continue;
    }

    if (s == ";") {
      Extractor::ClassCtx* cc = current_class();
      if (cc != nullptr) ex.ProcessMemberStatement(head, cc);
      else ex.CheckNamespaceStatement(head);
      ex.NoteUnorderedDecls(head);
      head.clear();
      ++i;
      continue;
    }

    if (s == "}") {
      if (!scopes.empty()) {
        if (scopes.back().type == ScopeType::kClass) {
          ex.FinalizeClass(scopes.back().cls);
        }
        scopes.pop_back();
      }
      head.clear();
      ++i;
      continue;
    }

    head.push_back(i);
    ++i;
  }
  // Unterminated class at EOF (truncated file): still report what we saw.
  while (!scopes.empty()) {
    if (scopes.back().type == ScopeType::kClass) {
      ex.FinalizeClass(scopes.back().cls);
    }
    scopes.pop_back();
  }
}

// ---------------------------------------------------------------------------
// Serialization (cache format; one escaped record per line).
// ---------------------------------------------------------------------------
void AppendEscaped(const std::string& s, std::string* out) {
  for (const char c : s) {
    if (c == '\\') out->append("\\\\");
    else if (c == '\t') out->append("\\t");
    else if (c == '\n') out->append("\\n");
    else out->push_back(c);
  }
}

[[nodiscard]] std::string Unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      const char n = s[++i];
      out.push_back(n == 't' ? '\t' : n == 'n' ? '\n' : n);
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

void AppendRecord(std::string* out, std::initializer_list<std::string> cols) {
  bool first = true;
  for (const std::string& c : cols) {
    if (!first) out->push_back('\t');
    first = false;
    AppendEscaped(c, out);
  }
  out->push_back('\n');
}

[[nodiscard]] std::vector<std::string> SplitRecord(std::string_view line) {
  std::vector<std::string> cols;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    const bool end = i == line.size();
    // A field separator is an unescaped tab; escaped tabs are "\t" pairs.
    if (end || (line[i] == '\t')) {
      cols.push_back(Unescape(line.substr(start, i - start)));
      start = i + 1;
    } else if (line[i] == '\\') {
      ++i;
    }
  }
  return cols;
}

}  // namespace

std::uint64_t HashBytes(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

FileFacts ExtractFacts(const std::string& path, std::string_view source) {
  FileFacts facts;
  facts.path = path;

  const std::vector<Token> all = Lex(source);
  SView structural;
  structural.toks.reserve(all.size());
  for (const Token& tok : all) {
    if (tok.kind != TokKind::kComment && tok.kind != TokKind::kPreprocessor) {
      structural.toks.push_back(&tok);
    }
  }

  std::vector<std::string> lines;
  {
    std::size_t start = 0;
    for (std::size_t i = 0; i <= source.size(); ++i) {
      if (i == source.size() || source[i] == '\n') {
        lines.emplace_back(source.substr(start, i - start));
        start = i + 1;
      }
    }
  }

  Extractor ex{structural, lines, facts, {}, {}, {}, {}, {}};
  WalkStructure(ex);
  ex.ScanTokenRules();
  return facts;
}

void SerializeFacts(const FileFacts& f, std::string* out) {
  AppendRecord(out, {"P", f.path});
  for (const FunctionDef& d : f.functions) {
    AppendRecord(out, {"F", d.name, d.class_name, std::to_string(d.line),
                       d.ret_units, std::to_string(d.body_end_line),
                       d.line_text});
  }
  for (const CallSite& c : f.calls) {
    AppendRecord(out, {"C", std::to_string(c.func), c.callee,
                       std::to_string(c.line)});
  }
  for (const AllocSite& a : f.allocs) {
    AppendRecord(out, {"A", std::to_string(a.func),
                       std::to_string(static_cast<int>(a.kind)), a.detail,
                       std::to_string(a.line), a.line_text});
  }
  for (const UnguardedMember& m : f.unguarded) {
    AppendRecord(out, {"M", m.class_name, m.member, std::to_string(m.line),
                       m.line_text});
  }
  for (const FloatFold& x : f.float_folds) {
    AppendRecord(out, {"X", x.var, x.function, std::to_string(x.line),
                       x.line_text});
  }
  for (const RuleHit& h : f.rule_hits) {
    AppendRecord(out, {"I", h.rule, h.detail, std::to_string(h.line),
                       h.line_text});
  }
  for (const UnorderedName& n : f.unordered_names) {
    AppendRecord(out, {"N", n.name, std::string(1, n.kind)});
  }
  for (const LoopOver& l : f.loops) {
    AppendRecord(out, {"O", l.container, l.callee, l.element ? "1" : "0",
                       std::to_string(l.line), l.line_text});
  }
  for (const UnitDecl& u : f.unit_decls) {
    AppendRecord(out, {"U", std::to_string(u.func), u.var, u.dim,
                       std::to_string(u.line)});
  }
  for (const ParamDecl& p : f.params) {
    AppendRecord(out, {"R", std::to_string(p.func), std::to_string(p.index),
                       p.name, p.units});
  }
  for (const UnitBinop& b : f.binops) {
    AppendRecord(out, {"B", std::to_string(b.func), b.op, b.lhs, b.rhs,
                       std::to_string(b.line), b.line_text});
  }
  for (const UnitAssign& a : f.assigns) {
    AppendRecord(out, {"E", std::to_string(a.func), a.lhs, a.rhs,
                       std::to_string(a.line), a.line_text});
  }
  for (const CallArg& g : f.call_args) {
    AppendRecord(out, {"G", std::to_string(g.func), g.callee,
                       std::to_string(g.index), g.term,
                       std::to_string(g.line), g.line_text});
  }
  for (const ReturnFlow& r : f.returns) {
    AppendRecord(out, {"T", std::to_string(r.func), r.term,
                       std::to_string(r.line)});
  }
  for (const TaintSeed& d : f.taint_seeds) {
    AppendRecord(out, {"D", std::to_string(d.func), d.term, d.kind,
                       std::to_string(d.line), d.line_text});
  }
}

bool DeserializeFacts(std::string_view blob, FileFacts* f) {
  *f = FileFacts{};
  std::size_t start = 0;
  const auto to_int = [](const std::string& s, int* v) {
    char* end = nullptr;
    const long parsed = std::strtol(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0') return false;
    *v = static_cast<int>(parsed);
    return true;
  };
  while (start < blob.size()) {
    std::size_t nl = blob.find('\n', start);
    if (nl == std::string_view::npos) nl = blob.size();
    const std::string_view line = blob.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    const std::vector<std::string> c = SplitRecord(line);
    if (c.empty()) return false;
    if (c[0] == "P" && c.size() == 2) {
      f->path = c[1];
    } else if (c[0] == "F" && c.size() == 7) {
      FunctionDef d;
      d.name = c[1];
      d.class_name = c[2];
      if (!to_int(c[3], &d.line) || !to_int(c[5], &d.body_end_line)) {
        return false;
      }
      d.ret_units = c[4];
      d.line_text = c[6];
      f->functions.push_back(std::move(d));
    } else if (c[0] == "C" && c.size() == 4) {
      CallSite cs;
      if (!to_int(c[1], &cs.func) || !to_int(c[3], &cs.line)) return false;
      cs.callee = c[2];
      f->calls.push_back(std::move(cs));
    } else if (c[0] == "A" && c.size() == 6) {
      AllocSite a;
      int kind = 0;
      if (!to_int(c[1], &a.func) || !to_int(c[2], &kind) ||
          !to_int(c[4], &a.line) || kind < 0 ||
          kind > static_cast<int>(AllocKind::kLocalGrowth)) {
        return false;
      }
      a.kind = static_cast<AllocKind>(kind);
      a.detail = c[3];
      a.line_text = c[5];
      f->allocs.push_back(std::move(a));
    } else if (c[0] == "M" && c.size() == 5) {
      UnguardedMember m;
      m.class_name = c[1];
      m.member = c[2];
      if (!to_int(c[3], &m.line)) return false;
      m.line_text = c[4];
      f->unguarded.push_back(std::move(m));
    } else if (c[0] == "X" && c.size() == 5) {
      FloatFold x;
      x.var = c[1];
      x.function = c[2];
      if (!to_int(c[3], &x.line)) return false;
      x.line_text = c[4];
      f->float_folds.push_back(std::move(x));
    } else if (c[0] == "I" && c.size() == 5) {
      RuleHit h;
      if (!to_int(c[3], &h.line)) return false;
      h.rule = c[1];
      h.detail = c[2];
      h.line_text = c[4];
      f->rule_hits.push_back(std::move(h));
    } else if (c[0] == "N" && c.size() == 3 && c[2].size() == 1) {
      f->unordered_names.push_back({c[1], c[2][0]});
    } else if (c[0] == "O" && c.size() == 6) {
      LoopOver l;
      if (!to_int(c[4], &l.line)) return false;
      l.container = c[1];
      l.callee = c[2];
      l.element = c[3] == "1";
      l.line_text = c[5];
      f->loops.push_back(std::move(l));
    } else if (c[0] == "U" && c.size() == 5) {
      UnitDecl u;
      if (!to_int(c[1], &u.func) || !to_int(c[4], &u.line)) return false;
      u.var = c[2];
      u.dim = c[3];
      f->unit_decls.push_back(std::move(u));
    } else if (c[0] == "R" && c.size() == 5) {
      ParamDecl p;
      if (!to_int(c[1], &p.func) || !to_int(c[2], &p.index)) return false;
      p.name = c[3];
      p.units = c[4];
      f->params.push_back(std::move(p));
    } else if (c[0] == "B" && c.size() == 7) {
      UnitBinop b;
      if (!to_int(c[1], &b.func) || !to_int(c[5], &b.line)) return false;
      b.op = c[2];
      b.lhs = c[3];
      b.rhs = c[4];
      b.line_text = c[6];
      f->binops.push_back(std::move(b));
    } else if (c[0] == "E" && c.size() == 6) {
      UnitAssign a;
      if (!to_int(c[1], &a.func) || !to_int(c[4], &a.line)) return false;
      a.lhs = c[2];
      a.rhs = c[3];
      a.line_text = c[5];
      f->assigns.push_back(std::move(a));
    } else if (c[0] == "G" && c.size() == 7) {
      CallArg g;
      if (!to_int(c[1], &g.func) || !to_int(c[3], &g.index) ||
          !to_int(c[5], &g.line)) {
        return false;
      }
      g.callee = c[2];
      g.term = c[4];
      g.line_text = c[6];
      f->call_args.push_back(std::move(g));
    } else if (c[0] == "T" && c.size() == 4) {
      ReturnFlow r;
      if (!to_int(c[1], &r.func) || !to_int(c[3], &r.line)) return false;
      r.term = c[2];
      f->returns.push_back(std::move(r));
    } else if (c[0] == "D" && c.size() == 6) {
      TaintSeed d;
      if (!to_int(c[1], &d.func) || !to_int(c[4], &d.line)) return false;
      d.term = c[2];
      d.kind = c[3];
      d.line_text = c[5];
      f->taint_seeds.push_back(std::move(d));
    } else {
      return false;
    }
  }
  // Function indices must point into this file (a UnitDecl's is -1 for a
  // class member): the analysis indexes `functions` with them unchecked.
  const auto in_file = [n = f->functions.size()](int func) {
    return func >= 0 && static_cast<std::size_t>(func) < n;
  };
  const auto all_in_file = [&](const auto& records) {
    return std::all_of(records.begin(), records.end(),
                       [&](const auto& r) { return in_file(r.func); });
  };
  return all_in_file(f->calls) && all_in_file(f->allocs) &&
         all_in_file(f->params) && all_in_file(f->binops) &&
         all_in_file(f->assigns) && all_in_file(f->call_args) &&
         all_in_file(f->returns) && all_in_file(f->taint_seeds) &&
         std::all_of(f->unit_decls.begin(), f->unit_decls.end(),
                     [&](const UnitDecl& u) {
                       return u.func == -1 || in_file(u.func);
                     });
}

}  // namespace gl::analyze
