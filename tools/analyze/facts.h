// Per-file fact extraction for gl_analyze (DESIGN.md §12).
//
// One pass over the token stream of a single translation unit produces a
// FileFacts record: everything the cross-file analysis needs, and nothing
// else. Facts are self-contained and serializable, which is what makes the
// mtime+hash incremental cache possible — a warm run deserializes facts
// instead of re-lexing, and only the (cheap) cross-file phase re-runs.
//
// Extracted facts:
//   * function definitions (bare name, enclosing/qualifying class, body
//     span) — free functions, methods defined inside class bodies, and
//     out-of-line Class::Method definitions all land in the index;
//   * call sites (caller function → callee name) — receiver types are not
//     resolved, so a call edge is an over-approximation by name, which is
//     the conservative direction for reachability rules;
//   * allocation sites inside function bodies (GL010 raw material): new
//     expressions, allocator calls, InducedSubgraph uses, and local owning
//     containers that are constructed with contents or grown;
//   * per-class member audits (GL011, resolved per file): classes owning a
//     mutex, and their mutable members lacking GL_GUARDED_BY;
//   * float accumulation into captured locals inside ParallelFor lambda
//     bodies (GL012, resolved per file);
//   * token-rule hits (GL002, GL004–GL007, GL009, resolved per file) and
//     GL001 raw material: unordered-container names declared outside
//     function bodies, and loops whose container only another file can
//     resolve;
//   * GL020 hits: 64-to-32-bit vertex-id casts with no bounds check in an
//     enclosing scope, found by one scope walk per function body
//     (DESIGN.md §14);
//   * dataflow raw material (DESIGN.md §13): GL_UNITS dimension
//     declarations, value flows (assignments, call arguments, returns),
//     unit-relevant binary operators, and nondeterminism taint seeds. The
//     dataflow engine (dataflow.h) joins these across files into GL014 and
//     GL016 findings; the unordered-iteration seeds double as GL001's
//     local findings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analyze/lexer.h"

namespace gl::analyze {

struct FunctionDef {
  std::string name;        // bare name ("Bisect", "Attach")
  std::string class_name;  // "FmEngine" for methods, "" for free functions
  int line = 0;
  std::string ret_units;   // GL_UNITS(...) after the signature, "" if none
  int body_end_line = 0;   // line of the closing '}' of the body
  std::string line_text;   // trimmed signature line (baseline fingerprint)
};

struct CallSite {
  int func = -1;       // index into FileFacts::functions (the caller)
  std::string callee;  // bare callee name
  int line = 0;
};

enum class AllocKind {
  kNew,             // new expression
  kAllocCall,       // make_unique / make_shared / malloc family
  kInducedSubgraph, // InducedSubgraph call: copies a vertex subset out
  kLocalInit,       // local owning container constructed with contents
  kLocalGrowth,     // growth call on a local owning container
};

struct AllocSite {
  int func = -1;  // index into FileFacts::functions
  AllocKind kind = AllocKind::kNew;
  std::string detail;  // token or "name.push_back" style description
  int line = 0;
  std::string line_text;  // trimmed source line (baseline fingerprint)
};

// A mutable member of a mutex-owning class with no GL_GUARDED_BY.
struct UnguardedMember {
  std::string class_name;
  std::string member;
  int line = 0;
  std::string line_text;
};

// Float accumulation into a captured enclosing-scope local inside a
// ParallelFor lambda.
struct FloatFold {
  std::string var;
  std::string function;  // enclosing function, for the message
  int line = 0;
  std::string line_text;
};

// A finding decided inside one file (GL002, GL004–GL007, GL009, GL020): the
// pattern needs no cross-file context.
struct RuleHit {
  std::string rule;    // "GL002"
  std::string detail;  // the matched token(s), e.g. "mt19937"
  int line = 0;
  std::string line_text;
};

// GL001 raw material: a name declared outside any function body whose type
// is an unordered container ('v'), a container of unordered containers
// ('e', iterated through a subscript), or a function returning one ('f').
struct UnorderedName {
  std::string name;
  char kind = 'v';
};

// A loop (range-for, or `.begin()` in a for header) over `container` that
// is not a known unordered local. GL001 flags it when the name resolves to
// an UnorderedName in any file, or when the loop's function declared
// `auto container = callee(...)` and `callee` returns an unordered container.
struct LoopOver {
  std::string container;
  std::string callee;    // "" unless `container` was declared auto = call
  bool element = false;  // `container[i]`: matches 'e' names
  int line = 0;
  std::string line_text;
};

// --- dataflow raw material (GL014 / GL016) ----------------------------------
//
// Value flows reference *terms*, a compact encoding of the expressions the
// token scanner can track:
//   "v:name"  local variable or parameter in the enclosing function
//   "m:field" member access (x.field, x->field, this->field): last field
//   "c:name"  call expression (the callee's return value)
//   "k:"      literal constant (polymorphic: joins with anything)
//   "?:"      anything the scanner cannot track (excluded from checks)

// A declared dimension: GL_UNITS(dim) on a local / member, or an int-family
// local auto-seeded as "count".
struct UnitDecl {
  int func = -1;      // index into functions; -1 for class members
  std::string var;    // local name, or "Class::field" for members
  std::string dim;    // "watts", "cores", ... (see dataflow.h Dim)
  int line = 0;
};

// One declared parameter (annotated or not — names are needed to bind call
// arguments interprocedurally).
struct ParamDecl {
  int func = -1;
  int index = 0;
  std::string name;
  std::string units;  // "" when unannotated
};

// A '+', '-', or comparison whose operand terms the scanner could parse.
struct UnitBinop {
  int func = -1;
  std::string op;
  std::string lhs;  // term encoding
  std::string rhs;
  int line = 0;
  std::string line_text;
};

// Value flow rhs -> lhs ('=', one record per additive rhs operand).
struct UnitAssign {
  int func = -1;
  std::string lhs;
  std::string rhs;
  int line = 0;
  std::string line_text;
};

// One trackable argument term at a call site (units param binding + taint
// sink checks).
struct CallArg {
  int func = -1;
  std::string callee;  // bare name, or "Counter::Add" for typed receivers
  int index = 0;       // argument position
  std::string term;
  int line = 0;
  std::string line_text;
};

// A trackable term flowing out through `return`.
struct ReturnFlow {
  int func = -1;
  std::string term;
  int line = 0;
};

// A nondeterministic value born in this function (beyond the intrinsic
// taint-source callees the dataflow engine knows by name). Seeds of kind
// "unordered-iter" are also GL001 findings: a loop over a local unordered
// container.
struct TaintSeed {
  int func = -1;
  std::string term;  // the term the taint lands in, e.g. the loop variable
  std::string kind;  // "unordered-iter", "pointer-key"
  int line = 0;
  std::string line_text;
};

struct FileFacts {
  std::string path;
  std::vector<FunctionDef> functions;
  std::vector<CallSite> calls;
  std::vector<AllocSite> allocs;
  std::vector<UnguardedMember> unguarded;
  std::vector<FloatFold> float_folds;
  std::vector<RuleHit> rule_hits;
  std::vector<UnorderedName> unordered_names;
  std::vector<LoopOver> loops;
  std::vector<UnitDecl> unit_decls;
  std::vector<ParamDecl> params;
  std::vector<UnitBinop> binops;
  std::vector<UnitAssign> assigns;
  std::vector<CallArg> call_args;
  std::vector<ReturnFlow> returns;
  std::vector<TaintSeed> taint_seeds;
};

// Lexes + extracts in one go. `path` is recorded verbatim.
[[nodiscard]] FileFacts ExtractFacts(const std::string& path,
                                     std::string_view source);

// Cache serialization: one line per record, tab-separated, text fields
// escaped (\t, \n, \\). Deserialize returns false on any malformed line and
// on a record that points outside the file (a function index outside
// `functions`, an out-of-range AllocKind) — the caller falls back to
// re-extraction.
void SerializeFacts(const FileFacts& facts, std::string* out);
[[nodiscard]] bool DeserializeFacts(std::string_view blob, FileFacts* facts);

// FNV-1a over file bytes, the cache's content fingerprint.
[[nodiscard]] std::uint64_t HashBytes(std::string_view bytes);

}  // namespace gl::analyze
