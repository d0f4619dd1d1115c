// Flow-insensitive, call-graph-wide dataflow for gl_analyze (DESIGN.md §13).
//
// The per-file facts (facts.h) carry value flows as *terms*; this layer
// joins them into a whole-program term graph and runs a monotone worklist
// to a fixpoint. Two rules read the result:
//
//   GL014 unit-confusion     a dimension lattice (unknown < cores, bytes,
//                            bits_per_sec, watts, ms, epochs, count,
//                            dimensionless < conflict) is seeded from
//                            GL_UNITS(...) declarations, int-family types
//                            ("count") and the Resource field names, then
//                            propagated through assignments, call-argument
//                            binding and returns. Mixed-dimension '+'/'-'/
//                            comparisons, dimension-changing assignments
//                            and mismatched argument bindings are flagged.
//   GL016 determinism-taint  nondeterminism sources (clock and rand
//                            calls, unordered/pointer-keyed iteration)
//                            propagate interprocedurally; any tainted term
//                            reaching a state-hash or deterministic-counter
//                            sink is flagged with its origin.
//
// Everything is name-based and over-approximate, like the PR 6 call graph:
// the engine can prove "no tracked nondeterminism reaches a digest", never
// the reverse. All orderings are deterministic (sorted node and edge maps),
// so output is byte-stable across runs and platforms.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "analyze/facts.h"

namespace gl::analyze {

struct Finding;  // analysis.h

// Global function id: (file index, function index within that file).
struct FuncRef {
  int file = -1;
  int func = -1;
  bool operator==(const FuncRef& o) const {
    return file == o.file && func == o.func;
  }
};
struct FuncRefHash {
  std::size_t operator()(const FuncRef& r) const {
    return static_cast<std::size_t>(r.file) * 1000003u +
           static_cast<std::size_t>(r.func);
  }
};

// Whole-program symbol index over every function definition seen. Call
// edges resolve the way C++ name lookup leans: a method of the caller's
// own class shadows everything, then file-local definitions, then the
// global name set.
class SymbolIndex {
 public:
  explicit SymbolIndex(const std::vector<FileFacts>& files);

  [[nodiscard]] const FunctionDef& Def(const FuncRef& r) const;
  [[nodiscard]] std::string Display(const FuncRef& r) const;
  [[nodiscard]] const std::vector<FuncRef>* ByName(
      const std::string& name) const;
  [[nodiscard]] const std::vector<FuncRef>* ByClass(
      const std::string& cls) const;
  [[nodiscard]] const std::vector<FuncRef>* Resolve(
      const FuncRef& caller, const std::string& callee) const;

  [[nodiscard]] const std::vector<FileFacts>& files() const { return *files_; }

 private:
  const std::vector<FileFacts>* files_;
  std::unordered_map<std::string, std::vector<FuncRef>> by_name_;
  std::unordered_map<std::string, std::vector<FuncRef>> by_class_;
  std::unordered_map<std::string, std::vector<FuncRef>> by_class_method_;
  std::unordered_map<std::string, std::vector<FuncRef>> by_file_name_;
};

// The GL014 dimension lattice.
enum class Dim {
  kUnknown = 0,   // bottom: no information yet
  kCores,
  kBytes,
  kBitsPerSec,
  kWatts,
  kMs,
  kEpochs,
  kCount,
  kDimensionless,
  kConflict,      // top: joined with contradictory evidence
};

// "watts" -> kWatts; unrecognized strings -> kUnknown.
[[nodiscard]] Dim DimFromString(const std::string& s);
[[nodiscard]] const char* DimName(Dim d);

// Per-file ⊤/unknown accounting for --units-strict: how many tracked
// '+'/'-'/comparison operands resolved to a concrete dimension, and how
// many stayed unknown (or hit conflict).
struct UnitsReport {
  struct FileEntry {
    std::string path;
    int resolved_ops = 0;
    int unresolved_ops = 0;
    std::vector<std::string> notes;  // "path:line: term 'x' unresolved"
  };
  std::vector<FileEntry> files;  // sorted by path
};

// Runs the dataflow fixpoint and appends GL014/GL016 findings.
// `units` may be null when the caller does not need the report.
void AnalyzeDataflow(const std::vector<FileFacts>& files,
                     const SymbolIndex& index, std::vector<Finding>* out,
                     UnitsReport* units);

}  // namespace gl::analyze
