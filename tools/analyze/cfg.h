// Per-function control-flow graphs and path-sensitive rules (DESIGN.md §14).
//
// The flow-insensitive dataflow engine (dataflow.h) joins facts across the
// whole program but cannot see branches, loops or early returns. This layer
// closes that gap: BuildFunctionCfg constructs a basic-block CFG for one
// function body from the structural token stream (if/else, for/while/do,
// switch/case, break/continue, early return, statement-level '?:', and
// ParallelFor lambda bodies), recording the path-relevant events each block
// performs. The CFG is serialized with the per-file facts, so warm runs
// replay cached graphs instead of re-lexing.
//
// AnalyzeCfg then walks every cached CFG with small abstract interpreters —
// monotone fixpoints over per-block states, with GL_REQUIRES/GL_ACQUIRE
// annotations exempting contract locks — and reports:
//
//   GL017 lock-path-leak          a manual .Lock() may-held at function exit
//                                 (some path skipped the .Unlock()); RAII
//                                 MutexLock and GL_REQUIRES/GL_ACQUIRE
//                                 contracts are exempt
//   GL018 use-after-invalidation  a ref/index/view bound from a
//                                 PartitionScratch / GroupAccumulator /
//                                 LazyMaxHeap (or a local vector element)
//                                 used after a Clear()/Reset() (or growth
//                                 call) on some path
//   GL020 unguarded-narrowing     a 64-bit value cast to a 32-bit vertex-id
//                                 type with no dominating bounds check on
//                                 the path (must-analysis: checked on every
//                                 path, intersection at joins)
//   GL021 divergent-parallel-update  inside a ParallelFor body, a branch on
//                                 thread-varying state (timings, rand,
//                                 pointer bits) guards a write to a
//                                 deterministic counter or state-hash input
//
// Soundness trade-offs per rule are documented in DESIGN.md §14. The
// builder keeps a hard block budget per function; a function that exceeds
// it is marked budget_exceeded and skipped by the path rules (never a false
// finding, possibly a miss — the conservative direction for a gate that
// fails the build on findings).
#pragma once

#include <string>
#include <vector>

#include "analyze/facts.h"
#include "analyze/lexer.h"

namespace gl::analyze {

struct Finding;  // analysis.h

// Hard cap on basic blocks per function. Beyond it the builder stops
// splitting and marks the CFG budget_exceeded.
inline constexpr int kCfgBlockBudget = 512;

// Builds the CFG for the function body spanning structural tokens
// [body_begin, body_end) — the tokens strictly inside the braces — and
// appends it to out->cfgs. `toks` is the comment/preprocessor-free view the
// extractor walks; `lines` are the 0-based source lines (for baseline
// fingerprints). [sig_begin, body_begin) covers the parameter list (and any
// trailing annotations), so 64-bit-typed and scratch-typed parameters feed
// the per-function declaration sets; pass sig_begin == body_begin when the
// signature was not found.
void BuildFunctionCfg(const std::vector<const Token*>& toks,
                      const std::vector<std::string>& lines, int func,
                      std::size_t sig_begin, std::size_t body_begin,
                      std::size_t body_end, FileFacts* out);

// Runs GL017, GL018, GL020 and GL021 over every cached CFG and appends
// findings.
void AnalyzeCfg(const std::vector<FileFacts>& files,
                std::vector<Finding>* out);

}  // namespace gl::analyze
