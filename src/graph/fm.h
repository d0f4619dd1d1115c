// Incremental-gain engine for Fiduccia–Mattheyses refinement
// (DESIGN.md §11).
//
// gain(v) = (cut weight removed by moving v to the other side) =
// sum over neighbors u of: +w(v,u) if u is across the cut, -w(v,u) if not.
// The engine computes all gains once at Attach (O(arcs)) and then maintains
// them under Flip with delta updates on the moved vertex's neighborhood
// only — the refiner stops paying an O(arcs) recompute per pass.
//
// Flip's updates are algebraically involutive: Flip(v); Flip(v) restores
// every gain exactly when the arc weights sum without rounding (integer
// weights — what the unit tests use), and to a deterministic
// ULP-neighborhood otherwise. Determinism is unaffected either way: the
// same move sequence always produces bit-identical gains
// (tests/csr_test.cc).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "graph/csr.h"

namespace gl {

struct PartitionOptions;
struct PartitionScratch;

// Balance bookkeeping for an asymmetric split: side 0 should carry
// `target_fraction` of the total weight, within (1 + tolerance).
struct BalanceBounds {
  double total = 0.0;
  double target0 = 0.0;
  double lo0 = 0.0;
  double hi0 = 0.0;

  BalanceBounds(double total_weight, double target_fraction, double tol) {
    total = total_weight;
    target0 = total * target_fraction;
    const double hi1 = total * (1.0 - target_fraction) * (1.0 + tol);
    hi0 = std::min(total, total * target_fraction * (1.0 + tol));
    lo0 = std::max(0.0, total - hi1);
    if (lo0 > hi0) lo0 = hi0;  // degenerate tolerance; collapse to a point
  }

  [[nodiscard]] bool Feasible(double w0) const {
    return w0 >= lo0 - 1e-9 && w0 <= hi0 + 1e-9;
  }
  // Distance from the feasible interval (0 when inside).
  [[nodiscard]] double Violation(double w0) const {
    if (w0 < lo0) return lo0 - w0;
    if (w0 > hi0) return w0 - hi0;
    return 0.0;
  }
};

class FmEngine {
 public:
  // Binds to a graph, a side assignment, and a gain buffer (all owned by
  // the caller's scratch arena) and computes every gain in O(arcs).
  void Attach(const CsrGraph& g, std::vector<std::uint8_t>* side,
              std::vector<double>* gain) {
    g_ = &g;
    side_ = side;
    gain_ = gain;
    const auto n = static_cast<std::size_t>(g.num_vertices());
    GOLDILOCKS_CHECK_EQ(side->size(), n);
    gain->assign(n, 0.0);
    // gain(v) + degree(v) = 2 * (v's cross-cut weight), so the same scan
    // that fills the gains also yields the starting cut: half the summed
    // cross weight (each cut edge is seen from both endpoints). Callers
    // read it via initial_cut() instead of paying a separate O(arcs)
    // CutWeight pass.
    double cross_total = 0.0;
    for (VertexIndex v = 0; v < g.num_vertices(); ++v) {
      const double gv = RecomputeGain(v);
      (*gain)[static_cast<std::size_t>(v)] = gv;
      cross_total += gv + g.degree_weight(v);
    }
    initial_cut_ = cross_total / 4.0;
    arcs_scanned_ += g.num_arcs();
  }

  // Binds to gains the caller already computed (the multi-trial driver runs
  // one shared chunked scan and hands each trial a copy), skipping Attach's
  // O(arcs) pass. `initial_cut` must price `side` exactly as Attach would
  // have. Adds nothing to arcs_scanned(): the shared scan is counted once by
  // the driver, not once per trial — the deterministic counter total must
  // not depend on the trial count.
  void AttachPrecomputed(const CsrGraph& g, std::vector<std::uint8_t>* side,
                         std::vector<double>* gain, double initial_cut) {
    g_ = &g;
    side_ = side;
    gain_ = gain;
    GOLDILOCKS_CHECK_EQ(side->size(),
                        static_cast<std::size_t>(g.num_vertices()));
    GOLDILOCKS_CHECK_EQ(gain->size(),
                        static_cast<std::size_t>(g.num_vertices()));
    initial_cut_ = initial_cut;
  }

  [[nodiscard]] double gain(VertexIndex v) const {
    return (*gain_)[static_cast<std::size_t>(v)];
  }

  // Cut weight of the side assignment as of the last Attach.
  [[nodiscard]] double initial_cut() const { return initial_cut_; }

  // Moves v to the other side and delta-updates the gains of v and its
  // unlocked-or-not neighbors (the caller decides which neighbors to
  // re-push into its heap; the gains themselves are always kept exact).
  void Flip(VertexIndex v) {
    const auto sv = static_cast<std::size_t>(v);
    (*gain_)[sv] = -(*gain_)[sv];
    const auto [to, ws] = g_->arc_range(v);
    const std::uint8_t v_side = (*side_)[sv];
    for (std::size_t i = 0; i < to.size(); ++i) {
      const auto su = static_cast<std::size_t>(to[i]);
      // The edge's cut status flips: if it was cross before the move it
      // becomes internal (u loses 2w of gain), else it becomes cross
      // (u gains 2w).
      (*gain_)[su] += (*side_)[su] != v_side ? -2.0 * ws[i] : 2.0 * ws[i];
    }
    (*side_)[sv] ^= 1;
    arcs_scanned_ += to.size();
  }

  // O(degree) from-scratch gain, for tests and audits.
  [[nodiscard]] double RecomputeGain(VertexIndex v) const {
    const auto [to, ws] = g_->arc_range(v);
    double gv = 0.0;
    for (std::size_t i = 0; i < to.size(); ++i) {
      const bool cross = (*side_)[static_cast<std::size_t>(v)] !=
                         (*side_)[static_cast<std::size_t>(to[i])];
      gv += cross ? ws[i] : -ws[i];
    }
    return gv;
  }

  // Arcs touched since construction — feeds the deterministic
  // partition.cut_edges_evaluated counter in one batched Add.
  [[nodiscard]] std::uint64_t arcs_scanned() const { return arcs_scanned_; }

 private:
  const CsrGraph* g_ = nullptr;
  std::vector<std::uint8_t>* side_ = nullptr;
  std::vector<double>* gain_ = nullptr;
  double initial_cut_ = 0.0;
  std::uint64_t arcs_scanned_ = 0;
};

// Single-stream FM refinement of a bisection (partitioner.cc): at most
// opts.refine_passes passes, each rolled back to its best prefix. `w0` is
// side 0's balance weight and is kept up to date; `cut` is re-priced from
// `side` on entry. The last pass's moves, rolled-back ones included, are
// left in s.move_seq. Adds to partition.cut_edges_evaluated and
// partition.bisection_rejections.
void FmRefine(const CsrGraph& g, const BalanceBounds& bounds,
              const PartitionOptions& opts, std::vector<std::uint8_t>& side,
              double& cut, double& w0, PartitionScratch& s);

}  // namespace gl
