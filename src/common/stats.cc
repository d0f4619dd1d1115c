#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace gl {

void RunningStats::Add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

void RunningStats::Merge(const RunningStats& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double delta = o.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(o.n_);
  m2_ += o.m2_ + delta * delta * n * m / (n + m);
  mean_ = (n * mean_ + m * o.mean_) / (n + m);
  n_ += o.n_;
  sum_ += o.sum_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Percentile(std::span<const double> xs, double p) {
  GOLDILOCKS_CHECK(p >= 0.0 && p <= 100.0);
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // Only two order statistics are needed: select the lower one, then the
  // upper one is the smallest element after it. Same values as a full sort.
  const auto lo_it = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), lo_it, v.end());
  const double v_lo = *lo_it;
  const double v_hi = hi == lo ? v_lo : *std::min_element(lo_it + 1, v.end());
  return v_lo + (v_hi - v_lo) * frac;
}

double PearsonCorrelation(std::span<const double> xs,
                          std::span<const double> ys) {
  GOLDILOCKS_CHECK(xs.size() == ys.size());
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace gl
