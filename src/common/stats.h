// Streaming and batch statistics used across the simulator and benches.
#pragma once

#include <cstddef>
#include <span>

namespace gl {

// Welford's online algorithm: numerically stable mean/variance without
// storing samples.
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& o);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Percentile of a sample set with linear interpolation between order
// statistics; p in [0, 100]. Copies internally and selects the two order
// statistics it needs (no full sort).
double Percentile(std::span<const double> xs, double p);

// Pearson correlation coefficient of two equal-length series. Returns 0 for
// degenerate inputs (length < 2 or zero variance).
double PearsonCorrelation(std::span<const double> xs,
                          std::span<const double> ys);

}  // namespace gl
