// Streaming and batch statistics used across the simulator and benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gl {

// Welford's online algorithm: numerically stable mean/variance without
// storing samples.
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& o);
  void Reset();

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

// Histogram with fixed-width bins over [lo, hi); values outside are clamped
// to the edge bins. Used to reproduce the distribution plots (Fig 1b, Fig 5).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void Add(double x);
  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const;
  [[nodiscard]] double bin_low(std::size_t bin) const;
  [[nodiscard]] double bin_high(std::size_t bin) const;
  [[nodiscard]] std::size_t total() const { return total_; }
  // Fraction of mass in the bin, 0 if empty histogram.
  [[nodiscard]] double share(std::size_t bin) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

// Empirical CDF points (x, F(x)) of a sample, one point per distinct value.
std::vector<std::pair<double, double>> EmpiricalCdf(
    std::span<const double> xs);

}  // namespace gl
