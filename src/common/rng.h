// Deterministic pseudo-random number generation.
//
// Every stochastic component (trace generators, workload jitter, tie-breaking
// in partitioning) takes an explicit Rng so that simulations are reproducible
// from a single seed. The generator is xoshiro256**, seeded via SplitMix64 —
// fast, high quality, and independent of libstdc++'s unspecified
// distributions (we implement the few distributions we need ourselves so the
// bit-stream is identical across standard libraries).
#pragma once

#include <cstdint>

namespace gl {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit value.
  std::uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). n must be > 0.
  std::uint64_t NextBelow(std::uint64_t n);

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  // Standard normal via polar Box–Muller (caches the spare deviate).
  double Gaussian();
  double Gaussian(double mean, double stddev);

  // Exponential with the given mean (> 0).
  double Exponential(double mean);

  // Pareto with shape alpha (> 0) and scale xmin (> 0); classic heavy tail
  // used for flow sizes.
  double Pareto(double xmin, double alpha);

  // Log-normal parameterised by the mean/stddev of the underlying normal.
  double LogNormal(double mu, double sigma);

  // Bernoulli trial.
  bool Chance(double p);

  // Fork an independent stream (e.g., one per trace vertex). Advances this
  // generator by one draw, so successive calls yield distinct streams —
  // which also means a Fork() on a generator reachable from two code paths
  // perturbs both. Single-owner use only.
  Rng Fork();

  // Keyed fork: the `stream_id`-th sub-stream of this generator's current
  // state, derived WITHOUT advancing the parent. Same state + same id gives
  // the same stream (replay-stable); distinct ids give statistically
  // independent streams. This is the sanctioned way to hand randomness to
  // parallel tasks (task i draws from Fork(i)): the parent cursor — and
  // therefore StateHash() and every replay digest — is untouched, and a
  // const parent may be forked concurrently from any number of threads.
  [[nodiscard]] Rng Fork(std::uint64_t stream_id) const;

  // Digest of the full generator state — stream position plus the cached
  // Gaussian spare. Two generators with equal digests produce identical
  // futures; the reproducibility gate hashes this per epoch to pin RNG
  // cursors across replays.
  [[nodiscard]] std::uint64_t StateHash() const;

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace gl
