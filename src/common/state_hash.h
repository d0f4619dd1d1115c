// Order-sensitive state digests for the reproducibility gate.
//
// A Goldilocks experiment is trustworthy only if the same seed yields
// bit-identical epochs; the paper's power/TCT curves are cross-policy
// comparisons that a silent nondeterminism (hash-order iteration, an
// unseeded RNG, an uninitialised double) would quietly invalidate. The
// StateHasher turns the simulation state after each epoch into a small
// fixed digest so two runs can be compared cheaply — online by the
// ExperimentRunner (opt-in, like the InvariantAuditor) and
// offline by `gl_report replay`, which runs a scenario twice and
// reports the first divergent epoch and subsystem.
//
// The hash is FNV-1a over a canonical byte stream: 64-bit little-endian
// words, doubles by IEEE-754 bit pattern with -0.0 canonicalised to +0.0
// (they compare equal but differ in bits). NaNs are hashed as their bit
// pattern — a NaN in simulation state is itself a bug the digest should
// expose, not mask.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>

#include "common/ids.h"
#include "common/resource.h"

namespace gl {

class StateHasher {
 public:
  static constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

  void MixU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
    }
  }
  void MixI32(std::int32_t v) {
    MixU64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  }
  void MixDouble(double v GL_UNITS(any)) {
    if (v == 0.0) v = 0.0;  // canonicalise -0.0
    MixU64(std::bit_cast<std::uint64_t>(v));
  }
  void MixResource(const Resource& r) {
    MixDouble(r.cpu);
    MixDouble(r.mem_gb);
    MixDouble(r.net_mbps);
  }
  template <typename Tag>
  void MixId(Id<Tag> id) {
    MixI32(id.value());
  }

  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

// Digest of a full container → server assignment (Placement::server_of:
// length + every slot, so swapped, truncated and extended placements all
// hash differently).
[[nodiscard]] std::uint64_t HashAssignment(std::span<const ServerId> server_of);

// Digest of per-server aggregated demand vectors.
[[nodiscard]] std::uint64_t HashLoads(std::span<const Resource> loads);

// Per-epoch digest split by subsystem so a replay diff can name what
// diverged first, not just that something did.
struct EpochStateHash {
  int epoch = 0;
  std::uint64_t placement = 0;  // container → server map
  std::uint64_t loads = 0;      // per-server aggregated demand
  std::uint64_t power = 0;      // server/network/total watt totals
  std::uint64_t migration = 0;  // migration plan (steps, makespan, bytes)
  std::uint64_t rng = 0;        // scheduler RNG cursors (Scheduler::StateDigest)

  [[nodiscard]] std::uint64_t Combined() const;
  friend bool operator==(const EpochStateHash&, const EpochStateHash&) =
      default;
  // "epoch 12: combined=0123456789abcdef placement=... ..." (hex).
  [[nodiscard]] std::string ToString() const;
};

// Name of the first subsystem whose digest differs between `a` and `b`
// ("placement", "loads", "power", "migration", "rng"), or nullptr when the
// two records are identical. Checked in causal order: a placement divergence
// explains every downstream one.
[[nodiscard]] const char* FirstDivergentSubsystem(const EpochStateHash& a,
                                                  const EpochStateHash& b);

}  // namespace gl
