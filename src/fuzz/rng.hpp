#pragma once

// Deterministic PRNG for the fuzz layer.
//
// The harness must replay byte-identically from a --seed across platforms
// and standard libraries, so it cannot use std::mt19937 + distribution
// objects (distributions are implementation-defined). SplitMix64 is the
// usual seeding/streaming primitive for this: tiny, fast, full-period over
// 2^64, and specified exactly by its reference constants.

#include <cstdint>
#include <string>

#include "common/splitmix.hpp"

namespace xchain::fuzz {

/// SplitMix64 stream. Copyable: forking the state forks the stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Next 64 uniform bits.
  std::uint64_t next() { return splitmix64_next(state_); }

  /// Uniform value in [0, n); n == 0 returns 0. The modulo bias over a
  /// 64-bit stream is immaterial for mutation scheduling (n is tiny).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

  /// Uniform value in [lo, hi] (inclusive); requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// True with probability num/den.
  bool chance(std::uint64_t num, std::uint64_t den) {
    return below(den) < num;
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a over a string — the per-target sub-seed derivation (seed ^
/// fnv(target name)), so adding a protocol to a multi-target run never
/// perturbs the streams of the others.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Order-sensitive accumulator for execution signatures (consult paths,
/// outcome digests). Boost-style hash_combine over 64 bits.
inline void sig_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

}  // namespace xchain::fuzz
