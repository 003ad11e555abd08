#pragma once

// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the seeding/streaming
// primitive behind every deterministic stream in the repo — crypto::Rng's
// xoshiro seeding, the fuzzer's mutation stream, and the drop-fault
// decision hash. One definition, so all three stay bit-identical.

#include <cstdint>

namespace xchain {

/// SplitMix64's finalizer: a bijective 64-bit avalanche mix.
inline std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One SplitMix64 step: advances `state` by the golden-ratio increment and
/// returns the mixed new state.
inline std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  return splitmix64_mix(state);
}

}  // namespace xchain
