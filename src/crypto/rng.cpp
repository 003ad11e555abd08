#include "crypto/rng.hpp"

#include "common/splitmix.hpp"
#include "crypto/sha256.hpp"

namespace xchain::crypto {

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64_next(x);
}

Rng::Rng(std::string_view label) {
  const Digest d = sha256(label);
  std::uint64_t seed = 0;
  for (int i = 0; i < 8; ++i) seed = (seed << 8) | d[i];
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64_next(x);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = bound * (UINT64_MAX / bound);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

Bytes Rng::next_bytes(std::size_t n) {
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    std::uint64_t v = next_u64();
    for (int i = 0; i < 8 && out.size() < n; ++i) {
      out.push_back(static_cast<std::uint8_t>(v));
      v >>= 8;
    }
  }
  return out;
}

}  // namespace xchain::crypto
