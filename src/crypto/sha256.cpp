#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_kernels.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace xchain::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace detail {

void sha256_block_portable(std::uint32_t state[8], const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)

// The SHA-NI round instructions keep the state as two vectors, ABEF and
// CDGH (highest lane first). sha256rnds2 does two rounds from the low two
// lanes of W+K; each group of four rounds is two calls. sha256msg1/msg2
// extend the message schedule four words at a time. The target attribute
// lets this one function use the extensions without a -march flag; the
// dispatcher only calls it after sha256_shani_supported().
__attribute__((target("sha,sse4.1,ssse3"))) void sha256_block_shani(
    std::uint32_t state[8], const std::uint8_t* block) {
  // Byte swap within each 32-bit word (the message is big-endian).
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);          // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);        // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);     // CDGH
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  // msg[i % 4] holds W[4i .. 4i+3]; from group 4 on it is rebuilt from the
  // four previous groups: W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]).
  __m128i msg[4];
  for (int i = 0; i < 16; ++i) {
    __m128i& w = msg[i % 4];
    if (i < 4) {
      w = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
          bswap);
    } else {
      const __m128i& prev = msg[(i + 3) % 4];
      w = _mm_sha256msg1_epu32(w, msg[(i + 1) % 4]);
      w = _mm_add_epi32(w, _mm_alignr_epi8(prev, msg[(i + 2) % 4], 4));
      w = _mm_sha256msg2_epu32(w, prev);
    }
    __m128i wk = _mm_add_epi32(
        w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * i)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  tmp = _mm_shuffle_epi32(abef, 0x1B);         // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);        // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);     // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);        // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

#endif

bool sha256_shani_supported() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && sse41 && ssse3;
#else
  return false;
#endif
}

}  // namespace detail

namespace {

using BlockFn = void (*)(std::uint32_t*, const std::uint8_t*);

// The CPU is checked once, on first use.
BlockFn block_kernel() {
  static const BlockFn fn = [] {
#if defined(__x86_64__)
    if (detail::sha256_shani_supported()) return &detail::sha256_block_shani;
#endif
    return &detail::sha256_block_portable;
  }();
  return fn;
}

}  // namespace

std::string_view sha256_kernel() {
  return block_kernel() == &detail::sha256_block_portable ? "portable"
                                                          : "sha-ni";
}

Sha256::Sha256() { std::memcpy(state_, kInit, sizeof(state_)); }

void Sha256::process_block(const std::uint8_t* block) {
  block_kernel()(state_, block);
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  bit_count_ += static_cast<std::uint64_t>(len) * 8;
  while (len > 0) {
    const std::size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      process_block(buffer_);
      buffer_len_ = 0;
    }
  }
}

Digest Sha256::finish() {
  // update() leaves buffer_len_ < 64. The 0x80 marker and zeros fill the
  // block up to the 8-byte length; with no room left for the length
  // (more than 55 bytes buffered) they spill into one extra block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    process_block(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  process_block(buffer_);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(const Bytes& data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest sha256(std::string_view data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace xchain::crypto
