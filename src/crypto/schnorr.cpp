#include "crypto/schnorr.hpp"

#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "crypto/sha256.hpp"

namespace xchain::crypto {

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) % m);
}

namespace {

/// Montgomery arithmetic modulo an odd m < 2^63 with R = 2^64: values are
/// kept as aR mod m, and a product costs two 64x64 multiplies and a shift
/// (REDC) instead of a 128-bit division. m < 2^63 keeps T + u*m below
/// 2^128 in reduce().
class Montgomery {
 public:
  explicit Montgomery(std::uint64_t m) : m_(m) {
    // Newton's iteration for m^-1 mod 2^64: m is its own inverse mod 2^3,
    // and each step doubles the correct low bits (3 -> 96).
    std::uint64_t inv = m;
    for (int i = 0; i < 5; ++i) inv *= 2 - m * inv;
    neg_inv_ = 0 - inv;
  }

  std::uint64_t to(std::uint64_t a) const {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a) << 64) % m_);
  }
  std::uint64_t from(std::uint64_t a) const { return reduce(a); }
  std::uint64_t mul(std::uint64_t a, std::uint64_t b) const {
    return reduce(static_cast<unsigned __int128>(a) * b);
  }

 private:
  /// T * R^-1 mod m, for T < m * R.
  std::uint64_t reduce(unsigned __int128 t) const {
    const std::uint64_t u = static_cast<std::uint64_t>(t) * neg_inv_;
    const std::uint64_t r = static_cast<std::uint64_t>(
        (t + static_cast<unsigned __int128>(u) * m_) >> 64);
    return r >= m_ ? r - m_ : r;
  }

  std::uint64_t m_;
  std::uint64_t neg_inv_;  // -m^-1 mod 2^64
};

}  // namespace

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  if ((m & 1) == 0 || m >= (1ull << 63)) {
    std::uint64_t result = 1 % m;
    base %= m;
    while (exp > 0) {
      if (exp & 1) result = mulmod(result, base, m);
      base = mulmod(base, base, m);
      exp >>= 1;
    }
    return result;
  }
  const Montgomery mont(m);
  std::uint64_t result = mont.to(1);
  base = mont.to(base);
  while (exp > 0) {
    if (exp & 1) result = mont.mul(result, base);
    base = mont.mul(base, base);
    exp >>= 1;
  }
  return mont.from(result);
}

bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  // These witnesses make Miller-Rabin deterministic for all n < 2^64.
  for (std::uint64_t a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    std::uint64_t x = powmod(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 0; i < r - 1; ++i) {
      x = mulmod(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

const GroupParams& group() {
  static const GroupParams params = [] {
    // Deterministic search for the first safe prime p = 2q + 1 above 2^61.
    std::uint64_t q = (1ull << 60) + 1;
    while (!(is_prime_u64(q) && is_prime_u64(2 * q + 1))) {
      q += 2;
    }
    // g = 4 is a quadratic residue, hence generates the order-q subgroup.
    return GroupParams{2 * q + 1, q, 4};
  }();
  return params;
}

namespace {

std::uint64_t digest_to_scalar(const Digest& d, std::uint64_t mod) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[i];
  return v % mod;
}

}  // namespace

Bytes Signature::encode() const {
  Bytes out;
  append_u64(out, e);
  append_u64(out, s);
  return out;
}

KeyPair keygen(std::string_view seed) {
  const GroupParams& gp = group();
  Sha256 h;
  h.update("xchain-keygen/");
  h.update(seed);
  const std::uint64_t x = 1 + digest_to_scalar(h.finish(), gp.q - 1);
  return KeyPair{PrivateKey{x}, PublicKey{powmod(gp.g, x, gp.p)}};
}

namespace {

/// Transparent hashing so cache hits are allocation-free (sweep workers
/// rebuild parties per schedule and look keys up by string_view).
struct SeedHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
struct SeedEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

}  // namespace

const KeyPair& keygen_cached(std::string_view seed) {
  // Hits take a shared lock and never allocate; the map is node-based, so
  // returned references stay valid across rehashes.
  static std::shared_mutex mu;
  static std::unordered_map<std::string, KeyPair, SeedHash, SeedEq> cache;
  {
    std::shared_lock lock(mu);
    const auto it = cache.find(seed);
    if (it != cache.end()) return it->second;
  }
  std::unique_lock lock(mu);
  const auto it = cache.find(seed);  // raced inserts resolve here
  if (it != cache.end()) return it->second;
  return cache.emplace(std::string(seed), keygen(seed)).first->second;
}

namespace {

/// Big-endian encoding of `v` into out[0..8), as append_u64 writes it.
void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  }
}

/// The Fiat-Shamir challenge H("xchain-challenge/" || r || y || message),
/// reduced mod q.
std::uint64_t challenge(std::uint64_t r, const PublicKey& pub,
                        const Bytes& message, std::uint64_t q) {
  std::uint8_t ctx[16];
  put_u64(ctx, r);
  put_u64(ctx + 8, pub.y);
  Sha256 eh;
  eh.update("xchain-challenge/");
  eh.update(ctx, sizeof(ctx));
  eh.update(message);
  return digest_to_scalar(eh.finish(), q);
}

}  // namespace

Signature sign(const PrivateKey& key, const PublicKey& pub,
               const Bytes& message) {
  const GroupParams& gp = group();
  // Deterministic nonce derivation (RFC 6979 in spirit).
  std::uint8_t key_bytes[8];
  put_u64(key_bytes, key.x);
  Sha256 nh;
  nh.update("xchain-nonce/");
  nh.update(key_bytes, sizeof(key_bytes));
  nh.update(message);
  const std::uint64_t k = 1 + digest_to_scalar(nh.finish(), gp.q - 1);
  const std::uint64_t r = powmod(gp.g, k, gp.p);

  const std::uint64_t e = challenge(r, pub, message, gp.q);
  const std::uint64_t s = (k + mulmod(e, key.x, gp.q)) % gp.q;
  return Signature{e, s};
}

bool verify(const PublicKey& pub, const Bytes& message, const Signature& sig) {
  const GroupParams& gp = group();
  if (pub.y == 0 || pub.y >= gp.p || sig.s >= gp.q || sig.e >= gp.q) {
    return false;
  }
  // R' = g^s * y^(-e) = g^s * y^(q - e)  (y has order q).
  const std::uint64_t gs = powmod(gp.g, sig.s, gp.p);
  const std::uint64_t ye = powmod(pub.y, gp.q - sig.e, gp.p);
  const std::uint64_t r = mulmod(gs, ye, gp.p);
  return challenge(r, pub, message, gp.q) == sig.e;
}

}  // namespace xchain::crypto
