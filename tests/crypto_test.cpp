#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "common/splitmix.hpp"
#include "crypto/bytes.hpp"
#include "crypto/hashkey.hpp"
#include "crypto/rng.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/secret.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"

namespace xchain::crypto {
namespace {

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 test vectors)
// ---------------------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomno"
                          "pnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, QuickBrownFox) {
  EXPECT_EQ(to_hex(sha256("The quick brown fox jumps over the lazy dog")),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg(1000, 'x');
  Sha256 h;
  for (char c : msg) h.update(std::string_view(&c, 1));
  EXPECT_EQ(to_hex(h.finish()), to_hex(sha256(msg)));
}

TEST(Sha256, PaddingBoundaries) {
  // Lengths straddling the 55/56-byte padding boundary and the block size.
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 127u,
                          128u}) {
    const std::string msg(len, 'a');
    Sha256 h;
    h.update(msg);
    EXPECT_EQ(to_hex(h.finish()), to_hex(sha256(msg))) << "len=" << len;
  }
}

TEST(Sha256, PaddingBoundaryKnownAnswers) {
  // 'a' * len at the lengths where padding changes shape: 55 is the last
  // single-block length, 56..63 spill the length into a second block, 64
  // pads a fresh block, 119 is the two-block analogue of 55.
  // Digests from Python's hashlib.sha256(b"a" * len).
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119,
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
  };
  for (const auto& [len, hex] : cases) {
    EXPECT_EQ(to_hex(sha256(std::string(len, 'a'))), hex) << "len=" << len;
  }
}

// Each kernel, called directly, compresses the one padded block of "abc"
// from the FIPS 180-4 initial state to the known digest. The portable
// kernel runs on every CPU, so it stays pinned where Sha256 (and so the
// known answers above) dispatch to SHA-NI.
TEST(Sha256Kernels, EachKernelHashesAbc) {
  const std::uint32_t init[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                                 0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                                 0x1f83d9abu, 0x5be0cd19u};
  const std::uint32_t want[8] = {0xba7816bfu, 0x8f01cfeau, 0x414140deu,
                                 0x5dae2223u, 0xb00361a3u, 0x96177a9cu,
                                 0xb410ff61u, 0xf20015adu};
  std::uint8_t block[64] = {'a', 'b', 'c', 0x80};
  block[63] = 24;  // message length in bits
  std::uint32_t state[8];
  std::memcpy(state, init, sizeof(state));
  detail::sha256_block_portable(state, block);
  EXPECT_EQ(0, std::memcmp(state, want, sizeof(state)));
#if defined(__x86_64__)
  if (detail::sha256_shani_supported()) {
    std::memcpy(state, init, sizeof(state));
    detail::sha256_block_shani(state, block);
    EXPECT_EQ(0, std::memcmp(state, want, sizeof(state)));
  }
#endif
}

// The two compression kernels must agree on arbitrary (state, block)
// pairs, not just on the states a message walk reaches: the hardware
// kernel is checked against the portable one, which EachKernelHashesAbc
// pins to FIPS 180-4.
TEST(Sha256Kernels, ShaNiMatchesPortableOnRandomBlocks) {
  if (!detail::sha256_shani_supported()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
#if defined(__x86_64__)
  std::uint64_t seed = 0x5a256;
  std::uint8_t buf[65];
  for (int trial = 0; trial < 10000; ++trial) {
    std::uint32_t portable[8];
    for (std::uint32_t& w : portable) {
      w = static_cast<std::uint32_t>(splitmix64_next(seed));
    }
    for (std::uint8_t& b : buf) {
      b = static_cast<std::uint8_t>(splitmix64_next(seed));
    }
    std::uint32_t shani[8];
    std::memcpy(shani, portable, sizeof(shani));
    // Odd trials read the block from an unaligned address.
    const std::uint8_t* block = buf + (trial & 1);
    detail::sha256_block_portable(portable, block);
    detail::sha256_block_shani(shani, block);
    ASSERT_EQ(0, std::memcmp(portable, shani, sizeof(shani)))
        << "trial " << trial;
  }
#endif
}

TEST(Sha256Kernels, DispatchFollowsTheCpuCheck) {
  EXPECT_EQ(sha256_kernel(),
            detail::sha256_shani_supported() ? "sha-ni" : "portable");
}

TEST(Bytes, HexRoundTrip) {
  const Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(b), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), b);
  EXPECT_EQ(from_hex("0001ABFF"), b);
}

TEST(Bytes, FromHexRejectsMalformed) {
  EXPECT_TRUE(from_hex("abc").empty());   // odd length
  EXPECT_TRUE(from_hex("zz").empty());    // bad digit
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentLabelsDiverge) {
  Rng a("alice"), b("bob");
  bool differ = false;
  for (int i = 0; i < 10; ++i) differ |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(differ);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
}

TEST(Rng, NextBytesLength) {
  Rng rng(1);
  EXPECT_EQ(rng.next_bytes(0).size(), 0u);
  EXPECT_EQ(rng.next_bytes(7).size(), 7u);
  EXPECT_EQ(rng.next_bytes(32).size(), 32u);
}

// ---------------------------------------------------------------------------
// Group parameters / modular arithmetic
// ---------------------------------------------------------------------------

TEST(Group, ParametersAreSafePrimeGroup) {
  const GroupParams& gp = group();
  EXPECT_TRUE(is_prime_u64(gp.p));
  EXPECT_TRUE(is_prime_u64(gp.q));
  EXPECT_EQ(gp.p, 2 * gp.q + 1);
  // g must have order exactly q: g^q == 1, g != 1.
  EXPECT_EQ(powmod(gp.g, gp.q, gp.p), 1u);
  EXPECT_NE(gp.g % gp.p, 1u);
}

TEST(Group, MillerRabinKnownValues) {
  EXPECT_FALSE(is_prime_u64(0));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_FALSE(is_prime_u64(4));
  EXPECT_TRUE(is_prime_u64(2147483647ull));          // 2^31 - 1
  EXPECT_FALSE(is_prime_u64(2147483647ull * 3));
  EXPECT_TRUE(is_prime_u64(18446744073709551557ull));  // largest 64-bit prime
  EXPECT_FALSE(is_prime_u64(3215031751ull));  // strong pseudoprime to 2,3,5,7
}

// Plain square-and-multiply over unsigned __int128: the reference powmod's
// Montgomery path is checked against.
std::uint64_t reference_powmod(std::uint64_t base, std::uint64_t exp,
                               std::uint64_t m) {
  unsigned __int128 result = 1 % m;
  unsigned __int128 x = base % m;
  while (exp > 0) {
    if (exp & 1) result = result * x % m;
    x = x * x % m;
    exp >>= 1;
  }
  return static_cast<std::uint64_t>(result);
}

TEST(Group, PowmodMatchesInt128Reference) {
  const GroupParams& gp = group();
  // Odd moduli below 2^63 take the Montgomery path; m = 1, even moduli
  // and moduli from 2^63 up take the plain loop.
  const std::uint64_t moduli[] = {1,
                                  2,
                                  3,
                                  4,
                                  5,
                                  gp.q,
                                  gp.p,
                                  (1ull << 63) - 25,
                                  (1ull << 63) - 1,
                                  1ull << 63,
                                  (1ull << 63) + 1,
                                  18446744073709551557ull,
                                  0xfffffffffffffffeull};
  const std::uint64_t exps[] = {0, 1, 2, 3, gp.q - 1, ~0ull};
  for (const std::uint64_t m : moduli) {
    const std::uint64_t bases[] = {0, 1, 2, m - 1, m, m + 1, ~0ull};
    for (const std::uint64_t e : exps) {
      for (const std::uint64_t b : bases) {
        ASSERT_EQ(powmod(b, e, m), reference_powmod(b, e, m))
            << "base=" << b << " exp=" << e << " m=" << m;
      }
    }
  }

  std::uint64_t seed = 17;
  for (int trial = 0; trial < 10000; ++trial) {
    std::uint64_t m = splitmix64_next(seed);
    switch (trial % 4) {
      case 0: m >>= 1; break;                 // below 2^63
      case 1: m = (m >> 1) | 1; break;         // odd, below 2^63
      case 2: m = (m >> (m % 61)) | 1; break;  // odd, any size
      default: break;                          // full 64-bit range
    }
    if (m == 0) m = 1;
    const std::uint64_t b = splitmix64_next(seed);  // usually >= m
    const std::uint64_t e = splitmix64_next(seed) >> (trial % 64);
    ASSERT_EQ(powmod(b, e, m), reference_powmod(b, e, m))
        << "base=" << b << " exp=" << e << " m=" << m;
  }
}

TEST(Group, MulmodNoOverflow) {
  const std::uint64_t m = 18446744073709551557ull;
  EXPECT_EQ(mulmod(m - 1, m - 1, m), 1u);  // (-1)^2 = 1 mod m
}

// ---------------------------------------------------------------------------
// Schnorr signatures
// ---------------------------------------------------------------------------

TEST(Schnorr, SignVerifyRoundTrip) {
  const KeyPair kp = keygen("alice");
  const Bytes msg = to_bytes("hello world");
  const Signature sig = sign(kp.priv, kp.pub, msg);
  EXPECT_TRUE(verify(kp.pub, msg, sig));
}

TEST(Schnorr, RejectsWrongMessage) {
  const KeyPair kp = keygen("alice");
  const Signature sig = sign(kp.priv, kp.pub, to_bytes("msg1"));
  EXPECT_FALSE(verify(kp.pub, to_bytes("msg2"), sig));
}

TEST(Schnorr, RejectsWrongKey) {
  const KeyPair alice = keygen("alice");
  const KeyPair bob = keygen("bob");
  const Bytes msg = to_bytes("payload");
  const Signature sig = sign(alice.priv, alice.pub, msg);
  EXPECT_FALSE(verify(bob.pub, msg, sig));
}

TEST(Schnorr, RejectsTamperedSignature) {
  const KeyPair kp = keygen("alice");
  const Bytes msg = to_bytes("payload");
  Signature sig = sign(kp.priv, kp.pub, msg);
  sig.s ^= 1;
  EXPECT_FALSE(verify(kp.pub, msg, sig));
  sig.s ^= 1;
  sig.e ^= 1;
  EXPECT_FALSE(verify(kp.pub, msg, sig));
}

TEST(Schnorr, DeterministicSignature) {
  const KeyPair kp = keygen("alice");
  const Bytes msg = to_bytes("payload");
  EXPECT_EQ(sign(kp.priv, kp.pub, msg), sign(kp.priv, kp.pub, msg));
}

// Known answers recorded from the plain 128-bit powmod and portable
// SHA-256: any kernel change that moves a key or signature bit fails here.
TEST(Schnorr, GoldenKeysAndSignatures) {
  const KeyPair alice = keygen("alice");
  EXPECT_EQ(alice.priv.x, 219805699640505722ull);
  EXPECT_EQ(alice.pub.y, 1574389761800986933ull);
  EXPECT_EQ(keygen("bob").pub.y, 837133825876163415ull);

  const Signature swap = sign(alice.priv, alice.pub, to_bytes("hedged swap"));
  EXPECT_EQ(swap.e, 475346064520005226ull);
  EXPECT_EQ(swap.s, 801797617780982445ull);
  EXPECT_TRUE(verify(alice.pub, to_bytes("hedged swap"), swap));

  const Bytes path = to_bytes("sig(sig(s, u_1), u_0)");
  const Signature chained = sign(alice.priv, alice.pub, path);
  EXPECT_EQ(chained.e, 1027956720095040341ull);
  EXPECT_EQ(chained.s, 130804170761504904ull);
  EXPECT_TRUE(verify(alice.pub, path, chained));
}

TEST(Schnorr, KeygenDeterministicPerLabel) {
  EXPECT_EQ(keygen("alice").pub, keygen("alice").pub);
  EXPECT_NE(keygen("alice").pub.y, keygen("bob").pub.y);
}

// ---------------------------------------------------------------------------
// Secrets / hashlocks
// ---------------------------------------------------------------------------

TEST(Secret, OpensOwnHashlock) {
  Rng rng(3);
  const Secret s = Secret::random(rng);
  EXPECT_TRUE(opens(s.hashlock(), s.value()));
}

TEST(Secret, WrongPreimageFails) {
  Rng rng(3);
  const Secret s1 = Secret::random(rng);
  const Secret s2 = Secret::random(rng);
  EXPECT_FALSE(opens(s1.hashlock(), s2.value()));
}

// The hashlock is computed once at construction; it must still be exactly
// SHA-256 of the value, for every way a Secret is made or copied.
TEST(Secret, CachedHashlockIsSha256OfValue) {
  const Secret alice = Secret::from_label("alice");
  EXPECT_EQ(to_hex(alice.hashlock()),
            "904bf511688ad4a351781962160245b7c468188e0b3afa7b95b45aae53f28bc0");
  Rng rng(5);
  Secret copy;
  EXPECT_EQ(copy.hashlock(), sha256(Bytes{}));
  for (int i = 0; i < 4; ++i) {
    const Secret s = Secret::random(rng);
    EXPECT_EQ(s.hashlock(), sha256(s.value()));
    copy = s;
    EXPECT_EQ(copy.hashlock(), sha256(s.value()));
  }
  EXPECT_EQ(Secret(to_bytes("abc")).hashlock(), sha256("abc"));
}

TEST(Secret, FromLabelDeterministic) {
  EXPECT_EQ(Secret::from_label("x").value(), Secret::from_label("x").value());
  EXPECT_NE(Secret::from_label("x").value(), Secret::from_label("y").value());
}

// ---------------------------------------------------------------------------
// Hashkeys (paper §7: (s, q, sigma) triples)
// ---------------------------------------------------------------------------

class HashkeyTest : public ::testing::Test {
 protected:
  KeyPair keys_[3] = {keygen("p0"), keygen("p1"), keygen("p2")};
  PublicKeyLookup lookup_ = [this](PartyId p) { return keys_[p].pub; };
  Secret secret_ = Secret::from_label("leader-secret");
};

TEST_F(HashkeyTest, LeaderHashkeyVerifies) {
  const Hashkey k = make_leader_hashkey(secret_.value(), 2, keys_[2]);
  EXPECT_EQ(k.length(), 1u);
  EXPECT_EQ(k.leader(), 2u);
  EXPECT_TRUE(verify_hashkey(k, secret_.hashlock(), lookup_));
}

TEST_F(HashkeyTest, ExtendedChainVerifies) {
  Hashkey k = make_leader_hashkey(secret_.value(), 2, keys_[2]);
  k = extend_hashkey(k, 1, keys_[1]);
  k = extend_hashkey(k, 0, keys_[0]);
  EXPECT_EQ(k.path, (std::vector<PartyId>{0, 1, 2}));
  EXPECT_EQ(k.presenter(), 0u);
  EXPECT_EQ(k.leader(), 2u);
  EXPECT_TRUE(verify_hashkey(k, secret_.hashlock(), lookup_));
}

TEST_F(HashkeyTest, RejectsWrongHashlock) {
  const Hashkey k = make_leader_hashkey(secret_.value(), 2, keys_[2]);
  const Secret other = Secret::from_label("other");
  EXPECT_FALSE(verify_hashkey(k, other.hashlock(), lookup_));
}

TEST_F(HashkeyTest, RejectsForgedExtension) {
  Hashkey k = make_leader_hashkey(secret_.value(), 2, keys_[2]);
  // Party 0 claims the extension belongs to party 1.
  Hashkey forged = extend_hashkey(k, 1, keys_[0]);  // signed with WRONG key
  EXPECT_FALSE(verify_hashkey(forged, secret_.hashlock(), lookup_));
}

TEST_F(HashkeyTest, RejectsTamperedSecret) {
  Hashkey k = make_leader_hashkey(secret_.value(), 2, keys_[2]);
  k = extend_hashkey(k, 1, keys_[1]);
  k.secret[0] ^= 1;
  EXPECT_FALSE(verify_hashkey(k, secret_.hashlock(), lookup_));
}

TEST_F(HashkeyTest, RejectsRepeatedVertexInPath) {
  Hashkey k = make_leader_hashkey(secret_.value(), 2, keys_[2]);
  k = extend_hashkey(k, 1, keys_[1]);
  Hashkey bad = extend_hashkey(k, 2, keys_[2]);  // 2 appears twice
  EXPECT_FALSE(verify_hashkey(bad, secret_.hashlock(), lookup_));
}

TEST_F(HashkeyTest, RejectsDroppedLink) {
  Hashkey k = make_leader_hashkey(secret_.value(), 2, keys_[2]);
  k = extend_hashkey(k, 1, keys_[1]);
  k = extend_hashkey(k, 0, keys_[0]);
  // Drop the middle party from the path but keep its signature slot count
  // mismatched.
  Hashkey bad = k;
  bad.path.erase(bad.path.begin() + 1);
  EXPECT_FALSE(verify_hashkey(bad, secret_.hashlock(), lookup_));
}

}  // namespace
}  // namespace xchain::crypto
