#pragma once

#include <cstdint>
#include <string_view>

#include "crypto/bytes.hpp"

namespace xchain::crypto {

/// Schnorr signatures over the quadratic-residue subgroup of Z_p^*, where
/// p = 2q + 1 is a safe prime near 2^61 and the generator g = 4 has prime
/// order q.
///
/// This is a *structurally faithful* signature scheme — key generation,
/// deterministic nonces, Fiat–Shamir challenge via SHA-256, public
/// verification — with toy (64-bit) parameters. The protocols in this
/// repository only need public verifiability of hashkey path signatures
/// (paper §7: sigma = sig(...sig(s_i, u_i)..., u_0)); the reduced key size
/// changes the security margin, not the protocol behaviour.
struct GroupParams {
  std::uint64_t p;  ///< safe prime modulus
  std::uint64_t q;  ///< subgroup order, p = 2q + 1
  std::uint64_t g;  ///< generator of the order-q subgroup
};

/// The process-wide group parameters (computed once, deterministically).
const GroupParams& group();

/// (a * b) mod m without overflow.
std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m);

/// (base ^ exp) mod m. An odd m below 2^63 (which includes p and q of
/// group(), so every keygen, sign and verify) runs in Montgomery form with
/// R = 2^64; any other m takes the plain 128-bit square-and-multiply loop.
/// Both give the exact residue.
std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m);

/// Deterministic Miller–Rabin, exact for all 64-bit inputs.
bool is_prime_u64(std::uint64_t n);

/// A private signing key (a scalar in [1, q)).
struct PrivateKey {
  std::uint64_t x = 0;
};

/// A public verification key (group element g^x).
struct PublicKey {
  std::uint64_t y = 0;

  friend bool operator==(const PublicKey&, const PublicKey&) = default;
};

/// A Schnorr signature: Fiat–Shamir challenge `e` and response `s`.
struct Signature {
  std::uint64_t e = 0;
  std::uint64_t s = 0;

  friend bool operator==(const Signature&, const Signature&) = default;

  /// Canonical byte encoding (16 bytes, big-endian e then s); used when a
  /// signature is itself the message of an outer signature in a path chain.
  Bytes encode() const;
};

/// A signing/verification key pair.
struct KeyPair {
  PrivateKey priv;
  PublicKey pub;
};

/// Derives a key pair deterministically from a seed label, e.g. "alice".
KeyPair keygen(std::string_view seed);

/// Memoized keygen: identical result, but each seed's modular
/// exponentiation runs once per process. Protocol actors are rebuilt per
/// sweep schedule, so their key derivation sits on the hot path.
/// Thread-safe; the reference stays valid for the process lifetime.
const KeyPair& keygen_cached(std::string_view seed);

/// Signs `message` with deterministic (derandomized) nonce.
Signature sign(const PrivateKey& key, const PublicKey& pub,
               const Bytes& message);

/// Verifies `sig` on `message` under `pub`.
bool verify(const PublicKey& pub, const Bytes& message, const Signature& sig);

}  // namespace xchain::crypto
