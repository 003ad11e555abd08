#pragma once

#include "crypto/bytes.hpp"
#include "crypto/rng.hpp"

namespace xchain::crypto {

/// A hashlock preimage (paper §5: Alice generates a secret s and publishes
/// h = H(s); knowledge of s before the timelock expires redeems the escrow).
class Secret {
 public:
  Secret() : Secret(Bytes{}) {}
  explicit Secret(Bytes value);

  /// Samples a fresh 32-byte secret.
  static Secret random(Rng& rng) { return Secret(rng.next_bytes(32)); }

  /// Derives a secret deterministically from a label (for reproducible
  /// protocol runs and tests).
  static Secret from_label(std::string_view label);

  const Bytes& value() const { return value_; }

  /// The hashlock h = SHA-256(s), computed once at construction.
  Digest hashlock() const { return hashlock_; }

 private:
  Bytes value_;
  Digest hashlock_{};
};

/// True iff `preimage` opens `hashlock`, i.e. SHA-256(preimage) == hashlock.
bool opens(const Digest& hashlock, const Bytes& preimage);

}  // namespace xchain::crypto
