#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "crypto/bytes.hpp"

namespace xchain::crypto {

/// Incremental SHA-256 (FIPS 180-4).
///
/// Usage:
///   Sha256 h;
///   h.update(data);
///   Digest d = h.finish();
///
/// `finish()` may be called once; the object is then exhausted.
///
/// Each 64-byte block goes to one of two compression functions, chosen
/// once per process from the CPU: the SHA-NI kernel when cpuid reports the
/// SHA extensions (leaf 7 EBX bit 29) plus SSE4.1 and SSSE3, otherwise (and
/// on every non-x86-64 target) the portable C++ kernel. Both produce the
/// same digests; nothing forces a choice.
class Sha256 {
 public:
  Sha256();

  /// Absorbs `len` bytes starting at `data`.
  void update(const std::uint8_t* data, std::size_t len);
  void update(const Bytes& data) { update(data.data(), data.size()); }
  void update(std::string_view s) {
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  void update(const Digest& d) { update(d.data(), d.size()); }

  /// Pads, finalizes, and returns the 32-byte digest.
  Digest finish();

 private:
  void process_block(const std::uint8_t* block);

  std::uint32_t state_[8];
  std::uint64_t bit_count_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_ = 0;
};

/// One-shot SHA-256 of a byte buffer.
Digest sha256(const Bytes& data);

/// One-shot SHA-256 of a string.
Digest sha256(std::string_view data);

/// The compression function Sha256 uses on this CPU: "sha-ni" or
/// "portable". Bench artifacts record it so a slower host explains itself.
std::string_view sha256_kernel();

}  // namespace xchain::crypto
