#pragma once

// The SHA-256 compression functions behind Sha256::process_block, exposed
// so tests can run each one directly and compare them. Library code calls
// Sha256, which picks a kernel once per process (see sha256.hpp); nothing
// here selects or forces a kernel.

#include <cstdint>

namespace xchain::crypto::detail {

/// One FIPS 180-4 compression of the 64-byte `block` into `state`, in
/// plain C++. The only kernel on CPUs without the SHA extensions, and the
/// reference the hardware kernel is tested against.
void sha256_block_portable(std::uint32_t state[8], const std::uint8_t* block);

/// True when this CPU has the SHA extensions plus SSE4.1 and SSSE3 (cpuid
/// leaf 7 EBX bit 29, leaf 1 ECX bits 19 and 9). Always false off x86-64.
bool sha256_shani_supported();

#if defined(__x86_64__)
/// The same compression with the SHA-NI instructions. Call it only when
/// sha256_shani_supported() is true.
void sha256_block_shani(std::uint32_t state[8], const std::uint8_t* block);
#endif

}  // namespace xchain::crypto::detail
