// FNV-1a 64-bit digest: the checksum of IMRDWP1 frame payloads, IMRDJL1
// journal records and delta checkpoint part files. Fast, dependency-free
// and plenty for fault *detection*; it is not a cryptographic seal.
#pragma once

#include <cstddef>
#include <cstdint>

namespace imrdmd {

inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ull;

/// FNV-1a64 of `size` bytes at `data`, folded into `digest`. The default
/// starts a fresh digest; passing an earlier result extends it, so the
/// digest of appended buffers equals the digest of their concatenation.
inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                             std::uint64_t digest = kFnv1a64Basis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    digest ^= bytes[i];
    digest *= 1099511628211ull;
  }
  return digest;
}

}  // namespace imrdmd
