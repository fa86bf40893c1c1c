#pragma once
// FNV-1a 64: the digest the tests pin byte streams with (plan bodies,
// determinism fingerprints) instead of committing the bytes themselves.

#include <cstdint>
#include <string_view>

namespace mcmm::testing {

/// FNV-1a 64 over `bytes`, continuing from `hash`.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t hash = 1469598103934665603ULL) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace mcmm::testing
