#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace doceph::common {

/// Deterministic FNV-1a over a key token — the KV-shard router. Never
/// std::hash (implementation-defined: would break same-seed reproducibility
/// across standard libraries).
[[nodiscard]] inline std::size_t shard_of_key(std::string_view token,
                                              std::size_t n) noexcept {
  if (n <= 1) return 0;
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : token) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h % n);
}

}  // namespace doceph::common
