#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace doceph::common {

/// Canonical PG-stable lane hash: maps a placement group (pool, seed) onto
/// one of `n` shards. Every layer that fans PG-ordered work across parallel
/// lanes (the OSD op shards) MUST use this exact function so an object's
/// work lands on the same lane at every hop and per-object ordering is
/// preserved end to end (DESIGN.md §15). The mixing constant is JS-hash's;
/// it predates the sharded OSD, so it is frozen for replay compatibility.
[[nodiscard]] inline std::size_t shard_of_pg(std::int64_t pool,
                                             std::uint32_t pg_seed,
                                             std::size_t n) noexcept {
  if (n <= 1) return 0;
  return (static_cast<std::size_t>(pool) * 1315423911u + pg_seed) % n;
}

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
