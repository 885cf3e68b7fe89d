#pragma once

#include <cstddef>
#include <cstdint>

namespace doceph {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum Ceph uses for message integrity. Software slice-by-8
/// implementation; tables are built once on first use.
///
/// `crc` is the running value (start with 0 or a seed); data may be null only
/// if len == 0. Compatible with iSCSI/ext4/Ceph crc32c.
std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t len) noexcept;

/// Convenience overload starting from crc 0.
inline std::uint32_t crc32c(const void* data, std::size_t len) noexcept {
  return crc32c(0, data, len);
}

/// The crc32c of A followed by B, given `crc1` (the running value after A,
/// from any seed) and `crc2 = crc32c(0, B)` with `len2 = |B|`: equal to
/// crc32c(crc1, B) without touching B's bytes. O(log len2) (zlib's
/// crc32_combine, over the Castagnoli polynomial).
std::uint32_t crc32c_combine(std::uint32_t crc1, std::uint32_t crc2,
                             std::size_t len2) noexcept;

}  // namespace doceph
