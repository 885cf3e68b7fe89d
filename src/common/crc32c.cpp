#include "common/crc32c.h"

#include <array>

namespace doceph {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t j = 1; j < 8; ++j) {
        c = t[0][c & 0xff] ^ (c >> 8);
        t[j][i] = c;
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;  // thread-safe magic static
  return t;
}

inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t len) noexcept {
  const auto& t = tables().t;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;

  // Align to 8 bytes.
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
    --len;
  }

  while (len >= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][(lo >> 24) & 0xff] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][(hi >> 24) & 0xff];
    p += 8;
    len -= 8;
  }

  while (len-- > 0) crc = t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  return ~crc;
}

namespace {

// GF(2) polynomials mod the (reflected) Castagnoli polynomial: bit 31 is
// x^0, bit 0 is x^31.
constexpr std::uint32_t kOne = 0x80000000u;

/// a(x) * b(x) mod p(x).
std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t m = kOne;
  std::uint32_t p = 0;
  for (;;) {
    if ((a & m) != 0) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) != 0 ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

/// x^(2^k) mod p(x), for every k a 64-bit byte count can reach (bit i of
/// the count is 2^(i + 3) bits).
struct PowerTable {
  std::array<std::uint32_t, 64 + 3> x2n{};

  PowerTable() {
    std::uint32_t p = kOne >> 1;  // x^1
    for (auto& e : x2n) {
      e = p;
      p = multmodp(p, p);
    }
  }
};

}  // namespace

std::uint32_t crc32c_combine(std::uint32_t crc1, std::uint32_t crc2,
                             std::size_t len2) noexcept {
  static const PowerTable table;  // thread-safe magic static
  // Appending len2 zero bytes multiplies crc1 by x^(8 * len2); B's own
  // contribution is crc2 (the pre/post inversions cancel).
  std::uint32_t xn = kOne;
  std::uint64_t n = len2;
  for (std::size_t k = 3; n != 0; n >>= 1, ++k) {
    if ((n & 1) != 0) xn = multmodp(table.x2n[k], xn);
  }
  return multmodp(xn, crc1) ^ crc2;
}

}  // namespace doceph
