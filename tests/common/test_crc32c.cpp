#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace doceph {
namespace {

// Reference vectors for CRC-32C (Castagnoli), as used by iSCSI/ext4/Ceph.
TEST(Crc32c, KnownVectors) {
  // RFC 3720 B.4 test: 32 bytes of zeros.
  std::vector<unsigned char> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);

  // 32 bytes of 0xFF.
  std::vector<unsigned char> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62A8AB43u);

  // Ascending 0..31.
  std::vector<unsigned char> asc(32);
  for (int i = 0; i < 32; ++i) asc[static_cast<std::size_t>(i)] = static_cast<unsigned char>(i);
  EXPECT_EQ(crc32c(asc.data(), asc.size()), 0x46DD794Eu);

  // "123456789" — the classic check value.
  const std::string digits = "123456789";
  EXPECT_EQ(crc32c(digits.data(), digits.size()), 0xE3069283u);
}

TEST(Crc32c, EmptyInput) {
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  EXPECT_EQ(crc32c(0xDEADBEEF, nullptr, 0), 0xDEADBEEFu);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32c(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t crc = crc32c(data.data(), split);
    crc = crc32c(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32c, UnalignedStartMatches) {
  // Ensure the slice-by-8 alignment preamble is correct.
  std::vector<unsigned char> buf(64 + 8);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<unsigned char>(i * 7 + 3);
  const std::uint32_t ref = crc32c(buf.data(), 64);
  for (std::size_t off = 1; off < 8; ++off) {
    std::vector<unsigned char> copy(buf.begin() + static_cast<long>(off),
                                    buf.begin() + static_cast<long>(off) + 64);
    std::uint32_t a = crc32c(copy.data(), 64);
    std::uint32_t b = crc32c(buf.data() + off, 64);
    EXPECT_EQ(a, b) << "offset " << off;
    (void)ref;
  }
}

TEST(Crc32c, CombineMatchesDirectCrcOverRandomSplits) {
  std::mt19937_64 rng(7);
  std::vector<unsigned char> buf(70001);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  // Lengths 0 and 1, odd lengths, and ones spanning the 8-byte fast path.
  for (const std::size_t len : {0u, 1u, 3u, 7u, 9u, 255u, 4097u, 65537u, 70001u}) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::size_t split = len == 0 ? 0 : rng() % (len + 1);
      const auto seed = static_cast<std::uint32_t>(rng());
      const std::uint32_t direct = crc32c(seed, buf.data(), len);
      const std::uint32_t head = crc32c(seed, buf.data(), split);
      const std::uint32_t tail = crc32c(0, buf.data() + split, len - split);
      EXPECT_EQ(crc32c_combine(head, tail, len - split), direct)
          << "len " << len << " split " << split;
    }
  }
  // Chaining nothing leaves the running value as it is.
  EXPECT_EQ(crc32c_combine(0xDEADBEEFu, 0, 0), 0xDEADBEEFu);
}

TEST(Crc32c, DetectsSingleBitFlip) {
  std::vector<unsigned char> buf(1024, 0x5A);
  const std::uint32_t ref = crc32c(buf.data(), buf.size());
  for (std::size_t bit : {0u, 1u, 511u * 8u, 1023u * 8u + 7u}) {
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    EXPECT_NE(crc32c(buf.data(), buf.size()), ref);
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
}

}  // namespace
}  // namespace doceph
