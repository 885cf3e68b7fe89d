#include "common/buffer.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"

namespace doceph {
namespace {

BufferList fragmented(const std::string& s, std::size_t frag) {
  BufferList bl;
  for (std::size_t i = 0; i < s.size(); i += frag)
    bl.append(s.substr(i, frag));
  return bl;
}

TEST(Slice, AllocateAndFill) {
  Slice s = Slice::allocate(16);
  std::memset(s.mutable_data(), 'x', 16);
  EXPECT_EQ(s.size(), 16u);
  EXPECT_EQ(std::string(s.data(), s.size()), std::string(16, 'x'));
}

TEST(Slice, SubsliceSharesStorage) {
  Slice s = Slice::copy_of("hello world");
  Slice sub = s.subslice(6, 5);
  EXPECT_EQ(std::string(sub.data(), sub.size()), "world");
  // Shared storage: mutating the parent is visible in the subslice.
  s.mutable_data()[6] = 'W';
  EXPECT_EQ(sub.data()[0], 'W');
}

TEST(BufferList, EmptyBasics) {
  const BufferList bl;
  EXPECT_TRUE(bl.empty());
  EXPECT_EQ(bl.length(), 0u);
  EXPECT_EQ(bl.to_string(), "");
  EXPECT_EQ(bl.crc32c(), 0u);
}

TEST(BufferList, AppendAndToString) {
  BufferList bl;
  bl.append("abc");
  bl.append("def");
  bl.append('g');
  EXPECT_EQ(bl.length(), 7u);
  EXPECT_EQ(bl.num_slices(), 3u);
  EXPECT_EQ(bl.to_string(), "abcdefg");
}

TEST(BufferList, AppendZero) {
  BufferList bl;
  bl.append_zero(5);
  EXPECT_EQ(bl.to_string(), std::string(5, '\0'));
}

TEST(BufferList, AppendOtherIsZeroCopy) {
  BufferList a = fragmented("0123456789", 3);
  BufferList b;
  b.append("xx");
  b.append(a);
  EXPECT_EQ(b.to_string(), "xx0123456789");
  EXPECT_EQ(b.num_slices(), 1u + a.num_slices());
}

TEST(BufferList, ClaimAppendEmptiesSource) {
  BufferList a = fragmented("abcdef", 2);
  BufferList b;
  b.append("Z");
  b.claim_append(a);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.num_slices(), 0u);
  EXPECT_EQ(b.to_string(), "Zabcdef");
}

TEST(BufferList, SubstrWithinOneSlice) {
  BufferList bl;
  bl.append("hello world");
  EXPECT_EQ(bl.substr(6, 5).to_string(), "world");
}

TEST(BufferList, SubstrAcrossSlices) {
  BufferList bl = fragmented("hello cruel world", 4);
  EXPECT_EQ(bl.substr(6, 5).to_string(), "cruel");
  EXPECT_EQ(bl.substr(0, 17).to_string(), "hello cruel world");
}

TEST(BufferList, SubstrClampsPastEnd) {
  BufferList bl = fragmented("abcdef", 2);
  EXPECT_EQ(bl.substr(4, 100).to_string(), "ef");
  EXPECT_TRUE(bl.substr(6, 5).empty());
  EXPECT_TRUE(bl.substr(100, 5).empty());
}

TEST(BufferList, SubstrIsZeroCopy) {
  BufferList bl = fragmented(std::string(1000, 'q'), 100);
  BufferList sub = bl.substr(150, 700);
  EXPECT_EQ(sub.length(), 700u);
  EXPECT_LE(sub.num_slices(), 8u);  // views, not copies
}

TEST(BufferList, CopyOut) {
  BufferList bl = fragmented("0123456789", 3);
  char buf[5] = {};
  EXPECT_EQ(bl.copy_out(2, 5, buf), 5u);
  EXPECT_EQ(std::string(buf, 5), "23456");
  EXPECT_EQ(bl.copy_out(8, 10, buf), 2u);  // clamped
}

TEST(BufferList, Crc32cMatchesContiguous) {
  const std::string s = "some payload for checksumming, long enough to span";
  const std::uint32_t ref = crc32c(s.data(), s.size());
  for (std::size_t frag : {1u, 2u, 7u, 16u, 64u}) {
    EXPECT_EQ(fragmented(s, frag).crc32c(), ref) << "frag " << frag;
  }
}

TEST(BufferList, EqualityIgnoresFragmentation) {
  const std::string s = "equality is content-based";
  EXPECT_EQ(fragmented(s, 3), fragmented(s, 7));
  EXPECT_FALSE(fragmented(s, 3) == fragmented(s + "x", 3));
  EXPECT_FALSE(fragmented("abc", 1) == fragmented("abd", 3));
}

TEST(BufferList, ContiguousFlattens) {
  BufferList bl = fragmented("xyzw", 1);
  Slice s = bl.contiguous();
  EXPECT_EQ(std::string(s.data(), s.size()), "xyzw");
  // Single-slice lists are returned as-is (no copy).
  BufferList one;
  one.append("solo");
  EXPECT_EQ(one.contiguous().data(), one.slices().front().data());
}

TEST(BufferListCursor, SequentialReads) {
  BufferList bl = fragmented("0123456789", 4);
  BufferList::Cursor cur(bl);
  char a[3], b[4];
  EXPECT_TRUE(cur.copy(3, a));
  EXPECT_EQ(std::string(a, 3), "012");
  EXPECT_TRUE(cur.skip(2));
  EXPECT_TRUE(cur.copy(4, b));
  EXPECT_EQ(std::string(b, 4), "5678");
  EXPECT_EQ(cur.remaining(), 1u);
  EXPECT_FALSE(cur.copy(2, a));       // not enough left
  EXPECT_EQ(cur.remaining(), 1u);     // failed read does not advance
}

TEST(BufferListCursor, GetBufferListZeroCopy) {
  BufferList bl = fragmented(std::string(256, 'k'), 64);
  BufferList::Cursor cur(bl);
  BufferList out;
  EXPECT_TRUE(cur.get_buffer_list(128, out));
  EXPECT_EQ(out.length(), 128u);
  EXPECT_EQ(cur.remaining(), 128u);
  BufferList rest;
  EXPECT_FALSE(cur.get_buffer_list(200, rest));
  EXPECT_TRUE(cur.get_buffer_list(128, rest));
  EXPECT_EQ(cur.remaining(), 0u);
}

TEST(BufferList, LargePayloadRoundTrip) {
  std::string big(1 << 20, '\0');
  std::iota(big.begin(), big.end(), 0);
  BufferList bl = fragmented(big, 4096);
  EXPECT_EQ(bl.length(), big.size());
  EXPECT_EQ(bl.to_string(), big);
  EXPECT_EQ(bl.crc32c(), crc32c(big.data(), big.size()));
}

/// A slice of `n` bytes of varied content (crc-cache sized when n >= 4 KiB).
Slice filled(std::size_t n, unsigned seed) {
  Slice s = Slice::allocate(n);
  for (std::size_t i = 0; i < n; ++i)
    s.mutable_data()[i] = static_cast<char>((i * 131 + seed) >> 3);
  return s;
}

std::uint32_t flat_crc(const BufferList& bl, std::uint32_t seed = 0) {
  const std::string s = bl.to_string();
  return crc32c(seed, s.data(), s.size());
}

/// Small slices, odd-sized large ones, and large ones at both ends.
BufferList mixed_list() {
  BufferList bl;
  bl.append(filled(Slice::kCrcCacheMin, 1));
  bl.append("hdr");
  bl.append(filled(65537, 2));
  bl.append(filled(Slice::kCrcCacheMin - 1, 3));  // just under the cache size
  bl.append(filled(8191, 4));
  return bl;
}

TEST(BufferListCrcCache, CachedAndUncachedValuesAgree) {
  const BufferList bl = mixed_list();
  const std::size_t small = 3 + Slice::kCrcCacheMin - 1;
  for (const std::uint32_t seed : {0u, 0x12345678u}) {
    std::size_t hashed = 0;
    const std::uint32_t want = flat_crc(bl, seed);
    BufferList fresh = mixed_list();
    EXPECT_EQ(fresh.crc32c(seed, &hashed), want);
    EXPECT_EQ(hashed, fresh.length());  // nothing cached yet
    EXPECT_EQ(fresh.crc32c(seed, &hashed), want);
    EXPECT_EQ(hashed, small);  // only the slices under the cache size
    EXPECT_EQ(fresh.crc32c_verify(seed), want);
  }
}

TEST(BufferListCrcCache, CopiesCarryTheCacheAndSubstrStartsFresh) {
  const BufferList bl = mixed_list();
  (void)bl.crc32c();
  std::size_t hashed = 0;
  const BufferList copy = bl;  // what a forwarded payload is: shared slices
  BufferList outer;
  outer.append("prefix");
  outer.append(copy);
  EXPECT_EQ(outer.crc32c(0, &hashed), flat_crc(outer));
  EXPECT_EQ(hashed, 6 + 3 + Slice::kCrcCacheMin - 1);
  const BufferList views = bl.substr(0, bl.length());
  EXPECT_EQ(views.crc32c(0, &hashed), flat_crc(bl));
  EXPECT_EQ(hashed, bl.length());
}

TEST(BufferListCrcCache, WriteThroughMutableDataDropsIt) {
  Slice s = filled(16384, 5);
  BufferList bl;
  bl.append(s);
  std::size_t hashed = 0;
  (void)bl.crc32c();
  ASSERT_EQ(bl.crc32c(0, &hashed), flat_crc(bl));
  ASSERT_EQ(hashed, 0u);
  s.mutable_data()[100] ^= 1;  // same bytes as bl's slice, through s
  EXPECT_EQ(bl.crc32c(0, &hashed), flat_crc(bl));
  EXPECT_EQ(hashed, s.size());
}

TEST(BufferListCrcCache, WriteThroughAnyOtherViewDropsIt) {
  const Slice s = filled(16384, 6);
  BufferList whole;
  whole.append(s);
  BufferList half;
  half.append(s.subslice(8192, 8192));
  (void)whole.crc32c();
  (void)half.crc32c();
  // A view of other bytes of the same storage drops every cached crc.
  Slice head = s.subslice(0, 16);
  head.mutable_data()[0] ^= 1;
  std::size_t hashed = 0;
  EXPECT_EQ(whole.crc32c(0, &hashed), flat_crc(whole));
  EXPECT_EQ(hashed, 16384u);
  EXPECT_EQ(half.crc32c(0, &hashed), flat_crc(half));
  EXPECT_EQ(hashed, 8192u);
}

TEST(BufferListCrcCache, VerifyTrustsNoCache) {
  BufferList bl;
  bl.append(filled(8192, 7));
  (void)bl.crc32c();
  // A write the cache is not told about (bypassing mutable_data) leaves it
  // stale: crc32c keeps answering for the old bytes, verify does not.
  const std::uint32_t stale = bl.crc32c();
  const_cast<char*>(bl.slices().front().data())[0] ^= 1;
  EXPECT_EQ(bl.crc32c(), stale);
  EXPECT_NE(bl.crc32c_verify(), stale);
  EXPECT_EQ(bl.crc32c_verify(), flat_crc(bl));
  EXPECT_EQ(bl.crc32c(), flat_crc(bl));  // verify refreshed the cache
}

TEST(BufferListCrcCache, ConcurrentHashesOfOneListAgree) {
  // crc32c is const and fills the cache: two threads hashing the same list
  // (one message sent on two connections) must not race.
  const BufferList bl = mixed_list();
  const std::uint32_t want = flat_crc(bl);
  std::vector<std::thread> threads;
  std::vector<std::uint32_t> got(4, 0);
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) got[t] = bl.crc32c();
    });
  for (auto& t : threads) t.join();
  for (const std::uint32_t g : got) EXPECT_EQ(g, want);
}

}  // namespace
}  // namespace doceph
