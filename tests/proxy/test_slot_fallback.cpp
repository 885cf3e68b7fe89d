#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "../test_util.h"
#include "proxy/fallback.h"
#include "proxy/staging_arena.h"

namespace doceph::proxy {
namespace {

using namespace doceph::sim;
using doceph::testing::run_sim;

constexpr std::size_t k16K = 16 << 10;

/// Reserve `len` bytes that are free now with nobody queued, so the grant
/// runs inline; returns its offset.
std::size_t reserve_now(StagingArena& arena, std::size_t len) {
  std::optional<std::size_t> got;
  arena.reserve_async(len, [&](std::size_t off) { got = off; });
  EXPECT_TRUE(got.has_value()) << len;
  return got.value_or(0);
}

TEST(StagingArena, SubCapacityReservationsCoResideAndAreDisjoint) {
  Env env;
  StagingArena arena(env, 1, 4 * k16K);
  EXPECT_EQ(arena.capacity(), 4 * k16K);
  std::vector<std::size_t> offs;
  run_sim(env, [&] {
    for (int i = 0; i < 4; ++i) offs.push_back(reserve_now(arena, k16K));
    bool granted = false;
    arena.reserve_async(1, [&](std::size_t) { granted = true; });
    EXPECT_FALSE(granted);  // full: the byte queues
  });
  std::sort(offs.begin(), offs.end());
  for (std::size_t i = 0; i < offs.size(); ++i) {
    EXPECT_EQ(offs[i], i * k16K);  // disjoint, exactly tiling the region
    const auto d = arena.dpu_buf(offs[i], k16K);
    const auto h = arena.host_buf(offs[i], k16K);
    ASSERT_TRUE(d.valid());
    ASSERT_TRUE(h.valid());
    EXPECT_EQ(h.off, d.off);
    EXPECT_NE(d.mmap.get(), h.mmap.get());  // DPU vs host memory
  }
  EXPECT_EQ(arena.free_bytes(), 0u);
  EXPECT_EQ(arena.total_wait_ns(), 0);
}

TEST(StagingArena, FullCapacityWaiterIsServedBeforeLaterSmallOnes) {
  Env env;
  StagingArena arena(env, 1, 4 * k16K);
  Time big_at = -1;
  Time small_at = -1;
  run_sim(env, [&] {
    const std::size_t first = reserve_now(arena, k16K);
    arena.reserve_async(arena.capacity(), [&](std::size_t off) {
      big_at = env.now();
      env.scheduler().schedule_after(1'000'000,
                                     [&, off] { arena.release(off, arena.capacity()); });
    });
    EXPECT_EQ(big_at, -1);  // queued: 48 KiB free is not the whole region
    env.keeper().sleep_for(1'000'000);
    arena.reserve_async(k16K, [&](std::size_t off) {
      small_at = env.now();
      arena.release(off, k16K);
    });
    EXPECT_EQ(small_at, -1);  // 48 KiB are free, but the full-size request queued first
    env.keeper().sleep_for(1'000'000);
    arena.release(first, k16K);
    env.keeper().sleep_for(2'000'000);
  });
  EXPECT_EQ(big_at, 2'000'000);    // as soon as the first extent came back
  EXPECT_EQ(small_at, 3'000'000);  // only after the big one let go
  EXPECT_EQ(arena.free_bytes(), arena.capacity());
}

TEST(StagingArena, ReleasesMergeBackToOneFullExtent) {
  Env env;
  StagingArena arena(env, 2, 64 << 10);
  run_sim(env, [&] {
    std::vector<std::pair<std::size_t, std::size_t>> held;
    for (const std::size_t len : {4096u, 100u, 65536u, 7u, 30000u})
      held.emplace_back(reserve_now(arena, len), len);
    // Release out of order so merges happen on both sides.
    for (const std::size_t i : {1u, 3u, 0u, 4u, 2u}) {
      arena.release(held[i].first, held[i].second);
    }
  });
  EXPECT_EQ(arena.free_extents(), 1u);
  EXPECT_EQ(arena.free_bytes(), arena.capacity());
  run_sim(env, [&] {
    EXPECT_EQ(reserve_now(arena, arena.capacity()), 0u);
    arena.release(0, arena.capacity());
  });
}

TEST(StagingArena, TotalWaitAccountsQueuedTime) {
  Env env;
  StagingArena arena(env, 1, 4096);
  Time waited = -1;
  run_sim(env, [&] {
    const std::size_t a = reserve_now(arena, 4096);
    // Immediate grants cost nothing.
    EXPECT_EQ(arena.total_wait_ns(), 0);
    // Free the region 5 ms from now; a queued reservation waits it out.
    env.scheduler().schedule_after(5'000'000, [&, a] { arena.release(a, 4096); });
    const Time t0 = env.now();
    arena.reserve_async(4096, [&](std::size_t off) {
      waited = env.now() - t0;
      arena.release(off, 4096);
    });
    env.keeper().sleep_for(10'000'000);
  });
  EXPECT_EQ(waited, 5'000'000);
  EXPECT_EQ(arena.total_wait_ns(), 5'000'000);
  EXPECT_EQ(arena.free_bytes(), arena.capacity());
}

TEST(StagingArena, ManyContendersAllServed) {
  Env env;
  StagingArena arena(env, 2, 64);
  std::atomic<int> served{0};
  run_sim(env, [&] {
    for (int i = 0; i < 10; ++i) {
      const std::size_t len = i % 2 == 0 ? 64 : 128;  // half of them fill it
      arena.reserve_async(len, [&, len](std::size_t off) {
        env.scheduler().schedule_after(1'000'000, [&, off, len] {
          arena.release(off, len);
          served.fetch_add(1);
        });
      });
    }
    env.keeper().sleep_for(20'000'000);
  });
  EXPECT_EQ(served.load(), 10);
  EXPECT_GE(arena.total_wait_ns(), 3'000'000);
  EXPECT_EQ(arena.free_extents(), 1u);
  EXPECT_EQ(arena.free_bytes(), arena.capacity());
}

TEST(StagingArena, LandingIsHostOnlyAndQueuesApartFromThePairedRegion) {
  Env env;
  StagingArena arena(env, 1, 4 * k16K);
  EXPECT_EQ(arena.landing_capacity(), 2 * arena.capacity());
  EXPECT_EQ(arena.host_mmap()->size(), 3 * arena.capacity());
  Time queued_at = -1;
  std::size_t queued_off = 0;
  run_sim(env, [&] {
    (void)reserve_now(arena, arena.capacity());  // the paired region is full...
    std::vector<std::size_t> offs;
    for (int i = 0; i < 8; ++i) {  // ...and the landing still grants at once
      arena.reserve_landing_async(k16K, [&](std::size_t off) { offs.push_back(off); });
    }
    ASSERT_EQ(offs.size(), 8u);
    std::sort(offs.begin(), offs.end());
    for (std::size_t i = 0; i < offs.size(); ++i) {
      EXPECT_EQ(offs[i], arena.capacity() + i * k16K);  // past the paired part
      EXPECT_TRUE(arena.host_buf(offs[i], k16K).valid());
      EXPECT_FALSE(arena.dpu_buf(offs[i], k16K).valid());  // no DPU mirror
    }
    EXPECT_EQ(arena.landing_free_bytes(), 0u);
    arena.reserve_landing_async(k16K, [&](std::size_t off) {
      queued_at = env.now();
      queued_off = off;
    });
    EXPECT_EQ(queued_at, -1);  // the full landing queues it
    env.keeper().sleep_for(3'000'000);
    arena.release_landing(offs[5], k16K);
    EXPECT_EQ(queued_at, 3'000'000);
    EXPECT_EQ(queued_off, offs[5]);
    arena.release(0, arena.capacity());
    for (const std::size_t off : offs) arena.release_landing(off, k16K);
  });
  EXPECT_EQ(arena.total_wait_ns(), 3'000'000);  // landing waits count too
  EXPECT_EQ(arena.free_bytes(), arena.capacity());
  EXPECT_EQ(arena.landing_free_bytes(), arena.landing_capacity());
}

TEST(FallbackManager, StartsEnabled) {
  FallbackManager f(1'000'000);
  EXPECT_TRUE(f.dma_enabled());
  EXPECT_EQ(f.choose(0), FallbackManager::Path::dma);
  EXPECT_EQ(f.failures(), 0u);
}

TEST(FallbackManager, FailureTripsCooldown) {
  FallbackManager f(1'000'000);  // 1 ms cooldown
  f.on_dma_failure(100);
  EXPECT_FALSE(f.dma_enabled());
  EXPECT_EQ(f.failures(), 1u);
  // During cooldown everything routes to RPC.
  EXPECT_EQ(f.choose(500), FallbackManager::Path::rpc);
  EXPECT_EQ(f.choose(1'000'000), FallbackManager::Path::rpc);
}

TEST(FallbackManager, ProbeAfterExpiryThenRecovery) {
  FallbackManager f(1'000'000);
  f.on_dma_failure(0);
  // Past expiry: exactly ONE caller gets the probe; others stay on RPC.
  EXPECT_EQ(f.choose(2'000'000), FallbackManager::Path::probe);
  EXPECT_EQ(f.choose(2'000'001), FallbackManager::Path::rpc);
  f.on_dma_success();
  EXPECT_TRUE(f.dma_enabled());
  EXPECT_EQ(f.choose(2'000'002), FallbackManager::Path::dma);
}

TEST(FallbackManager, FailedProbeExtendsCooldown) {
  FallbackManager f(1'000'000);
  f.on_dma_failure(0);
  EXPECT_EQ(f.choose(1'500'000), FallbackManager::Path::probe);
  f.on_dma_failure(1'500'000);  // probe failed
  EXPECT_EQ(f.failures(), 2u);
  EXPECT_EQ(f.choose(2'000'000), FallbackManager::Path::rpc);  // new expiry 2.5ms
  EXPECT_EQ(f.choose(2'600'000), FallbackManager::Path::probe);
}

TEST(FallbackManager, RepeatedFailuresCount) {
  FallbackManager f(10);
  for (int i = 0; i < 5; ++i) f.on_dma_failure(i * 100);
  EXPECT_EQ(f.failures(), 5u);
}

}  // namespace
}  // namespace doceph::proxy
