// Scatter-gather DMA: greedy packing into engine passes, the 2 MB hardware
// split boundary, per-extent completion fan-out, and per-extent fault
// injection ("<engine>#<index>" scoping).
#include <gtest/gtest.h>

#include "../test_util.h"
#include "doca/dma_engine.h"

namespace doceph::doca {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

struct SgFixture {
  Env env;
  PcieLink link;
  DmaEngine dma{env, link, DmaConfig{}, "eng"};

  /// Run a scatter-gather job to completion; returns per-extent statuses.
  std::vector<Status> run_sg(const std::vector<DmaExtent>& extents) {
    std::vector<Status> results(extents.size());
    run_sim(env, [&] {
      std::mutex m;
      CondVar cv(env.keeper());
      std::size_t done = 0;
      ASSERT_TRUE(dma.submit_sg(extents, DmaDir::dpu_to_host,
                                [&](std::size_t i, Status st) {
                                  const std::lock_guard<std::mutex> lk(m);
                                  results[i] = std::move(st);
                                  ++done;
                                  cv.notify_all();
                                })
                      .ok());
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return done == extents.size(); });
    });
    return results;
  }
};

std::vector<DmaExtent> make_extents(const std::shared_ptr<Mmap>& src,
                                    const std::shared_ptr<Mmap>& dst, int n,
                                    std::size_t len) {
  std::vector<DmaExtent> ext;
  for (int i = 0; i < n; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * len;
    ext.push_back({{src, off, len}, {dst, off, len}});
  }
  return ext;
}

TEST(DmaSg, SmallExtentsShareOnePass) {
  SgFixture f;
  auto src = std::make_shared<Mmap>(64 << 10);
  auto dst = std::make_shared<Mmap>(64 << 10);
  const std::string data = pattern(64 << 10);
  std::memcpy(src->data(), data.data(), data.size());

  const auto results = f.run_sg(make_extents(src, dst, 8, 8 << 10));
  for (const auto& st : results) EXPECT_TRUE(st.ok());
  EXPECT_EQ(f.dma.sg_passes(), 1u);  // 8 x 8 KB fits one <=2MB pass
  EXPECT_EQ(f.dma.jobs_completed(), 8u);
  EXPECT_EQ(f.dma.bytes_moved(), 64u << 10);
  EXPECT_EQ(std::memcmp(dst->data(), data.data(), data.size()), 0);
}

TEST(DmaSg, SplitsOnlyAtHardwareCap) {
  SgFixture f;
  auto src = std::make_shared<Mmap>(5 << 20);
  auto dst = std::make_shared<Mmap>(5 << 20);
  // 5 x 1 MB against a 2 MB cap: passes pack [0,1][2,3][4].
  const auto results = f.run_sg(make_extents(src, dst, 5, 1 << 20));
  for (const auto& st : results) EXPECT_TRUE(st.ok());
  EXPECT_EQ(f.dma.sg_passes(), 3u);
  EXPECT_EQ(f.dma.bytes_moved(), 5u << 20);
}

TEST(DmaSg, ExactCapExtentFillsItsPass) {
  SgFixture f;
  auto src = std::make_shared<Mmap>((2 << 20) + 4096);
  auto dst = std::make_shared<Mmap>((2 << 20) + 4096);
  const std::vector<DmaExtent> ext = {
      {{src, 0, 2 << 20}, {dst, 0, 2 << 20}},
      {{src, 2 << 20, 4096}, {dst, 2 << 20, 4096}},
  };
  const auto results = f.run_sg(ext);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_EQ(f.dma.sg_passes(), 2u);
}

TEST(DmaSg, RejectsOversizedExtentAndBadBuffers) {
  SgFixture f;
  auto m = std::make_shared<Mmap>(4 << 20);
  EXPECT_EQ(f.dma
                .submit_sg({{{m, 0, 3 << 20}, {m, 0, 3 << 20}}},
                           DmaDir::dpu_to_host, [](std::size_t, Status) {})
                .code(),
            Errc::too_large);
  EXPECT_EQ(f.dma
                .submit_sg({{{m, 0, 100}, {m, 0, 200}}}, DmaDir::dpu_to_host,
                           [](std::size_t, Status) {})
                .code(),
            Errc::invalid_argument);
  EXPECT_EQ(f.dma.submit_sg({}, DmaDir::dpu_to_host, [](std::size_t, Status) {})
                .code(),
            Errc::invalid_argument);
}

TEST(DmaSg, BatchPaysOneSetupLatency) {
  SgFixture f;
  auto src = std::make_shared<Mmap>(64 << 10);
  auto dst = std::make_shared<Mmap>(64 << 10);
  run_sim(f.env, [&] {
    std::mutex m;
    CondVar cv(f.env.keeper());
    std::size_t done = 0;
    Time last = 0;
    const Time t0 = f.env.now();
    ASSERT_TRUE(f.dma
                    .submit_sg(make_extents(src, dst, 16, 4 << 10),
                               DmaDir::dpu_to_host,
                               [&](std::size_t, Status st) {
                                 EXPECT_TRUE(st.ok());
                                 const std::lock_guard<std::mutex> lk(m);
                                 ++done;
                                 last = f.env.now();
                                 cv.notify_all();
                               })
                    .ok());
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == 16; });
    // One pass: bytes/bw + ONE setup — not 16 setups. (16 individual
    // submits would still pipeline the setup, but each would pay its own
    // engine pass; the packed pass is what batching buys.)
    const auto expect = transfer_time(64 << 10, 2.6e9) + f.dma.config().setup_latency;
    EXPECT_NEAR(static_cast<double>(last - t0), static_cast<double>(expect),
                static_cast<double>(5_us));
  });
}

TEST(DmaSg, PerExtentFaultFailsOnlyMatchedExtent) {
  SgFixture f;
  auto src = std::make_shared<Mmap>(16 << 10);
  auto dst = std::make_shared<Mmap>(16 << 10);
  const std::string data = pattern(16 << 10);
  std::memcpy(src->data(), data.data(), data.size());
  // Address extent 2 of this engine: scope is "eng#2".
  f.env.faults().fire_next("doca.dma_error", 1, "eng#2");

  const auto results = f.run_sg(make_extents(src, dst, 4, 4 << 10));
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_EQ(results[2].code(), Errc::channel_error);
  EXPECT_TRUE(results[3].ok());
  EXPECT_EQ(f.dma.jobs_failed(), 1u);
  EXPECT_EQ(f.dma.jobs_completed(), 3u);
  // Survivors landed; the failed extent's destination stayed untouched.
  EXPECT_EQ(std::memcmp(dst->data(), data.data(), 8 << 10), 0);
  EXPECT_EQ(std::memcmp(dst->data() + (12 << 10), data.data() + (12 << 10),
                        4 << 10),
            0);
}

TEST(DmaSg, EngineWideFaultFailsWholeBatch) {
  SgFixture f;
  auto src = std::make_shared<Mmap>(8 << 10);
  auto dst = std::make_shared<Mmap>(8 << 10);
  // match="eng" is a substring of every "eng#<i>" scope.
  f.dma.set_failure_rate(1.0);
  const auto results = f.run_sg(make_extents(src, dst, 2, 4 << 10));
  EXPECT_EQ(results[0].code(), Errc::channel_error);
  EXPECT_EQ(results[1].code(), Errc::channel_error);
  EXPECT_EQ(f.dma.jobs_failed(), 2u);
}

}  // namespace
}  // namespace doceph::doca
