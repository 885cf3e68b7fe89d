#include <gtest/gtest.h>

#include "../test_util.h"
#include "doca/comm_channel.h"
#include "doca/dma_engine.h"
#include "dpu/dpu_device.h"

namespace doceph::doca {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

struct DocaFixture {
  Env env;
  PcieLink link;
  DmaEngine dma{env, link, DmaConfig{}};
};

TEST(Mmap, ViewAndBuf) {
  Mmap m(4096);
  std::memcpy(m.data(), "hello", 5);
  EXPECT_EQ(m.view(0, 5).to_string(), "hello");
  Buf b{std::make_shared<Mmap>(128), 64, 64};
  EXPECT_TRUE(b.valid());
  Buf bad{b.mmap, 100, 64};
  EXPECT_FALSE(bad.valid());
  EXPECT_FALSE(Buf{}.valid());
}

TEST(DmaEngine, CopiesBytes) {
  DocaFixture f;
  auto src_m = std::make_shared<Mmap>(1 << 20);
  auto dst_m = std::make_shared<Mmap>(1 << 20);
  const std::string data = pattern(1 << 20);
  std::memcpy(src_m->data(), data.data(), data.size());
  run_sim(f.env, [&] {
    std::mutex m;
    CondVar cv(f.env.keeper());
    bool done = false;
    Status st;
    ASSERT_TRUE(f.dma
                    .submit({src_m, 0, data.size()}, {dst_m, 0, data.size()},
                            DmaDir::dpu_to_host,
                            [&](Status s) {
                              const std::lock_guard<std::mutex> lk(m);
                              st = s;
                              done = true;
                              cv.notify_all();
                            })
                    .ok());
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done; });
    EXPECT_TRUE(st.ok());
  });
  EXPECT_EQ(std::memcmp(dst_m->data(), data.data(), data.size()), 0);
  EXPECT_EQ(f.dma.jobs_completed(), 1u);
  EXPECT_EQ(f.dma.bytes_moved(), data.size());
}

TEST(DmaEngine, RejectsOversizedJob) {
  DocaFixture f;
  auto m = std::make_shared<Mmap>(4 << 20);
  const auto st = f.dma.submit({m, 0, 3 << 20}, {m, 0, 3 << 20},
                               DmaDir::dpu_to_host, [](Status) {});
  EXPECT_EQ(st.code(), Errc::too_large);
}

TEST(DmaEngine, RejectsBadBuffers) {
  DocaFixture f;
  auto m = std::make_shared<Mmap>(1024);
  EXPECT_EQ(f.dma.submit({m, 0, 100}, {m, 0, 200}, DmaDir::dpu_to_host, [](Status) {})
                .code(),
            Errc::invalid_argument);
  EXPECT_EQ(f.dma.submit({nullptr, 0, 10}, {m, 0, 10}, DmaDir::dpu_to_host,
                         [](Status) {})
                .code(),
            Errc::invalid_argument);
  EXPECT_EQ(
      f.dma.submit({m, 0, 0}, {m, 0, 0}, DmaDir::dpu_to_host, [](Status) {}).code(),
      Errc::invalid_argument);
}

TEST(DmaEngine, TimingSetupPlusBandwidth) {
  DocaFixture f;
  auto src = std::make_shared<Mmap>(2 << 20);
  auto dst = std::make_shared<Mmap>(2 << 20);
  run_sim(f.env, [&] {
    std::mutex m;
    CondVar cv(f.env.keeper());
    bool done = false;
    Time finished = 0;
    const Time t0 = f.env.now();
    ASSERT_TRUE(f.dma
                    .submit({src, 0, 2 << 20}, {dst, 0, 2 << 20}, DmaDir::dpu_to_host,
                            [&](Status) {
                              const std::lock_guard<std::mutex> lk(m);
                              finished = f.env.now();
                              done = true;
                              cv.notify_all();
                            })
                    .ok());
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done; });
    const auto expect = transfer_time(2 << 20, 2.6e9) + f.dma.config().setup_latency;
    EXPECT_NEAR(static_cast<double>(finished - t0), static_cast<double>(expect),
                static_cast<double>(5_us));
  });
}

TEST(DmaEngine, SegmentsSerializeButSetupOverlaps) {
  DocaFixture f;
  auto src = std::make_shared<Mmap>(8 << 20);
  auto dst = std::make_shared<Mmap>(8 << 20);
  run_sim(f.env, [&] {
    std::mutex m;
    CondVar cv(f.env.keeper());
    int done = 0;
    Time last = 0;
    const Time t0 = f.env.now();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(f.dma
                      .submit({src, static_cast<std::size_t>(i) << 21, 2 << 20},
                              {dst, static_cast<std::size_t>(i) << 21, 2 << 20},
                              DmaDir::dpu_to_host,
                              [&](Status) {
                                const std::lock_guard<std::mutex> lk(m);
                                ++done;
                                last = f.env.now();
                                cv.notify_all();
                              })
                      .ok());
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == 4; });
    // 4 segments serialized at engine bw + ONE setup latency visible at the
    // end (pipelining property the proxy relies on).
    const auto expect = 4 * transfer_time(2 << 20, 2.6e9) + f.dma.config().setup_latency;
    EXPECT_NEAR(static_cast<double>(last - t0), static_cast<double>(expect),
                static_cast<double>(10_us));
  });
}

TEST(DmaEngine, FailureInjection) {
  DocaFixture f;
  auto m1 = std::make_shared<Mmap>(4096);
  auto m2 = std::make_shared<Mmap>(4096);
  f.dma.fail_next(1);
  run_sim(f.env, [&] {
    std::mutex m;
    CondVar cv(f.env.keeper());
    std::vector<Status> results;
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(f.dma
                      .submit({m1, 0, 1024}, {m2, 0, 1024}, DmaDir::dpu_to_host,
                              [&](Status st) {
                                const std::lock_guard<std::mutex> lk(m);
                                results.push_back(st);
                                cv.notify_all();
                              })
                      .ok());
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return results.size() == 2; });
    EXPECT_EQ(results[0].code(), Errc::channel_error);
    EXPECT_TRUE(results[1].ok());
  });
  EXPECT_EQ(f.dma.jobs_failed(), 1u);
}

TEST(CommChannel, RoundTripAndCap) {
  Env env;
  PcieLink link;
  auto [host, dpu] = CommChannel::create_pair(env, link);
  run_sim(env, [&] {
    // DPU -> host with blocking recv on the host side.
    Thread sender = Thread(env.keeper(), env.stats(), "sender", nullptr, [&] {
      EXPECT_TRUE(dpu->send(BufferList::copy_of("ping")).ok());
    });
    auto got = host->recv(1'000'000'000);
    sender.join();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->to_string(), "ping");

    BufferList big;
    big.append_zero(8192);
    EXPECT_EQ(dpu->send(std::move(big)).code(), Errc::too_large);
  });
}

TEST(CommChannel, HandlerDelivery) {
  Env env;
  PcieLink link;
  auto [host, dpu] = CommChannel::create_pair(env, link);
  event::EventCenter center(env);
  Thread pump(env.keeper(), env.stats(), "pump", nullptr,
              [&] { center.run(); }, /*daemon=*/true);
  std::mutex m;
  CondVar cv(env.keeper());
  std::vector<std::string> got;
  host->set_recv_handler(center, [&](BufferList msg) {
    const std::lock_guard<std::mutex> lk(m);
    got.push_back(msg.to_string());
    cv.notify_all();
  });
  run_sim(env, [&] {
    for (int i = 0; i < 5; ++i)
      ASSERT_TRUE(dpu->send(BufferList::copy_of("m" + std::to_string(i))).ok());
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return got.size() == 5; });
  });
  for (int i = 0; i < 5; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], "m" + std::to_string(i));
  center.stop();
}

TEST(CommChannel, RecvTimesOut) {
  Env env;
  PcieLink link;
  auto [host, dpu] = CommChannel::create_pair(env, link);
  run_sim(env, [&] {
    const Time t0 = env.now();
    auto got = host->recv(5_ms);
    EXPECT_FALSE(got.has_value());
    EXPECT_GE(env.now() - t0, 5_ms);
  });
}

TEST(DpuDevice, WiringComplete) {
  Env env;
  net::Fabric fabric(env);
  dpu::DpuDevice dev(env, fabric, "dpu-0", dpu::DpuProfile{});
  EXPECT_EQ(dev.cpu().cores(), 16);
  EXPECT_LT(dev.cpu().speed(), 1.0);
  EXPECT_EQ(dev.net_node().name(), "dpu-0");
  EXPECT_NE(dev.host_comch(), nullptr);
  EXPECT_NE(dev.dpu_comch(), nullptr);
  EXPECT_EQ(dev.dma().config().max_transfer, 2u << 20);
}

}  // namespace
}  // namespace doceph::doca
