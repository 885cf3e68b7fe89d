// Parameterized sweeps of the fabric's transfer model: sizes x bandwidths x
// latencies, checking both integrity and the analytic delivery-time model.
#include <gtest/gtest.h>

#include <atomic>

#include "../test_util.h"
#include "net/fabric.h"
#include "sim/env.h"

namespace doceph::net {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

struct SweepParam {
  std::size_t bytes;
  double bw;
  Duration latency;
};

class FabricSweep : public ::testing::TestWithParam<SweepParam> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, FabricSweep,
    ::testing::Values(SweepParam{1, 1e9, 1000}, SweepParam{1500, 1e9, 1000},
                      SweepParam{64 << 10, 1e9, 100'000},
                      SweepParam{1 << 20, 125e6, 30'000},    // 1 GbE
                      SweepParam{1 << 20, 12.5e9, 5'000},    // 100 GbE
                      SweepParam{(1 << 20) - 1, 12.5e9, 5'000}),
    [](const auto& info) {
      return "b" + std::to_string(info.param.bytes) + "_bw" +
             std::to_string(static_cast<long long>(info.param.bw)) + "_l" +
             std::to_string(info.param.latency);
    });

TEST_P(FabricSweep, SingleChunkDeliveryTimeAndIntegrity) {
  const auto p = GetParam();
  Env env;
  Fabric fabric(env);
  NicProfile nic{.bw_bytes_per_sec = p.bw, .latency = p.latency};
  auto& a = fabric.add_node("a", nic);
  auto& b = fabric.add_node("b", nic);
  event::EventCenter center(env);
  Thread loop(env.keeper(), env.stats(), "loop", nullptr, [&] { center.run(); }, true);

  std::mutex m;
  CondVar cv(env.keeper());
  BufferList got;
  Time delivered = -1;
  SocketRef server;  // owns the accepted socket; the handler only points at it
  ASSERT_TRUE(b.listen(9000, center, [&](SocketRef s) {
                 server = s;
                 s->set_read_handler(center, [&, sock = s.get()] {
                   while (true) {
                     BufferList c = sock->recv(1 << 22);
                     if (c.empty()) break;
                     const std::lock_guard<std::mutex> lk(m);
                     got.claim_append(c);
                     delivered = env.now();
                   }
                   cv.notify_all();
                 });
               }).ok());

  const std::string payload = pattern(p.bytes, 5);
  run_sim(env, [&] {
    auto sock = fabric.connect(a, {b.id(), 9000});
    ASSERT_TRUE(sock.ok());
    BufferList bl = BufferList::copy_of(payload);
    const Time t0 = env.now();
    auto acc = (*sock)->send(bl);
    ASSERT_TRUE(acc.ok());
    ASSERT_EQ(*acc, p.bytes);  // all sizes here fit the 1 MiB window
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return got.length() >= p.bytes; });
    // Cut-through model: bytes/bw + one latency, from send time.
    const Time expect = t0 + transfer_time(p.bytes, p.bw) + p.latency;
    EXPECT_EQ(delivered, expect);
  });
  EXPECT_EQ(got.to_string(), payload);
  center.stop();
  loop.join();
}

TEST(FabricParams, AsymmetricLatencyUsesSenderSide) {
  Env env;
  Fabric fabric(env);
  auto& fast = fabric.add_node("fast", {.bw_bytes_per_sec = 1e9, .latency = 1'000});
  auto& slow = fabric.add_node("slow", {.bw_bytes_per_sec = 1e9, .latency = 900'000});
  event::EventCenter center(env);
  Thread loop(env.keeper(), env.stats(), "loop", nullptr, [&] { center.run(); }, true);
  std::mutex m;
  CondVar cv(env.keeper());
  Time delivered = -1;
  SocketRef server;  // owns the accepted socket; the handler only points at it
  ASSERT_TRUE(slow.listen(9000, center, [&](SocketRef s) {
                 server = s;
                 s->set_read_handler(center, [&, sock = s.get()] {
                   while (!sock->recv(1 << 20).empty()) {
                   }
                   const std::lock_guard<std::mutex> lk(m);
                   delivered = env.now();
                   cv.notify_all();
                 });
               }).ok());
  run_sim(env, [&] {
    auto sock = fabric.connect(fast, {slow.id(), 9000});
    ASSERT_TRUE(sock.ok());
    BufferList bl = BufferList::copy_of("ping");
    const Time t0 = env.now();
    (void)(*sock)->send(bl);
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return delivered >= 0; });
    // Propagation delay comes from the sender's NIC profile.
    EXPECT_LT(delivered - t0, 100'000);
  });
  center.stop();
  loop.join();
}

TEST(FabricParams, ManySmallMessagesKeepOrder) {
  Env env;
  Fabric fabric(env);
  auto& a = fabric.add_node("a");
  auto& b = fabric.add_node("b");
  event::EventCenter center(env);
  Thread loop(env.keeper(), env.stats(), "loop", nullptr, [&] { center.run(); }, true);
  std::mutex m;
  CondVar cv(env.keeper());
  std::string stream;
  SocketRef server;  // owns the accepted socket; the handler only points at it
  ASSERT_TRUE(b.listen(9000, center, [&](SocketRef s) {
                 server = s;
                 s->set_read_handler(center, [&, sock = s.get()] {
                   while (true) {
                     BufferList c = sock->recv(4096);
                     if (c.empty()) break;
                     const std::lock_guard<std::mutex> lk(m);
                     stream += c.to_string();
                   }
                   cv.notify_all();
                 });
               }).ok());
  std::string expect;
  run_sim(env, [&] {
    auto sock = fabric.connect(a, {b.id(), 9000});
    ASSERT_TRUE(sock.ok());
    for (int i = 0; i < 200; ++i) {
      const std::string msg = "[m" + std::to_string(i) + "]";
      expect += msg;
      BufferList bl = BufferList::copy_of(msg);
      while (bl.length() > 0) {
        auto r = (*sock)->send(bl);
        ASSERT_TRUE(r.ok());
        if (*r == 0) env.keeper().sleep_for(10'000);
      }
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return stream.size() >= expect.size(); });
  });
  EXPECT_EQ(stream, expect);
  center.stop();
  loop.join();
}

}  // namespace
}  // namespace doceph::net
