// net.delay jitter sweeps: randomly delayed chunks must never reorder the
// byte stream (the socket's in-order delivery floor clamps later chunks
// behind fault-delayed ones), across a grid of fire probabilities and spike
// magnitudes — and the same floor must hold one layer up, for messenger
// message order.
#include <gtest/gtest.h>

#include <atomic>

#include "../test_util.h"
#include "common/fault.h"
#include "msgr/messages.h"
#include "msgr/messenger.h"
#include "net/fabric.h"
#include "sim/env.h"

namespace doceph::net {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

struct JitterParam {
  double p;                 ///< per-chunk fire probability
  std::uint64_t delay_ns;   ///< spike magnitude
};

class NetDelayJitterSweep : public ::testing::TestWithParam<JitterParam> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, NetDelayJitterSweep,
    ::testing::Values(JitterParam{0.05, 5'000'000}, JitterParam{0.25, 1'000'000},
                      JitterParam{0.5, 200'000}, JitterParam{1.0, 2'000'000}),
    [](const auto& info) {
      return "p" + std::to_string(static_cast<int>(info.param.p * 100)) + "_d" +
             std::to_string(info.param.delay_ns);
    });

TEST_P(NetDelayJitterSweep, ByteStreamOrderSurvivesJitter) {
  const auto param = GetParam();
  Env env(TimeKeeper::Mode::virtual_time, /*seed=*/77);
  Fabric fabric(env);
  auto& a = fabric.add_node("a");
  auto& b = fabric.add_node("b");
  event::EventCenter center(env);
  Thread loop(env.keeper(), env.stats(), "loop", nullptr, [&] { center.run(); }, true);

  fault::FaultSpec jitter;
  jitter.probability = param.p;
  jitter.delay_ns = param.delay_ns;
  jitter.match = "a>b";
  env.faults().set("net.delay", jitter);

  std::mutex m;
  CondVar cv(env.keeper());
  std::string stream;
  // The test owns the accepted socket; its read handler only points at it,
  // so no socket -> handler -> socket cycle outlives the test.
  SocketRef server;
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
    for (int i = 0; i < 300; ++i) {
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
  // The floor: jittered delivery, identical byte order.
  EXPECT_EQ(stream, expect);
  EXPECT_GE(env.faults().fires("net.delay"), 1u) << "sweep point never fired";
  env.faults().clear_all();
  center.stop();
  // Join the loop before the state its handler touches (stream, cv, m,
  // server) goes away: stop() only asks it to exit.
  loop.join();
}

/// Message order one layer up: a connection's messages must dispatch in
/// send order even when every underlying chunk (both directions) is
/// jitter-delayed at random.
TEST(NetDelayJitter, MessengerKeepsMessageOrderUnderJitter) {
  Env env(TimeKeeper::Mode::virtual_time, /*seed=*/78);
  Fabric fabric(env);
  auto& a = fabric.add_node("a");
  auto& b = fabric.add_node("b");

  struct TidRecorder : msgr::Dispatcher {
    explicit TidRecorder(Env& e) : cv(e.keeper()) {}
    void ms_dispatch(const msgr::MessageRef& msg) override {
      const std::lock_guard<std::mutex> lk(m);
      tids.push_back(msg->tid);
      cv.notify_all();
    }
    std::mutex m;
    CondVar cv;
    std::vector<std::uint64_t> tids;
  };

  msgr::Messenger ma(env, fabric, a, nullptr, "client.1");
  msgr::Messenger mb(env, fabric, b, nullptr, "osd.0");
  TidRecorder ra{env};
  TidRecorder rb{env};
  ma.set_dispatcher(&ra);
  mb.set_dispatcher(&rb);
  ASSERT_TRUE(mb.bind(6800).ok());
  ma.start();
  mb.start();

  fault::FaultSpec jitter;  // empty match: every link, both directions
  jitter.probability = 0.35;
  jitter.delay_ns = 800'000;
  env.faults().set("net.delay", jitter);

  constexpr std::uint64_t kMsgs = 100;
  run_sim(env, [&] {
    auto con = ma.get_connection(mb.addr());
    ASSERT_NE(con, nullptr);
    for (std::uint64_t tid = 1; tid <= kMsgs; ++tid) {
      auto op = std::make_shared<msgr::MOSDOp>();
      op->op = msgr::OsdOpType::write_full;
      op->object = "o" + std::to_string(tid);
      op->tid = tid;
      op->data = BufferList::copy_of(pattern(512, static_cast<unsigned>(tid)));
      con->send_message(op);
    }
    std::unique_lock<std::mutex> lk(rb.m);
    rb.cv.wait(lk, [&] { return rb.tids.size() >= kMsgs; });
  });

  std::vector<std::uint64_t> want(kMsgs);
  for (std::uint64_t i = 0; i < kMsgs; ++i) want[i] = i + 1;
  EXPECT_EQ(rb.tids, want);
  EXPECT_GE(env.faults().fires("net.delay"), 1u);
  env.faults().clear_all();
  ma.shutdown();
  mb.shutdown();
}

}  // namespace
}  // namespace doceph::net
