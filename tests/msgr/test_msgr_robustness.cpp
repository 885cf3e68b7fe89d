// Messenger robustness: malformed banners, corrupted frames (crc rejection),
// and property-style sweeps of message sizes across the wire.
#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/logger.h"
#include "msgr/messages.h"
#include "msgr/messenger.h"

namespace doceph::msgr {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

struct Sink : Dispatcher {
  explicit Sink(Env& env) : cv(env.keeper()) {}
  std::mutex m;
  CondVar cv;
  std::vector<MessageRef> msgs;
  int resets = 0;
  void ms_dispatch(const MessageRef& msg) override {
    const std::lock_guard<std::mutex> lk(m);
    msgs.push_back(msg);
    cv.notify_all();
  }
  void ms_handle_reset(const ConnectionRef&) override {
    const std::lock_guard<std::mutex> lk(m);
    ++resets;
    cv.notify_all();
  }
};

struct Fixture {
  Env env;
  net::Fabric fabric{env};
  net::NetNode& na;
  net::NetNode& nb;
  Messenger server;
  Sink sink{env};

  Fixture()
      : na(fabric.add_node("a")),
        nb(fabric.add_node("b")),
        server(env, fabric, nb, nullptr, "osd.0") {
    server.set_dispatcher(&sink);
    EXPECT_TRUE(server.bind(6800).ok());
    server.start();
  }
  ~Fixture() { server.shutdown(); }  // NOLINT(bugprone-exception-escape): test teardown; a throw fails the binary loudly, which is fine
};

TEST(MsgrRobustness, GarbageBannerResetsConnection) {
  Fixture f;
  run_sim(f.env, [&] {
    auto sock = f.fabric.connect(f.na, {f.nb.id(), 6800});
    ASSERT_TRUE(sock.ok());
    BufferList garbage = BufferList::copy_of("this is not a doceph banner!!");
    (void)(*sock)->send(garbage);
    std::unique_lock<std::mutex> lk(f.sink.m);
    f.sink.cv.wait(lk, [&] { return f.sink.resets > 0; });
    EXPECT_TRUE(f.sink.msgs.empty());
  });
}

TEST(MsgrRobustness, CorruptedPayloadRejectedByCrc) {
  Fixture f;
  run_sim(f.env, [&] {
    // Handcraft a valid banner, then a frame whose data is bit-flipped
    // relative to its footer crc.
    auto sock_r = f.fabric.connect(f.na, {f.nb.id(), 6800});
    ASSERT_TRUE(sock_r.ok());
    auto sock = *sock_r;

    Messenger client(f.env, f.fabric, f.na, nullptr, "client.raw");
    // Use a real messenger to produce a valid wire image, then corrupt it.
    // Simpler: drive a legitimate connection and a corrupted raw one.
    Sink client_sink(f.env);
    client.set_dispatcher(&client_sink);
    client.start();
    auto con = client.get_connection(f.server.addr());
    ASSERT_NE(con, nullptr);
    auto op = std::make_shared<MOSDOp>();
    op->object = "fine";
    op->data = BufferList::copy_of(pattern(4096));
    con->send_message(op);
    {
      std::unique_lock<std::mutex> lk(f.sink.m);
      f.sink.cv.wait(lk, [&] { return !f.sink.msgs.empty(); });
    }

    // Raw connection: valid banner + garbage frame -> crc/parse failure.
    BufferList banner;
    encode(std::uint32_t{0xD0CE0001}, banner);
    net::Address fake{f.na.id(), 12345};
    fake.encode(banner);
    (void)sock->send(banner);
    BufferList frame;
    frame.append_zero(200);  // "header" of zeros: unknown type / bad layout
    (void)sock->send(frame);

    std::unique_lock<std::mutex> lk(f.sink.m);
    f.sink.cv.wait(lk, [&] { return f.sink.resets > 0; });
    EXPECT_EQ(f.sink.msgs.size(), 1u);  // only the legitimate message landed
    client.shutdown();
  });
}

TEST(MsgrRobustness, ReceiverTrustsNoCachedCrc) {
  // The sender's payload slice carries a wrong cached crc (its bytes were
  // changed behind the cache's back), so the footer vouches for other
  // bytes. The receiver hashes what arrived and rejects the frame.
  Fixture f;
  BufferList data = BufferList::copy_of(pattern(64 << 10));
  (void)data.crc32c();
  const_cast<char*>(data.slices().front().data())[17] ^= 0x40;
  const log::Level was = log::level();
  log::set_level(log::Level::debug);
  ::testing::internal::CaptureStderr();
  run_sim(f.env, [&] {
    Messenger client(f.env, f.fabric, f.na, nullptr, "client.1");
    Sink client_sink(f.env);
    client.set_dispatcher(&client_sink);
    client.start();
    auto con = client.get_connection(f.server.addr());
    ASSERT_NE(con, nullptr);
    auto op = std::make_shared<MOSDOp>();
    op->object = "stale";
    op->data = data;
    con->send_message(op);
    {
      std::unique_lock<std::mutex> lk(f.sink.m);
      f.sink.cv.wait(lk, [&] { return f.sink.resets > 0; });
    }
    client.shutdown();
  });
  const std::string log = ::testing::internal::GetCapturedStderr();
  log::set_level(was);
  EXPECT_TRUE(f.sink.msgs.empty());
  EXPECT_NE(log.find("message crc mismatch"), std::string::npos) << log;
}

class MsgrSizeSweep : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, MsgrSizeSweep,
                         ::testing::Values(0u, 1u, 4096u, 65536u, 1u << 20,
                                           (4u << 20) + 13));

TEST_P(MsgrSizeSweep, PayloadIntegrityAcrossTheWire) {
  Fixture f;
  const std::string payload = pattern(GetParam(), 42);
  run_sim(f.env, [&] {
    Messenger client(f.env, f.fabric, f.na, nullptr, "client.1");
    Sink client_sink(f.env);
    client.set_dispatcher(&client_sink);
    client.start();
    auto con = client.get_connection(f.server.addr());
    ASSERT_NE(con, nullptr);
    auto op = std::make_shared<MOSDOp>();
    op->object = "sweep";
    op->tid = 9;
    op->data = BufferList::copy_of(payload);
    con->send_message(op);
    {
      std::unique_lock<std::mutex> lk(f.sink.m);
      f.sink.cv.wait(lk, [&] { return !f.sink.msgs.empty(); });
    }
    EXPECT_EQ(f.sink.msgs[0]->data.to_string(), payload);
    EXPECT_EQ(f.sink.msgs[0]->tid, 9u);
    client.shutdown();
  });
}

TEST(MsgrRobustness, ManyConnectionsSpreadAcrossWorkers) {
  Fixture f;
  run_sim(f.env, [&] {
    std::vector<std::unique_ptr<Messenger>> clients;
    for (int i = 0; i < 6; ++i) {
      clients.push_back(std::make_unique<Messenger>(f.env, f.fabric, f.na, nullptr,
                                                    "client." + std::to_string(i)));
      clients.back()->start();
      auto con = clients.back()->get_connection(f.server.addr());
      ASSERT_NE(con, nullptr);
      auto op = std::make_shared<MOSDOp>();
      op->object = "from" + std::to_string(i);
      con->send_message(op);
    }
    {
      std::unique_lock<std::mutex> lk(f.sink.m);
      f.sink.cv.wait(lk, [&] { return f.sink.msgs.size() == 6; });
    }
    for (auto& c : clients) c->shutdown();
  });
}

}  // namespace
}  // namespace doceph::msgr
