#include "msgr/messenger.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "msgr/messages.h"
#include "os/transaction.h"
#include "sim/env.h"

namespace doceph::msgr {
namespace {

using namespace doceph::sim;

/// Dispatcher that records everything it receives and can auto-reply.
class Recorder : public Dispatcher {
 public:
  explicit Recorder(Env& env) : env_(env), cv_(env.keeper()) {}

  void ms_dispatch(const MessageRef& m) override {
    {
      const std::lock_guard<std::mutex> lk(m_);
      msgs_.push_back(m);
    }
    if (auto_reply_ && m->type() == MsgType::osd_op) {
      auto reply = std::make_shared<MOSDOpReply>();
      reply->tid = m->tid;
      reply->result = 0;
      reply->data = m->data;  // echo bulk payload back
      m->connection->send_message(reply);
    }
    cv_.notify_all();
  }

  void ms_handle_reset(const ConnectionRef&) override {
    const std::lock_guard<std::mutex> lk(m_);
    resets_++;
    cv_.notify_all();
  }

  /// Wait (in sim time) until n messages arrived.
  void wait_count(std::size_t n) {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] { return msgs_.size() >= n; });
  }
  void wait_reset() {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] { return resets_ > 0; });
  }

  std::vector<MessageRef> messages() {
    const std::lock_guard<std::mutex> lk(m_);
    return msgs_;
  }
  int resets() {
    const std::lock_guard<std::mutex> lk(m_);
    return resets_;
  }
  void enable_auto_reply() { auto_reply_ = true; }

 private:
  Env& env_;
  std::mutex m_;
  CondVar cv_;
  std::vector<MessageRef> msgs_;
  int resets_ = 0;
  bool auto_reply_ = false;
};

struct MsgrFixture {
  Env env;
  net::Fabric fabric{env};
  net::NetNode& na;
  net::NetNode& nb;
  Messenger ma;
  Messenger mb;
  Recorder ra{env};
  Recorder rb{env};

  MsgrFixture()
      : na(fabric.add_node("a")),
        nb(fabric.add_node("b")),
        ma(env, fabric, na, nullptr, "client.1"),
        mb(env, fabric, nb, nullptr, "osd.0") {
    ma.set_dispatcher(&ra);
    mb.set_dispatcher(&rb);
    EXPECT_TRUE(mb.bind(6800).ok());
    ma.start();
    mb.start();
  }
  ~MsgrFixture() {  // NOLINT(bugprone-exception-escape): test teardown; a throw fails the binary loudly, which is fine
    ma.shutdown();
    mb.shutdown();
  }
};

MessageRef make_op(std::string object, std::string payload, std::uint64_t tid) {
  auto op = std::make_shared<MOSDOp>();
  op->op = OsdOpType::write_full;
  op->object = std::move(object);
  op->tid = tid;
  op->data = BufferList::copy_of(payload);
  return op;
}

TEST(Messenger, RoundTripSmallMessage) {
  MsgrFixture f;
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto con = f.ma.get_connection(f.mb.addr());
    ASSERT_NE(con, nullptr);
    con->send_message(make_op("obj1", "payload-bytes", 42));
    f.rb.wait_count(1);
  });
  driver.join();
  auto msgs = f.rb.messages();
  ASSERT_EQ(msgs.size(), 1u);
  auto* op = dynamic_cast<MOSDOp*>(msgs[0].get());
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->object, "obj1");
  EXPECT_EQ(op->tid, 42u);
  EXPECT_EQ(op->data.to_string(), "payload-bytes");
  EXPECT_EQ(op->src, f.ma.addr());
  EXPECT_NE(op->connection, nullptr);
}

TEST(Messenger, ReplyTravelsBackOnSameConnection) {
  MsgrFixture f;
  f.rb.enable_auto_reply();
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto con = f.ma.get_connection(f.mb.addr());
    ASSERT_NE(con, nullptr);
    con->send_message(make_op("obj", "echo-me", 7));
    f.ra.wait_count(1);
  });
  driver.join();
  auto msgs = f.ra.messages();
  ASSERT_EQ(msgs.size(), 1u);
  auto* reply = dynamic_cast<MOSDOpReply*>(msgs[0].get());
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->tid, 7u);
  EXPECT_EQ(reply->data.to_string(), "echo-me");
}

TEST(Messenger, ManyMessagesPreserveOrder) {
  MsgrFixture f;
  constexpr int kCount = 200;
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto con = f.ma.get_connection(f.mb.addr());
    ASSERT_NE(con, nullptr);
    for (int i = 0; i < kCount; ++i)
      con->send_message(make_op("obj" + std::to_string(i), "x", static_cast<std::uint64_t>(i)));
    f.rb.wait_count(kCount);
  });
  driver.join();
  auto msgs = f.rb.messages();
  ASSERT_EQ(msgs.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(msgs[static_cast<std::size_t>(i)]->tid, static_cast<std::uint64_t>(i));
    EXPECT_EQ(msgs[static_cast<std::size_t>(i)]->seq, static_cast<std::uint64_t>(i + 1));
  }
}

TEST(Messenger, LargeDataPayloadIntact) {
  MsgrFixture f;
  std::string big(6 << 20, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 31 + 7);
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto con = f.ma.get_connection(f.mb.addr());
    ASSERT_NE(con, nullptr);
    con->send_message(make_op("big", big, 1));
    f.rb.wait_count(1);
  });
  driver.join();
  auto msgs = f.rb.messages();
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0]->data.length(), big.size());
  EXPECT_EQ(msgs[0]->data.to_string(), big);
}

TEST(Messenger, GetConnectionCachesByPeer) {
  MsgrFixture f;
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto c1 = f.ma.get_connection(f.mb.addr());
    auto c2 = f.ma.get_connection(f.mb.addr());
    EXPECT_EQ(c1.get(), c2.get());
  });
  driver.join();
}

TEST(Messenger, ConnectToUnboundPeerReturnsNull) {
  MsgrFixture f;
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto con = f.ma.get_connection(net::Address{f.nb.id(), 9999});
    EXPECT_EQ(con, nullptr);
  });
  driver.join();
}

TEST(Messenger, MarkDownResetsPeer) {
  MsgrFixture f;
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto con = f.ma.get_connection(f.mb.addr());
    ASSERT_NE(con, nullptr);
    con->send_message(make_op("o", "x", 1));
    f.rb.wait_count(1);
    con->mark_down();
    f.rb.wait_reset();
  });
  driver.join();
  EXPECT_GE(f.rb.resets(), 1);
}

TEST(Messenger, BidirectionalTraffic) {
  MsgrFixture f;
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto con = f.ma.get_connection(f.mb.addr());
    ASSERT_NE(con, nullptr);
    con->send_message(make_op("fwd", "a", 1));
    f.rb.wait_count(1);
    // B replies on the connection it received from.
    auto msgs = f.rb.messages();
    auto pong = std::make_shared<MOSDPing>();
    pong->from_osd = 0;
    msgs[0]->connection->send_message(pong);
    f.ra.wait_count(1);
  });
  driver.join();
  ASSERT_EQ(f.ra.messages().size(), 1u);
  EXPECT_EQ(f.ra.messages()[0]->type(), MsgType::osd_ping);
}

TEST(Messenger, MessengerWorkChargesDomain) {
  Env env;
  net::Fabric fabric{env};
  auto& na = fabric.add_node("a");
  auto& nb = fabric.add_node("b");
  CpuDomain host(env.keeper(), "host", 4, 1.0);
  Messenger ma(env, fabric, na, nullptr, "client.1");
  Messenger mb(env, fabric, nb, &host, "osd.0");
  Recorder ra{env}, rb{env};
  ma.set_dispatcher(&ra);
  mb.set_dispatcher(&rb);
  ASSERT_TRUE(mb.bind(6800).ok());
  ma.start();
  mb.start();
  Thread driver = env.spawn("driver", nullptr, [&] {
    auto con = ma.get_connection(mb.addr());
    ASSERT_NE(con, nullptr);
    con->send_message(make_op("obj", std::string(1 << 20, 'q'), 1));
    rb.wait_count(1);
  });
  driver.join();
  // Receiver-side decode + crc + socket stack ran on "msgr-worker-*@osd.0"
  // threads bound to the host domain.
  EXPECT_GT(env.stats().class_cpu_ns(ThreadClass::messenger), 0u);
  EXPECT_GT(host.busy_ns(), 0u);
  ma.shutdown();
  mb.shutdown();
}

TEST(Messenger, ForwardedPayloadIsHashedOnce) {
  // The primary's path: a client payload arrives (and is verified), then
  // rides on inside a repop's encoded transaction. Only the repop's own
  // bytes are hashed again; the payload's crc is reused.
  MsgrFixture f;
  const std::string payload(64 << 10, 'p');
  const auto& c = f.mb.counters();
  std::uint64_t hashed = 0, cached = 0, sent = 0;
  Thread primary = f.env.spawn("primary", nullptr, [&] {
    auto con = f.ma.get_connection(f.mb.addr());
    ASSERT_NE(con, nullptr);
    con->send_message(make_op("obj", payload, 1));
    f.rb.wait_count(1);
    const MessageRef op = f.rb.messages()[0];
    ASSERT_EQ(op->data.num_slices(), 1u);  // one fabric chunk
    const std::uint64_t recv_bytes = c->get(l_msgr_bytes_recv);
    EXPECT_EQ(c->get(l_msgr_crc_bytes), recv_bytes);  // every byte that arrived

    os::Transaction txn;
    txn.write({1, 0}, {1, "obj"}, 0, op->data);
    auto repop = std::make_shared<MOSDRepOp>();
    txn.encode(repop->txn);
    const std::uint64_t hashed0 = c->get(l_msgr_crc_bytes);
    const std::uint64_t cached0 = c->get(l_msgr_crc_cached_bytes);
    const std::uint64_t sent0 = c->get(l_msgr_bytes_send);
    op->connection->send_message(repop);
    f.ra.wait_count(1);
    hashed = c->get(l_msgr_crc_bytes) - hashed0;
    cached = c->get(l_msgr_crc_cached_bytes) - cached0;
    sent = c->get(l_msgr_bytes_send) - sent0;
  });
  primary.join();
  EXPECT_EQ(cached, payload.size());
  EXPECT_EQ(hashed, sent - payload.size());
  EXPECT_LT(hashed, 1024u);  // the repop's metadata only
  // The peer still verified every byte and got the payload intact.
  ASSERT_EQ(f.ra.messages().size(), 1u);
  const auto* got = static_cast<const MOSDRepOp*>(f.ra.messages()[0].get());
  os::Transaction decoded;
  BufferList::Cursor cur(got->txn);
  ASSERT_TRUE(decoded.decode(cur));
  ASSERT_EQ(decoded.num_ops(), 1u);
  EXPECT_EQ(decoded.ops()[0].data.to_string(), payload);
  EXPECT_EQ(f.ma.counters()->get(l_msgr_crc_bytes), f.ma.counters()->get(l_msgr_bytes_recv) +
                                                       f.ma.counters()->get(l_msgr_bytes_send));
}

TEST(Messenger, AllMessageTypesRoundTripThroughFactory) {
  // Exercise encode -> decode via the factory for every registered type.
  for (std::uint16_t t = 1; t <= 14; ++t) {
    const auto type = static_cast<MsgType>(t);
    MessageRef m = create_message(type);
    ASSERT_NE(m, nullptr) << "type " << t;
    EXPECT_EQ(m->type(), type);
    BufferList front;
    m->encode_payload(front);
    MessageRef m2 = create_message(type);
    BufferList::Cursor cur(front);
    EXPECT_TRUE(m2->decode_payload(cur)) << msg_type_name(type);
    EXPECT_EQ(cur.remaining(), 0u) << msg_type_name(type);
  }
  EXPECT_EQ(create_message(MsgType::none), nullptr);
  EXPECT_EQ(create_message(static_cast<MsgType>(999)), nullptr);
}

}  // namespace
}  // namespace doceph::msgr
