#include "proxy/rpc_channel.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace doceph::proxy {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

struct RpcFixture {
  Env env;
  doca::PcieLink link;
  doca::CommChannelRef host_end, dpu_end;
  std::unique_ptr<RpcChannel> server;
  std::unique_ptr<RpcChannel> client;
  event::EventCenter sc{env}, cc{env};
  Thread st, ct;

  RpcFixture() {
    auto pair = doca::CommChannel::create_pair(env, link);
    host_end = pair.first;
    dpu_end = pair.second;
    server = std::make_unique<RpcChannel>(env, host_end);
    client = std::make_unique<RpcChannel>(env, dpu_end);
    st = Thread(env.keeper(), env.stats(), "rpc-server", nullptr, [this] { sc.run(); },
                true);
    ct = Thread(env.keeper(), env.stats(), "rpc-client", nullptr, [this] { cc.run(); },
                true);
  }
  ~RpcFixture() {  // NOLINT(bugprone-exception-escape): test teardown; a throw fails the binary loudly, which is fine
    sc.stop();
    cc.stop();
  }

  void start_echo() {
    server->set_request_handler([](BufferList req, bool oneway,
                                   RpcChannel::Responder respond,
                                   const trace::TraceContext&) {
      if (!oneway) respond(std::move(req));
    });
    server->start(sc);
    client->start(cc);
  }
};

TEST(RpcChannel, SmallCallRoundTrip) {
  RpcFixture f;
  f.start_echo();
  run_sim(f.env, [&] {
    auto r = f.client->call(BufferList::copy_of("hello rpc"), 1'000'000'000);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r->to_string(), "hello rpc");
  });
}

TEST(RpcChannel, LargePayloadFragmentsAndReassembles) {
  RpcFixture f;
  f.start_echo();
  // 64 KiB >> the ~4 KB comch cap: ~16 fragments each way.
  const std::string big = pattern(64 << 10);
  run_sim(f.env, [&] {
    auto r = f.client->call(BufferList::copy_of(big), 5'000'000'000);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->length(), big.size());
    EXPECT_EQ(r->to_string(), big);
  });
}

TEST(RpcChannel, ConcurrentCallsMatchByRequestId) {
  RpcFixture f;
  f.start_echo();
  run_sim(f.env, [&] {
    constexpr int kCalls = 32;
    std::mutex m;
    CondVar cv(f.env.keeper());
    int done = 0;
    std::vector<std::string> got(kCalls);
    for (int i = 0; i < kCalls; ++i) {
      f.client->call_async(BufferList::copy_of("payload-" + std::to_string(i)),
                           [&, i](Result<BufferList> r) {
                             ASSERT_TRUE(r.ok());
                             const std::lock_guard<std::mutex> lk(m);
                             got[static_cast<std::size_t>(i)] = r->to_string();
                             ++done;
                             cv.notify_all();
                           });
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == kCalls; });
    for (int i = 0; i < kCalls; ++i)
      EXPECT_EQ(got[static_cast<std::size_t>(i)], "payload-" + std::to_string(i));
  });
}

TEST(RpcChannel, OnewayNeverGetsResponder) {
  RpcFixture f;
  std::atomic<int> oneway_seen{0};
  std::atomic<bool> had_responder{true};
  f.server->set_request_handler([&](BufferList, bool oneway,
                                    RpcChannel::Responder respond,
                                    const trace::TraceContext&) {
    if (oneway) {
      oneway_seen.fetch_add(1);
      had_responder.store(static_cast<bool>(respond));
    }
  });
  f.server->start(f.sc);
  f.client->start(f.cc);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.client->notify(BufferList::copy_of("fire and forget")).ok());
    f.env.keeper().sleep_for(10'000'000);
  });
  EXPECT_EQ(oneway_seen.load(), 1);
  EXPECT_FALSE(had_responder.load());
}

TEST(RpcChannel, CallTimesOutWithoutServer) {
  RpcFixture f;
  // Server side never installs a handler (requests are dropped with a log).
  f.server->start(f.sc);
  f.client->start(f.cc);
  run_sim(f.env, [&] {
    const Time t0 = f.env.now();
    auto r = f.client->call(BufferList::copy_of("void"), 50'000'000);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Errc::timed_out);
    EXPECT_GE(f.env.now() - t0, 50'000'000);
  });
}

TEST(RpcChannel, DelayedResponseCompletesLater) {
  RpcFixture f;
  // Server answers 20 ms later from the scheduler (like a commit callback).
  f.server->set_request_handler([&](BufferList req, bool,
                                    RpcChannel::Responder respond,
                                    const trace::TraceContext&) {
    f.env.scheduler().schedule_after(
        20'000'000, [req = std::move(req), respond = std::move(respond)]() mutable {
          respond(std::move(req));
        });
  });
  f.server->start(f.sc);
  f.client->start(f.cc);
  run_sim(f.env, [&] {
    const Time t0 = f.env.now();
    auto r = f.client->call(BufferList::copy_of("slow"), 1'000'000'000);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(f.env.now() - t0, 20'000'000);
    EXPECT_EQ(r->to_string(), "slow");
  });
}

TEST(RpcChannel, CallsSentTogetherShareOneMessageInOrder) {
  RpcFixture f;
  std::vector<std::string> seen;  // server loop only
  f.server->set_request_handler([&](BufferList req, bool, RpcChannel::Responder respond,
                                    const trace::TraceContext&) {
    seen.push_back(req.to_string());
    respond(std::move(req));
  });
  f.server->start(f.sc);
  f.client->start(f.cc);
  run_sim(f.env, [&] {
    std::mutex m;
    CondVar cv(f.env.keeper());
    std::vector<std::string> got;
    std::vector<RpcChannel::Call> calls;
    for (const char* body : {"first", "second", "third"}) {
      calls.push_back({.request = BufferList::copy_of(body),
                       .cb =
                           [&](Result<BufferList> r) {
                             ASSERT_TRUE(r.ok()) << r.status().to_string();
                             const std::lock_guard<std::mutex> lk(m);
                             got.push_back(r->to_string());
                             cv.notify_all();
                           },
                       .ctx = {}});
    }
    const auto sent = f.dpu_end->sent();
    const auto ids = f.client->call_together(std::move(calls));
    EXPECT_EQ(ids.size(), 3u);
    EXPECT_EQ(f.dpu_end->sent() - sent, 1u);  // one comch message
    EXPECT_EQ(f.client->frames_sent(), 3u);
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return got.size() == 3; });
    const std::vector<std::string> want{"first", "second", "third"};
    EXPECT_EQ(seen, want);  // handled in call order
    EXPECT_EQ(got, want);
  });
}

TEST(RpcChannel, FailedTogetherSendFailsEveryCallInIt) {
  RpcFixture f;
  f.start_echo();
  run_sim(f.env, [&] {
    f.dpu_end->close();
    std::vector<Status> failed;
    std::vector<RpcChannel::Call> calls;
    for (int i = 0; i < 2; ++i) {
      calls.push_back({.request = BufferList::copy_of("lost"),
                       .cb = [&](Result<BufferList> r) { failed.push_back(r.status()); },
                       .ctx = {}});
    }
    const auto ids = f.client->call_together(std::move(calls));
    ASSERT_EQ(failed.size(), 2u);  // the failed send ran both callbacks
    for (const Status& st : failed) EXPECT_EQ(st.code(), Errc::not_connected);
    for (const std::uint64_t id : ids) EXPECT_FALSE(f.client->cancel(id));
  });
}

TEST(RpcChannel, BytesSentAccounting) {
  RpcFixture f;
  f.start_echo();
  run_sim(f.env, [&] {
    (void)f.client->call(BufferList::copy_of(pattern(10'000)), 1'000'000'000);
  });
  EXPECT_GE(f.client->bytes_sent(), 10'000u);
  EXPECT_GE(f.server->bytes_sent(), 10'000u);  // the echo
}

}  // namespace
}  // namespace doceph::proxy
