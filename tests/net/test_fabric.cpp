#include "net/fabric.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "sim/env.h"

namespace doceph::net {
namespace {

using namespace doceph::sim;

/// Two nodes, each with its own event loop, plus a sink that accumulates
/// whatever arrives on the accepting side.
struct NetFixture {
  Env env;
  Fabric fabric{env};
  NetNode& a;
  NetNode& b;
  event::EventCenter ca{env};
  event::EventCenter cb{env};
  Thread la, lb;

  std::mutex m;
  CondVar cv{env.keeper()};
  SocketRef server;                 ///< the latest accepted socket
  std::vector<SocketRef> accepted;  ///< owns every accepted socket
  BufferList received;
  bool server_eof = false;
  Time last_delivery = -1;

  explicit NetFixture(NicProfile nic_a = {}, NicProfile nic_b = {},
                      StackModel stack = {})
      : a(fabric.add_node("a", nic_a, stack)),
        b(fabric.add_node("b", nic_b, stack)),
        la(env.keeper(), env.stats(), "loop-a", nullptr, [this] { ca.run(); }, true),
        lb(env.keeper(), env.stats(), "loop-b", nullptr, [this] { cb.run(); }, true) {}

  ~NetFixture() {  // NOLINT(bugprone-exception-escape): test teardown; a throw fails the binary loudly, which is fine
    ca.stop();
    cb.stop();
    // Join the loops before the members they touch (server, accepted, cv,
    // m — declared below the threads, so destroyed first) go away: stop()
    // only *asks* the loops to exit, and a handler may still be mid-flight.
    la.join();
    lb.join();
  }

  /// Listen on b:port and drain everything into `received`.
  void start_sink(std::uint16_t port) {
    const Status st = b.listen(port, cb, [this](SocketRef s) {
      {
        const std::lock_guard<std::mutex> lk(m);
        server = s;
        accepted.push_back(s);
      }
      // `accepted` owns the socket; the handler only points at it, so no
      // socket -> handler -> socket cycle outlives the fixture.
      s->set_read_handler(cb, [this, sock = s.get()] {
        while (true) {
          BufferList chunk = sock->recv(1 << 22);
          if (chunk.empty()) break;
          const std::lock_guard<std::mutex> lk(m);
          received.claim_append(chunk);
          last_delivery = env.now();
        }
        if (sock->eof()) {
          const std::lock_guard<std::mutex> lk(m);
          server_eof = true;
        }
        cv.notify_all();
      });
      cv.notify_all();
    });
    ASSERT_TRUE(st.ok()) << st.to_string();
  }

  /// Send all of `payload` from a sim thread, polling on would-block.
  void send_all(Socket& sock, BufferList payload) {
    while (payload.length() > 0) {
      auto r = sock.send(payload);
      ASSERT_TRUE(r.ok()) << r.status().to_string();
      if (*r == 0) env.keeper().sleep_for(50_us);
    }
  }

  void wait_received(std::size_t n) {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return received.length() >= n; });
  }
};

std::string pattern(std::size_t n) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) s[i] = static_cast<char>('a' + i % 23);
  return s;
}

TEST(Fabric, ConnectToUnknownNodeFails) {
  NetFixture f;
  auto r = f.fabric.connect(f.a, Address{99, 1});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Errc::invalid_argument);
}

TEST(Fabric, ConnectRefusedWithoutListener) {
  NetFixture f;
  auto r = f.fabric.connect(f.a, Address{f.b.id(), 7777});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Errc::not_connected);
}

TEST(Fabric, DuplicateListenFails) {
  NetFixture f;
  EXPECT_TRUE(f.b.listen(7000, f.cb, [](SocketRef) {}).ok());
  EXPECT_EQ(f.b.listen(7000, f.cb, [](SocketRef) {}).code(), Errc::exists);
  f.b.unlisten(7000);
  EXPECT_TRUE(f.b.listen(7000, f.cb, [](SocketRef) {}).ok());
}

TEST(Fabric, SmallTransferDeliversIntact) {
  NetFixture f;
  f.start_sink(7000);
  const std::string msg = "hello across the fabric";
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto r = f.fabric.connect(f.a, Address{f.b.id(), 7000});
    ASSERT_TRUE(r.ok());
    f.send_all(**r, BufferList::copy_of(msg));
    f.wait_received(msg.size());
  });
  driver.join();
  EXPECT_EQ(f.received.to_string(), msg);
}

TEST(Fabric, LargeTransferIntegrityAcrossChunks) {
  NetFixture f;
  f.start_sink(7000);
  const std::string payload = pattern(8 << 20);  // 8 MiB > window: many chunks
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto r = f.fabric.connect(f.a, Address{f.b.id(), 7000});
    ASSERT_TRUE(r.ok());
    f.send_all(**r, BufferList::copy_of(payload));
    f.wait_received(payload.size());
  });
  driver.join();
  EXPECT_EQ(f.received.length(), payload.size());
  EXPECT_EQ(f.received.to_string(), payload);
}

TEST(Fabric, ReceiverGetsFreshSlicesWithNoCachedCrc) {
  // The receiver's checks must hash the bytes it got: no crc a sender's
  // slice cached may cross the wire with them.
  NetFixture f;
  f.start_sink(7000);
  const std::string payload = pattern(64 << 10);
  BufferList sent = BufferList::copy_of(payload);
  (void)sent.crc32c();  // caches the 64 KiB slice's crc
  std::size_t hashed = 1;
  ASSERT_EQ(sent.crc32c(0, &hashed), crc32c(payload.data(), payload.size()));
  ASSERT_EQ(hashed, 0u);
  Thread sender = f.env.spawn("sender", nullptr, [&] {
    auto r = f.fabric.connect(f.a, Address{f.b.id(), 7000});
    ASSERT_TRUE(r.ok());
    f.send_all(**r, sent);
    f.wait_received(payload.size());
  });
  sender.join();
  const std::lock_guard<std::mutex> lk(f.m);
  EXPECT_EQ(f.received.crc32c(0, &hashed), crc32c(payload.data(), payload.size()));
  EXPECT_EQ(hashed, payload.size());
}

TEST(Fabric, TransferTimeMatchesBandwidthPlusLatency) {
  NicProfile nic{.bw_bytes_per_sec = 1e9, .latency = 100_us};
  NetFixture f(nic, nic);
  f.start_sink(7000);
  constexpr std::size_t kBytes = 1 << 20;  // fits one window/chunk
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto r = f.fabric.connect(f.a, Address{f.b.id(), 7000});
    ASSERT_TRUE(r.ok());
    BufferList bl;
    bl.append_zero(kBytes);
    auto acc = (*r)->send(bl);
    ASSERT_TRUE(acc.ok());
    ASSERT_EQ(*acc, kBytes);  // whole chunk accepted
    f.wait_received(kBytes);
  });
  driver.join();
  // Cut-through: bytes/bw + one latency. 1 MiB at 1 GB/s = ~1.048 ms.
  const Time expect = transfer_time(kBytes, 1e9) + 100_us;
  EXPECT_EQ(f.last_delivery, expect);
}

TEST(Fabric, SlowerReceiverBoundsThroughput) {
  NicProfile fast{.bw_bytes_per_sec = 10e9, .latency = 10_us};
  NicProfile slow{.bw_bytes_per_sec = 1e9, .latency = 10_us};
  NetFixture f(fast, slow);
  f.start_sink(7000);
  constexpr std::size_t kBytes = 1 << 20;
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto r = f.fabric.connect(f.a, Address{f.b.id(), 7000});
    ASSERT_TRUE(r.ok());
    BufferList bl;
    bl.append_zero(kBytes);
    (void)(*r)->send(bl);
    f.wait_received(kBytes);
  });
  driver.join();
  // Dominated by the receiver's 1 GB/s NIC.
  EXPECT_GE(f.last_delivery, transfer_time(kBytes, 1e9));
}

TEST(Fabric, BackpressureSendWouldBlockThenResumes) {
  NetFixture f;
  f.start_sink(7000);
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto r = f.fabric.connect(f.a, Address{f.b.id(), 7000});
    ASSERT_TRUE(r.ok());
    SocketRef s = *r;
    // Fill more than the 1 MiB window in one call: only part is accepted.
    BufferList bl;
    bl.append_zero(3 << 20);
    auto first = s->send(bl);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(*first, 1u << 20);
    EXPECT_EQ(bl.length(), 2u << 20);
    // Window is now full until the sink drains.
    auto second = s->send(bl);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(*second, 0u);
    f.send_all(*s, std::move(bl));
    f.wait_received(3 << 20);
  });
  driver.join();
  EXPECT_EQ(f.received.length(), 3u << 20);
}

TEST(Fabric, CloseDeliversEofAfterData) {
  NetFixture f;
  f.start_sink(7000);
  const std::string msg = "last words";
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto r = f.fabric.connect(f.a, Address{f.b.id(), 7000});
    ASSERT_TRUE(r.ok());
    BufferList bl = BufferList::copy_of(msg);
    // Ensure the data chunk is in flight before closing.
    (void)(*r)->send(bl);
    f.wait_received(msg.size());
    (*r)->close();
    std::unique_lock<std::mutex> lk(f.m);
    f.cv.wait(lk, [&] { return f.server_eof; });
  });
  driver.join();
  EXPECT_EQ(f.received.to_string(), msg);
  EXPECT_TRUE(f.server_eof);
}

TEST(Fabric, SendAfterCloseFails) {
  NetFixture f;
  f.start_sink(7000);
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto r = f.fabric.connect(f.a, Address{f.b.id(), 7000});
    ASSERT_TRUE(r.ok());
    (*r)->close();
    BufferList bl = BufferList::copy_of("too late");
    auto res = (*r)->send(bl);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), Errc::not_connected);
  });
  driver.join();
}

TEST(Fabric, AddressesAreConsistent) {
  NetFixture f;
  f.start_sink(7000);
  Thread driver = f.env.spawn("driver", nullptr, [&] {
    auto r = f.fabric.connect(f.a, Address{f.b.id(), 7000});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)->remote_addr(), (Address{f.b.id(), 7000}));
    EXPECT_EQ((*r)->local_addr().node, f.a.id());
    {
      std::unique_lock<std::mutex> lk(f.m);
      f.cv.wait(lk, [&] { return f.server != nullptr; });
    }
    EXPECT_EQ(f.server->remote_addr(), (*r)->local_addr());
    EXPECT_EQ(f.server->local_addr(), (*r)->remote_addr());
  });
  driver.join();
}

TEST(Fabric, StackModelChargesSenderDomain) {
  NetFixture f;
  f.start_sink(7000);
  CpuDomain cpu(f.env.keeper(), "host", 4, 1.0);
  constexpr std::size_t kBytes = 1 << 20;
  Thread driver(f.env.keeper(), f.env.stats(), "msgr-worker-0", &cpu, [&] {
    auto r = f.fabric.connect(f.a, Address{f.b.id(), 7000});
    ASSERT_TRUE(r.ok());
    BufferList bl;
    bl.append_zero(kBytes);
    (void)(*r)->send(bl);
    f.wait_received(kBytes);
  });
  driver.join();
  const StackModel stack{};
  EXPECT_EQ(f.env.stats().class_cpu_ns(ThreadClass::messenger),
            static_cast<std::uint64_t>(stack.cost(kBytes)));
  EXPECT_GT(cpu.busy_ns(), 0u);
}

TEST(Fabric, TwoStreamsShareNicBandwidth) {
  NicProfile nic{.bw_bytes_per_sec = 1e9, .latency = 10_us};
  NetFixture f(nic, nic);
  f.start_sink(7000);
  f.start_sink(7001);
  constexpr std::size_t kBytes = 1 << 20;
  auto hold = f.env.hold();
  Thread d1 = f.env.spawn("d1", nullptr, [&] {
    auto r = f.fabric.connect(f.a, Address{f.b.id(), 7000});
    BufferList bl;
    bl.append_zero(kBytes);
    (void)(*r)->send(bl);
  });
  Thread d2 = f.env.spawn("d2", nullptr, [&] {
    auto r = f.fabric.connect(f.a, Address{f.b.id(), 7001});
    BufferList bl;
    bl.append_zero(kBytes);
    (void)(*r)->send(bl);
  });
  Thread waiter = f.env.spawn("waiter", nullptr, [&] { f.wait_received(2 * kBytes); });
  hold.release();
  d1.join();
  d2.join();
  waiter.join();
  // Two 1 MiB chunks serialized over one 1 GB/s NIC: >= 2 * bytes/bw.
  EXPECT_GE(f.last_delivery, 2 * transfer_time(kBytes, 1e9));
}

TEST(StackModel, CostComposition) {
  StackModel s{.per_syscall = 1000, .per_byte_ns = 0.5, .per_frame = 100, .mtu = 1000};
  EXPECT_EQ(s.cost(0), 1000);
  EXPECT_EQ(s.cost(1), 1000 + 0 + 100);   // 0.5ns truncates to 0
  EXPECT_EQ(s.cost(1000), 1000 + 500 + 100);
  EXPECT_EQ(s.cost(2500), 1000 + 1250 + 300);  // 3 frames
}

}  // namespace
}  // namespace doceph::net
