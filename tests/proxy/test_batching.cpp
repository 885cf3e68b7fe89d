// Batched offload hot path: comch doorbell coalescing on the RpcChannel
// (adaptive flush: immediate when idle, coalesced under load, deadline
// bounded) and segment coalescing into scatter-gather DMA passes, plus the
// determinism contract (same seed => byte-identical trace dumps with
// batching on).
#include <gtest/gtest.h>

#include "../test_util.h"
#include "bluestore/bluestore.h"
#include "proxy/host_backend.h"
#include "proxy/proxy_object_store.h"
#include "proxy/rpc_channel.h"

namespace doceph::proxy {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

const os::coll_t kColl{1, 0};

// ---- RPC doorbell coalescing --------------------------------------------------

struct BatchRpcFixture {
  Env env;
  doca::PcieLink link;
  doca::CommChannelRef host_end, dpu_end;
  std::unique_ptr<RpcChannel> server;
  std::unique_ptr<RpcChannel> client;
  event::EventCenter sc{env}, cc{env};
  Thread st, ct;

  explicit BatchRpcFixture(RpcBatchConfig batch = {.enabled = true}) {
    auto pair = doca::CommChannel::create_pair(env, link);
    host_end = pair.first;
    dpu_end = pair.second;
    server = std::make_unique<RpcChannel>(env, host_end);
    client = std::make_unique<RpcChannel>(env, dpu_end);
    server->set_batch_config(batch);
    client->set_batch_config(batch);
    st = Thread(env.keeper(), env.stats(), "rpc-server", nullptr,
                [this] { sc.run(); }, true);
    ct = Thread(env.keeper(), env.stats(), "rpc-client", nullptr,
                [this] { cc.run(); }, true);
  }
  ~BatchRpcFixture() {  // NOLINT(bugprone-exception-escape): test teardown
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

TEST(RpcBatching, IdleChannelFlushesImmediately) {
  BatchRpcFixture f;
  f.start_echo();
  run_sim(f.env, [&] {
    const Time t0 = f.env.now();
    auto r = f.client->call(BufferList::copy_of("solo"), 1'000'000'000);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r->to_string(), "solo");
    // Adaptive doorbell: an idle channel must not wait out the deadline.
    // The round trip is comch overhead + dispatch, well under 1 ms.
    EXPECT_LT(f.env.now() - t0, 1'000'000);
  });
  // A lone frame is its own flush on both endpoints.
  EXPECT_EQ(f.client->frames_sent(), 1u);
  EXPECT_EQ(f.client->batch_flushes(), 1u);
}

TEST(RpcBatching, ConcurrentCallsCoalesceDoorbells) {
  BatchRpcFixture f;
  f.start_echo();
  constexpr int kCalls = 64;
  run_sim(f.env, [&] {
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
  // Under load, frames must ride shared comch messages on both sides:
  // fewer doorbells than frames is the whole point.
  EXPECT_EQ(f.client->frames_sent(), static_cast<std::uint64_t>(kCalls));
  EXPECT_LT(f.client->batch_flushes(), f.client->frames_sent());
  EXPECT_EQ(f.server->frames_sent(), static_cast<std::uint64_t>(kCalls));
  EXPECT_LT(f.server->batch_flushes(), f.server->frames_sent());
}

TEST(RpcBatching, DeadlineFlushesStragglers) {
  // Server answers 5 ms later, so the client's channel stays busy
  // (inflight > 1) while later requests queue — only the deadline timer
  // can release them.
  BatchRpcFixture f(RpcBatchConfig{.enabled = true, .max_frames = 64,
                                   .flush_delay = 20'000});
  f.server->set_request_handler([&](BufferList req, bool,
                                    RpcChannel::Responder respond,
                                    const trace::TraceContext&) {
    f.env.scheduler().schedule_after(
        5'000'000, [req = std::move(req), respond = std::move(respond)]() mutable {
          respond(std::move(req));
        });
  });
  f.server->start(f.sc);
  f.client->start(f.cc);
  run_sim(f.env, [&] {
    std::mutex m;
    CondVar cv(f.env.keeper());
    int done = 0;
    for (int i = 0; i < 4; ++i) {
      f.client->call_async(BufferList::copy_of("r" + std::to_string(i)),
                           [&](Result<BufferList> r) {
                             ASSERT_TRUE(r.ok());
                             const std::lock_guard<std::mutex> lk(m);
                             ++done;
                             cv.notify_all();
                           });
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == 4; });
  });
  EXPECT_EQ(f.client->frames_sent(), 4u);
}

TEST(RpcBatching, LargePayloadStillFragmentsCorrectly) {
  BatchRpcFixture f;
  f.start_echo();
  const std::string big = pattern(64 << 10);
  run_sim(f.env, [&] {
    auto r = f.client->call(BufferList::copy_of(big), 5'000'000'000);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), big);
  });
}

// ---- DMA segment coalescing ---------------------------------------------------

/// ProxyFixture clone with batching knobs threaded through.
struct BatchProxyFixture {
  Env env;
  net::Fabric fabric{env};
  CpuDomain host_cpu{env.keeper(), "host-0", 8, 1.0};
  dpu::DpuDevice dpu{env, fabric, "dpu-0", dpu::DpuProfile{}};
  std::unique_ptr<bluestore::BlueStore> store;
  std::unique_ptr<HostBackendService> backend;
  std::unique_ptr<ProxyObjectStore> proxy;

  explicit BatchProxyFixture(ProxyConfig pcfg) {
    bluestore::BlueStoreConfig scfg;
    scfg.device.size_bytes = 4ull << 30;
    store = std::make_unique<bluestore::BlueStore>(env, &host_cpu, scfg);
    proxy = std::make_unique<ProxyObjectStore>(env, dpu, pcfg);
    HostBackendConfig bcfg;
    bcfg.rpc_batch = pcfg.rpc_batch;
    backend = std::make_unique<HostBackendService>(
        env, host_cpu, *store, dpu.host_comch(), proxy->slots().host_mmap(), bcfg);
  }

  void up() {
    run_sim(env, [&] {
      ASSERT_TRUE(store->mkfs().ok());
      ASSERT_TRUE(store->mount().ok());
      ASSERT_TRUE(backend->start().ok());
      ASSERT_TRUE(proxy->mount().ok());
      os::Transaction t;
      t.create_collection(kColl);
      ASSERT_TRUE(commit_all({std::move(t)}).ok());
    });
  }

  void down() {
    run_sim(env, [&] {
      ASSERT_TRUE(proxy->umount().ok());
      ASSERT_TRUE(store->umount().ok());
      backend->shutdown();
    });
  }

  /// Queue all transactions concurrently; first error wins.
  Status commit_all(std::vector<os::Transaction> txns) {
    std::mutex m;
    CondVar cv(env.keeper());
    std::size_t done = 0;
    Status out;
    for (auto& t : txns) {
      proxy->queue_transaction(std::move(t), [&](Status st) {
        const std::lock_guard<std::mutex> lk(m);
        if (out.ok() && !st.ok()) out = st;
        ++done;
        cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == txns.size(); });
    return out;
  }
};

ProxyConfig batched_config() {
  ProxyConfig cfg;
  cfg.rpc_batch.enabled = true;
  cfg.dma_batch.enabled = true;
  return cfg;
}

TEST(DmaBatching, SmallSegmentsShareSlotPassAndStageRpc) {
  BatchProxyFixture f(batched_config());
  f.up();
  // Requests hash to write workers by collection, so concurrency (and
  // therefore coalescing) needs the objects spread across collections —
  // exactly how PG-sharded OSD traffic reaches the proxy.
  constexpr int kObjects = 16;
  const std::string payload = pattern(64 << 10);  // DMA path, sub-slot
  std::uint64_t write_sg_passes = 0;
  run_sim(f.env, [&] {
    std::vector<os::Transaction> colls;
    for (int i = 0; i < kObjects; ++i) {
      os::Transaction t;
      t.create_collection({1, static_cast<std::uint32_t>(i + 1)});
      colls.push_back(std::move(t));
    }
    ASSERT_TRUE(f.commit_all(std::move(colls)).ok());
    std::vector<os::Transaction> txns;
    for (int i = 0; i < kObjects; ++i) {
      os::Transaction t;
      t.write_full({1, static_cast<std::uint32_t>(i + 1)},
                   {1, "obj" + std::to_string(i)}, BufferList::copy_of(payload));
      txns.push_back(std::move(t));
    }
    ASSERT_TRUE(f.commit_all(std::move(txns)).ok());
    // Snapshot before the read-backs: the read path issues one
    // single-extent engine pass per object, which would mask the write
    // coalescing this test measures.
    write_sg_passes = f.dpu.dma().sg_passes();
    for (int i = 0; i < kObjects; ++i) {
      auto r = f.proxy->read({1, static_cast<std::uint32_t>(i + 1)},
                             {1, "obj" + std::to_string(i)}, 0, 0);
      ASSERT_TRUE(r.ok()) << r.status().to_string();
      EXPECT_EQ(r->to_string(), payload);
    }
  });
  const auto& c = f.proxy->perf_counters();
  EXPECT_GT(c->get(l_dpu_batch_flushes), 0u);
  EXPECT_EQ(c->get(l_dpu_batch_segments), static_cast<std::uint64_t>(kObjects));
  EXPECT_EQ(c->get(l_dpu_batch_bytes),
            static_cast<std::uint64_t>(kObjects) * payload.size());
  // Coalescing must be real: fewer engine passes and fewer flushes than
  // segments (16 x 64 KB fits comfortably inside one 2 MB slot).
  EXPECT_LT(c->get(l_dpu_batch_flushes), static_cast<std::uint64_t>(kObjects));
  EXPECT_LT(write_sg_passes, static_cast<std::uint64_t>(kObjects));
  EXPECT_EQ(f.proxy->dma_bytes(),
            static_cast<std::uint64_t>(kObjects) * payload.size());
  f.down();
}

TEST(DmaBatching, SingleWriteStillCompletesPromptly) {
  BatchProxyFixture f(batched_config());
  f.up();
  const std::string payload = pattern(256 << 10);
  run_sim(f.env, [&] {
    os::Transaction t;
    t.write_full(kColl, {1, "solo"}, BufferList::copy_of(payload));
    ASSERT_TRUE(f.commit_all({std::move(t)}).ok());
    auto r = f.proxy->read(kColl, {1, "solo"}, 0, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->length(), payload.size());
  });
  const auto& c = f.proxy->perf_counters();
  EXPECT_EQ(c->get(l_dpu_batch_flushes), 1u);
  EXPECT_EQ(c->get(l_dpu_batch_segments), 1u);
  f.down();
}

TEST(DmaBatching, OversizedSegmentsFallThroughToLegacyPath) {
  // 2 MB segments exactly fill a slot; the batcher takes them one per
  // flush, so multi-segment writes still work end to end.
  BatchProxyFixture f(batched_config());
  f.up();
  const std::string big = pattern(5 << 20);  // 3 segments: 2+2+1 MB
  run_sim(f.env, [&] {
    os::Transaction t;
    t.write_full(kColl, {1, "big"}, BufferList::copy_of(big));
    ASSERT_TRUE(f.commit_all({std::move(t)}).ok());
    auto r = f.proxy->read(kColl, {1, "big"}, 0, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), big);
  });
  f.down();
}

TEST(DmaBatching, PerExtentFaultFailsOneWriteOthersSurvive) {
  BatchProxyFixture f(batched_config());
  f.up();
  const std::string payload = pattern(64 << 10);
  run_sim(f.env, [&] {
    std::vector<os::Transaction> colls;
    for (int i = 0; i < 4; ++i) {
      os::Transaction t;
      t.create_collection({2, static_cast<std::uint32_t>(i)});
      colls.push_back(std::move(t));
    }
    ASSERT_TRUE(f.commit_all(std::move(colls)).ok());
    // Fail extent 1 of the DPU engine's next SG pass: exactly one member
    // of the coalesced batch re-routes through fallback; the rest land.
    // (Spread across collections so the writes actually coalesce.)
    f.env.faults().fire_next("doca.dma_error", 1, "dpu-0#1");
    std::vector<os::Transaction> txns;
    for (int i = 0; i < 4; ++i) {
      os::Transaction t;
      t.write_full({2, static_cast<std::uint32_t>(i)}, {1, "f" + std::to_string(i)},
                   BufferList::copy_of(payload));
      txns.push_back(std::move(t));
    }
    ASSERT_TRUE(f.commit_all(std::move(txns)).ok());
    for (int i = 0; i < 4; ++i) {
      auto r = f.proxy->read({2, static_cast<std::uint32_t>(i)},
                             {1, "f" + std::to_string(i)}, 0, 0);
      ASSERT_TRUE(r.ok()) << r.status().to_string();
      EXPECT_EQ(r->to_string(), payload);
    }
  });
  // The faulted extent went through the RPC fallback path.
  EXPECT_GT(f.proxy->rpc_fallback_bytes(), 0u);
  f.down();
}

// ---- determinism --------------------------------------------------------------

std::string traced_batched_run(std::uint64_t seed) {
  Env env(TimeKeeper::Mode::virtual_time, seed);
  env.tracer().set_sample_every(1);
  net::Fabric fabric(env);
  CpuDomain host_cpu(env.keeper(), "host-0", 8, 1.0);
  dpu::DpuDevice dpu(env, fabric, "dpu-0", dpu::DpuProfile{});
  bluestore::BlueStoreConfig scfg;
  scfg.device.size_bytes = 4ull << 30;
  bluestore::BlueStore store(env, &host_cpu, scfg);
  auto proxy = std::make_unique<ProxyObjectStore>(env, dpu, batched_config());
  HostBackendService backend(env, host_cpu, store, dpu.host_comch(),
                             proxy->slots().host_mmap());
  run_sim(env, [&] {
    ASSERT_TRUE(store.mkfs().ok());
    ASSERT_TRUE(store.mount().ok());
    ASSERT_TRUE(backend.start().ok());
    ASSERT_TRUE(proxy->mount().ok());
    std::mutex m;
    CondVar cv(env.keeper());
    std::size_t done = 0;
    constexpr int kOps = 8;
    {
      os::Transaction t;
      t.create_collection(kColl);
      proxy->queue_transaction(std::move(t), [&](Status st) {
        ASSERT_TRUE(st.ok());
        const std::lock_guard<std::mutex> lk(m);
        ++done;
        cv.notify_all();
      });
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return done == 1; });
    }
    const std::string payload = pattern(96 << 10);
    for (int i = 0; i < kOps; ++i) {
      os::Transaction t;
      t.set_trace(env.tracer().root_context(0x1000u + static_cast<std::uint64_t>(i)));
      t.write_full(kColl, {1, "d" + std::to_string(i)},
                   BufferList::copy_of(payload));
      proxy->queue_transaction(std::move(t), [&](Status st) {
        ASSERT_TRUE(st.ok());
        const std::lock_guard<std::mutex> lk(m);
        ++done;
        cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == kOps + 1; });
    ASSERT_TRUE(proxy->umount().ok());
    ASSERT_TRUE(store.umount().ok());
    backend.shutdown();
  });
  return env.tracer().dump_chrome_json();
}

TEST(DmaBatching, SameSeedTraceDumpsAreByteIdentical) {
  const std::string a = traced_batched_run(1234);
  const std::string b = traced_batched_run(1234);
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.find("dpu.batch"), std::string::npos);  // batch spans present
  EXPECT_EQ(a, b);
  // A different seed salts ids differently (sanity that the comparison is
  // not vacuous).
  const std::string c = traced_batched_run(99);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace doceph::proxy
