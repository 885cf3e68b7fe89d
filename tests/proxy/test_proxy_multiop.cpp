// Multi-op transactions through the full DoCeph data path: one transaction
// touching several objects with mixed payload sizes (inline + staged DMA
// segments) plus omap — must commit atomically on the host store.
#include <gtest/gtest.h>

#include "../test_util.h"
#include "bluestore/bluestore.h"
#include "proxy/host_backend.h"
#include "proxy/proxy_object_store.h"

namespace doceph::proxy {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

const os::coll_t kColl{1, 0};

struct MultiFixture {
  Env env;
  net::Fabric fabric{env};
  CpuDomain host_cpu{env.keeper(), "host-0", 8, 1.0};
  dpu::DpuDevice dpu{env, fabric, "dpu-0", dpu::DpuProfile{}};
  std::unique_ptr<bluestore::BlueStore> store;
  std::unique_ptr<HostBackendService> backend;
  std::unique_ptr<ProxyObjectStore> proxy;

  MultiFixture() {
    bluestore::BlueStoreConfig scfg;
    scfg.device.size_bytes = 2ull << 30;
    store = std::make_unique<bluestore::BlueStore>(env, &host_cpu, scfg);
    proxy = std::make_unique<ProxyObjectStore>(env, dpu, ProxyConfig{});
    backend = std::make_unique<HostBackendService>(
        env, host_cpu, *store, dpu.host_comch(), proxy->slots().host_mmap());
  }

  void up() {
    run_sim(env, [&] {
      ASSERT_TRUE(store->mkfs().ok());
      ASSERT_TRUE(store->mount().ok());
      ASSERT_TRUE(backend->start().ok());
      ASSERT_TRUE(proxy->mount().ok());
    });
  }
  void down() {
    run_sim(env, [&] {
      ASSERT_TRUE(proxy->umount().ok());
      ASSERT_TRUE(store->umount().ok());
      backend->shutdown();
    });
  }

  Status commit(os::Transaction t) {
    Status out;
    run_sim(env, [&] {
      std::mutex m;
      CondVar cv(env.keeper());
      bool done = false;
      proxy->queue_transaction(std::move(t), [&](Status st) {
        const std::lock_guard<std::mutex> lk(m);
        out = st;
        done = true;
        cv.notify_all();
      });
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return done; });
    });
    return out;
  }
};

TEST(ProxyMultiOp, MixedSizesAndOmapInOneTransaction) {
  MultiFixture f;
  f.up();
  const std::string big = pattern(5 << 20, 1);     // 3 staged segments
  const std::string mid = pattern(100 << 10, 2);   // 1 staged segment
  os::Transaction t;
  t.create_collection(kColl);
  t.write_full(kColl, {1, "big"}, BufferList::copy_of(big));
  t.write_full(kColl, {1, "mid"}, BufferList::copy_of(mid));
  t.touch(kColl, {1, "meta"});
  t.omap_set(kColl, {1, "meta"}, {{"owner", BufferList::copy_of("multiop")}});
  ASSERT_TRUE(f.commit(std::move(t)).ok());

  run_sim(f.env, [&] {
    EXPECT_EQ(f.store->read(kColl, {1, "big"}, 0, 0)->to_string(), big);
    EXPECT_EQ(f.store->read(kColl, {1, "mid"}, 0, 0)->to_string(), mid);
    EXPECT_EQ(f.store->omap_get(kColl, {1, "meta"})->at("owner").to_string(),
              "multiop");
    // And the proxy's own view agrees.
    auto objs = f.proxy->list_objects(kColl);
    ASSERT_TRUE(objs.ok());
    EXPECT_EQ(objs->size(), 3u);
  });
  f.down();
}

TEST(ProxyMultiOp, WholeTransactionInlineWhenTiny) {
  MultiFixture f;
  f.up();
  os::Transaction t;
  t.create_collection(kColl);
  t.write_full(kColl, {1, "a"}, BufferList::copy_of("aa"));
  t.write_full(kColl, {1, "b"}, BufferList::copy_of("bb"));
  ASSERT_TRUE(f.commit(std::move(t)).ok());
  EXPECT_EQ(f.dpu.dma().jobs_completed(), 0u);  // under inline_write_max
  run_sim(f.env, [&] {
    EXPECT_EQ(f.store->read(kColl, {1, "a"}, 0, 0)->to_string(), "aa");
    EXPECT_EQ(f.store->read(kColl, {1, "b"}, 0, 0)->to_string(), "bb");
  });
  f.down();
}

TEST(ProxyMultiOp, WriteThenRemoveInOneTransaction) {
  MultiFixture f;
  f.up();
  os::Transaction t;
  t.create_collection(kColl);
  t.write_full(kColl, {1, "ephemeral"}, BufferList::copy_of(pattern(3 << 20)));
  t.remove(kColl, {1, "ephemeral"});
  t.write_full(kColl, {1, "kept"}, BufferList::copy_of("still here"));
  ASSERT_TRUE(f.commit(std::move(t)).ok());
  run_sim(f.env, [&] {
    EXPECT_FALSE(f.store->exists(kColl, {1, "ephemeral"}));
    EXPECT_EQ(f.store->read(kColl, {1, "kept"}, 0, 0)->to_string(), "still here");
  });
  f.down();
}

TEST(ProxyMultiOp, FailedTransactionReportsError) {
  MultiFixture f;
  f.up();
  // No create_collection: the host store must reject and the error must
  // travel back across the proxy.
  os::Transaction t;
  t.write_full({9, 9}, {9, "orphan"}, BufferList::copy_of(pattern(3 << 20)));
  const Status st = f.commit(std::move(t));
  EXPECT_EQ(st.code(), Errc::not_found);
  f.down();
}

}  // namespace
}  // namespace doceph::proxy
