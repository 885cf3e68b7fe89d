// Read-path (paper §5.5 extension) unit coverage on the single-node proxy
// stack: inline vs DMA returns, offsets, fallback interplay, and staging reuse.
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
const os::ghobject_t kObj{1, "robj"};

struct ReadFixture {
  Env env;
  net::Fabric fabric{env};
  CpuDomain host_cpu{env.keeper(), "host-0", 8, 1.0};
  dpu::DpuDevice dpu;
  std::unique_ptr<bluestore::BlueStore> store;
  std::unique_ptr<HostBackendService> backend;
  std::unique_ptr<ProxyObjectStore> proxy;

  explicit ReadFixture(ProxyConfig pcfg = {}, dpu::DpuProfile prof = {})
      : dpu(env, fabric, "dpu-0", prof) {
    bluestore::BlueStoreConfig scfg;
    scfg.device.size_bytes = 2ull << 30;
    store = std::make_unique<bluestore::BlueStore>(env, &host_cpu, scfg);
    proxy = std::make_unique<ProxyObjectStore>(env, dpu, pcfg);
    backend = std::make_unique<HostBackendService>(
        env, host_cpu, *store, dpu.host_comch(), proxy->slots().host_mmap());
  }

  /// Bring the node up and write kObj, through the proxy or, with
  /// `through_proxy` false, straight into the host store (no DMA job).
  void up_with(const std::string& content, bool through_proxy = true) {
    run_sim(env, [&] {
      ASSERT_TRUE(store->mkfs().ok());
      ASSERT_TRUE(store->mount().ok());
      ASSERT_TRUE(backend->start().ok());
      ASSERT_TRUE(proxy->mount().ok());
      os::Transaction t;
      t.create_collection(kColl);
      t.write_full(kColl, kObj, BufferList::copy_of(content));
      std::mutex m;
      CondVar cv(env.keeper());
      bool done = false;
      os::ObjectStore& via =
          through_proxy ? static_cast<os::ObjectStore&>(*proxy) : *store;
      via.queue_transaction(std::move(t), [&](Status st) {
        ASSERT_TRUE(st.ok());
        const std::lock_guard<std::mutex> lk(m);
        done = true;
        cv.notify_all();
      });
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return done; });
    });
  }

  /// Nothing leaked: every paired byte and every landing byte is free.
  void expect_staging_free() const {
    EXPECT_EQ(proxy->slots().free_bytes(), proxy->slots().capacity());
    EXPECT_EQ(proxy->slots().landing_free_bytes(), proxy->slots().landing_capacity());
  }

  void down() {
    run_sim(env, [&] {
      ASSERT_TRUE(proxy->umount().ok());
      ASSERT_TRUE(store->umount().ok());
      backend->shutdown();
    });
  }
};

TEST(ProxyReads, TinyReadStaysInline) {
  ReadFixture f;
  f.up_with("small content");
  run_sim(f.env, [&] {
    const auto jobs0 = f.dpu.dma().jobs_completed();
    auto r = f.proxy->read(kColl, kObj, 0, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), "small content");
    EXPECT_EQ(f.dpu.dma().jobs_completed(), jobs0);  // inline, no DMA
  });
  f.down();
}

TEST(ProxyReads, ExactInlineBoundary) {
  ReadFixture f;
  const std::string content = pattern(4096);  // == inline_read_max
  f.up_with(content);
  run_sim(f.env, [&] {
    const auto jobs0 = f.dpu.dma().jobs_completed();
    auto r = f.proxy->read(kColl, kObj, 0, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), content);
    EXPECT_EQ(f.dpu.dma().jobs_completed(), jobs0);
    auto r2 = f.proxy->read(kColl, kObj, 4095, 10);  // clamped 1-byte tail
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r2->length(), 1u);
  });
  f.down();
}

TEST(ProxyReads, LargeReadUsesDmaAndMatches) {
  ReadFixture f;
  const std::string content = pattern(5 << 20, 9);
  f.up_with(content);
  run_sim(f.env, [&] {
    const auto jobs0 = f.dpu.dma().jobs_completed();
    auto r = f.proxy->read(kColl, kObj, 0, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), content);
    EXPECT_GT(f.dpu.dma().jobs_completed(), jobs0);
  });
  f.down();
}

TEST(ProxyReads, OffsetRangesAcrossSegmentBoundaries) {
  ReadFixture f;
  const std::string content = pattern(6 << 20, 4);
  f.up_with(content);
  run_sim(f.env, [&] {
    for (const auto [off, len] :
         {std::pair<std::size_t, std::size_t>{0, 100},
          {2 << 20, 4096},            // exactly at a segment boundary
          {(2 << 20) - 50, 100},      // straddles it
          {(6 << 20) - 10, 100}}) {   // clamped tail
      auto r = f.proxy->read(kColl, kObj, off, len);
      ASSERT_TRUE(r.ok()) << off;
      EXPECT_EQ(r->to_string(), content.substr(off, len)) << off;
    }
  });
  f.down();
}

TEST(ProxyReads, ReadDuringCooldownFallsBackInline) {
  ProxyConfig cfg;
  cfg.cooldown = 10'000'000'000;  // long cooldown: stay on RPC
  ReadFixture f(cfg);
  const std::string content = pattern(3 << 20, 7);
  f.up_with(content);
  run_sim(f.env, [&] {
    f.proxy->fallback().on_dma_failure(f.env.now());
    ASSERT_FALSE(f.proxy->fallback().dma_enabled());
    const auto jobs0 = f.dpu.dma().jobs_completed();
    auto r = f.proxy->read(kColl, kObj, 0, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), content);              // correct...
    EXPECT_EQ(f.dpu.dma().jobs_completed(), jobs0);  // ...without touching DMA
  });
  f.down();
}

TEST(ProxyReads, DmaErrorMidReadFallsBackInline) {
  // 5 MiB comes back in three DMA jobs (2 + 2 + 1 MiB) and the second one
  // fails: the read re-sends the data over RPC instead (DESIGN.md §4.5).
  ReadFixture f;
  const std::string content = pattern(5 << 20, 5);
  f.up_with(content);
  run_sim(f.env, [&] {
    fault::FaultSpec spec;
    spec.fire_at_hit = 2;
    spec.count = 1;
    spec.match = "dpu-0";
    f.env.faults().set("doca.dma_error", spec);
    const auto failed0 = f.dpu.dma().jobs_failed();
    auto r = f.proxy->read(kColl, kObj, 0, 0);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r->to_string(), content);
    EXPECT_EQ(f.dpu.dma().jobs_failed(), failed0 + 1);
    EXPECT_EQ(f.proxy->fallback().failures(), 1u);
    EXPECT_GT(f.proxy->rpc_fallback_bytes(), 0u);
    f.expect_staging_free();
  });
  f.down();
}

TEST(ProxyReads, DmaQueueFullMidReadWaitsThenFallsBack) {
  // A two-deep engine queue takes the first two of the read's three jobs and
  // refuses the third: the read waits both out before it withdraws its
  // extent, then re-sends inline. (The object is preloaded straight into
  // the host store: a proxy write would queue three jobs of its own.)
  dpu::DpuProfile prof;
  prof.dma.queue_depth = 2;
  ReadFixture f({}, prof);
  const std::string content = pattern(5 << 20, 6);
  f.up_with(content, /*through_proxy=*/false);
  run_sim(f.env, [&] {
    ASSERT_EQ(f.proxy->fallback().failures(), 0u);
    const auto jobs0 = f.dpu.dma().jobs_completed();
    auto r = f.proxy->read(kColl, kObj, 0, 0);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r->to_string(), content);
    EXPECT_EQ(f.dpu.dma().jobs_completed(), jobs0 + 2);
    EXPECT_EQ(f.dpu.dma().inflight(), 0);
    EXPECT_EQ(f.proxy->fallback().failures(), 1u);
    f.expect_staging_free();
  });
  f.down();
}

TEST(ProxyReads, StagingIsReleasedAfterReads) {
  ProxyConfig cfg;
  cfg.slots = 2;
  ReadFixture f(cfg);
  const std::string content = pattern(4 << 20, 3);
  f.up_with(content);
  run_sim(f.env, [&] {
    // Many sequential large reads through a 2-segment arena: leaks would wedge.
    for (int i = 0; i < 10; ++i) {
      auto r = f.proxy->read(kColl, kObj, 0, 0);
      ASSERT_TRUE(r.ok()) << i;
      ASSERT_EQ(r->length(), content.size()) << i;
    }
    f.expect_staging_free();
  });
  f.down();
}

TEST(ProxyReads, ReadQueuesFifoWithWriteSegments) {
  // A 1-slot arena holds exactly one 2 MiB segment. A 1 MiB read issued
  // while a 2 MiB write segment holds the arena is filled at the host
  // meanwhile, then its DMA leg waits for the segment (no inline fallback);
  // a write issued after the read's reply queued is served after it. A
  // 20 ms job setup keeps the first segment in the arena long after the
  // ~2 ms SSD read.
  ProxyConfig cfg;
  cfg.slots = 1;
  dpu::DpuProfile prof;
  prof.dma.setup_latency = 20'000'000;
  ReadFixture f(cfg, prof);
  const std::string content = pattern(1 << 20, 8);
  f.up_with(content);
  Time first_at = -1;
  Time read_at = -1;
  Time second_at = -1;
  Result<BufferList> got = BufferList{};
  run_sim(f.env, [&] {
    const auto wait0 = f.proxy->slots().total_wait_ns();
    const auto jobs0 = f.dpu.dma().jobs_completed();
    const auto write = [&](const os::coll_t& c, const char* name, Time& at) {
      os::Transaction t;
      t.create_collection(c);
      t.write_full(c, {1, name}, BufferList::copy_of(pattern(2 << 20, 2)));
      f.proxy->queue_transaction(std::move(t), [&](Status st) {
        EXPECT_TRUE(st.ok()) << st.to_string();
        at = f.env.now();
      });
    };
    write(os::coll_t{1, 2}, "first", first_at);
    f.env.keeper().sleep_for(10'000);  // the first segment holds the arena
    f.proxy->read_async(kColl, kObj, 0, 1 << 20, [&](Result<BufferList> r) {
      got = std::move(r);
      read_at = f.env.now();
    });
    f.env.keeper().sleep_for(10'000'000);  // the reply is back; its DMA leg queued
    EXPECT_LT(first_at, 0);
    EXPECT_LT(read_at, 0);
    EXPECT_EQ(f.proxy->slots().free_bytes(), 0u);
    write(os::coll_t{1, 1}, "second", second_at);
    f.env.keeper().sleep_for(200'000'000);
    EXPECT_GT(f.proxy->slots().total_wait_ns(), wait0);
    // Two write segments and the read's one job: no byte rode inline.
    EXPECT_EQ(f.dpu.dma().jobs_completed(), jobs0 + 3);
  });
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(got->to_string(), content);
  EXPECT_GT(read_at, first_at);
  EXPECT_GT(first_at, 0);
  EXPECT_GT(second_at, read_at);  // FIFO: queued after the read, served after it
  f.expect_staging_free();
  f.down();
}

TEST(ProxyReads, ReadSeesAWriteOfItsPgQueuedBeforeIt) {
  // The write's payload takes the DMA path while the read would reach the
  // host straight away: the read waits for the write its PG queued first,
  // as a BlueStore read sees every transaction queued before it.
  ReadFixture f;
  f.up_with(pattern(1 << 20, 1));
  Result<BufferList> got = BufferList{};
  Time write_at = -1;
  Time read_at = -1;
  run_sim(f.env, [&] {
    os::Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(pattern(1 << 20, 2)));
    f.proxy->queue_transaction(std::move(t), [&](Status st) {
      EXPECT_TRUE(st.ok()) << st.to_string();
      write_at = f.env.now();
    });
    got = f.proxy->read(kColl, kObj, 0, 0);
    read_at = f.env.now();
  });
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(got->to_string(), pattern(1 << 20, 2));
  EXPECT_GT(write_at, 0);
  EXPECT_GE(read_at, write_at);
  f.expect_staging_free();
  f.down();
}

TEST(ProxyReads, ReadWaitsForEveryEarlierWriteEvenIfTheLastFinishesFirst) {
  // Two writes of the read's PG are in flight when it arrives. The first
  // one's SSD write stalls for 50 ms. The second one's first stage_segment
  // message is lost, so the host fails its submit at once, long before the
  // first write commits. The read still waits for that commit and returns
  // the first write's bytes.
  ReadFixture f;
  f.up_with(pattern(1 << 20, 1));
  Result<BufferList> got = BufferList{};
  Time first_at = -1;
  Time second_at = -1;
  Time read_at = -1;
  run_sim(f.env, [&] {
    fault::FaultSpec spike;
    spike.probability = 1.0;
    spike.count = 1;
    spike.delay_ns = 50'000'000;
    f.env.faults().set("bdev.latency_spike", spike);
    // DPU -> host messages from here: the first write's stage + submit,
    // then the second's lone stage of its first segment (dropped).
    fault::FaultSpec drop;
    drop.fire_at_hit = 2;
    drop.count = 1;
    drop.match = "/d2h";
    f.env.faults().set("doca.comch_drop", drop);
    os::Transaction first;
    first.write_full(kColl, kObj, BufferList::copy_of(pattern(1 << 20, 2)));
    f.proxy->queue_transaction(std::move(first), [&](Status st) {
      EXPECT_TRUE(st.ok()) << st.to_string();
      first_at = f.env.now();
    });
    os::Transaction second;
    second.write_full(kColl, {1, "tail"}, BufferList::copy_of(pattern(3 << 20, 3)));
    f.proxy->queue_transaction(std::move(second), [&](Status st) {
      EXPECT_EQ(st.code(), Errc::corrupt) << st.to_string();
      second_at = f.env.now();
    });
    got = f.proxy->read(kColl, kObj, 0, 0);
    read_at = f.env.now();
    EXPECT_EQ(f.env.faults().fires("doca.comch_drop"), 1u);
    EXPECT_EQ(f.env.faults().fires("bdev.latency_spike"), 1u);
    f.env.faults().clear_all();
  });
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(got->to_string(), pattern(1 << 20, 2));
  EXPECT_GT(second_at, 0);
  EXPECT_LT(second_at, first_at);
  EXPECT_GE(read_at, first_at);
  f.expect_staging_free();
  f.down();
}

TEST(ProxyReads, ReadAtTheHostHoldsNoPairedBytes) {
  // The host's SSD read stalls for 50 ms. Meanwhile the read holds only its
  // landing extent, so a 2 MiB write segment takes the whole 1-slot arena
  // without queueing.
  ProxyConfig cfg;
  cfg.slots = 1;
  ReadFixture f(cfg);
  const std::string content = pattern(1 << 20, 5);
  f.up_with(content);
  Time read_at = -1;
  Time write_at = -1;
  Result<BufferList> got = BufferList{};
  run_sim(f.env, [&] {
    const auto wait0 = f.proxy->slots().total_wait_ns();
    fault::FaultSpec spike;
    spike.probability = 1.0;
    spike.count = 1;
    spike.delay_ns = 50'000'000;
    f.env.faults().set("bdev.latency_spike", spike);
    const Time t0 = f.env.now();
    f.proxy->read_async(kColl, kObj, 0, 1 << 20, [&](Result<BufferList> r) {
      got = std::move(r);
      read_at = f.env.now();
    });
    f.env.keeper().sleep_for(5'000'000);
    EXPECT_EQ(f.proxy->slots().free_bytes(), f.proxy->slots().capacity());
    EXPECT_EQ(f.proxy->slots().landing_free_bytes(),
              f.proxy->slots().landing_capacity() - (1 << 20));
    os::Transaction t;
    t.create_collection(os::coll_t{1, 1});
    t.write_full(os::coll_t{1, 1}, {1, "w"}, BufferList::copy_of(pattern(2 << 20, 6)));
    f.proxy->queue_transaction(std::move(t), [&](Status st) {
      EXPECT_TRUE(st.ok()) << st.to_string();
      write_at = f.env.now();
    });
    f.env.keeper().sleep_for(30'000'000);
    EXPECT_GT(write_at, 0);
    EXPECT_LT(read_at, 0);  // still stalled at the host
    EXPECT_EQ(f.proxy->slots().total_wait_ns(), wait0);
    f.env.keeper().sleep_for(100'000'000);
    EXPECT_GE(read_at - t0, 50'000'000);
    EXPECT_EQ(f.env.faults().fires("bdev.latency_spike"), 1u);
    f.env.faults().clear_all();
  });
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(got->to_string(), content);
  f.expect_staging_free();
  f.down();
}

TEST(ProxyReads, DeadlineWhileQueuedForTheDmaLegReturnsBothExtents) {
  // The test holds the whole arena, so the read's reply finds no room for
  // its DMA leg and its 20 ms deadline fires in the queue. The landing comes
  // back at once; the paired extent comes back as soon as it is granted.
  ProxyConfig cfg;
  cfg.slots = 1;
  cfg.rpc_timeout = 20'000'000;
  ReadFixture f(cfg);
  const std::string content = pattern(1 << 20, 7);
  f.up_with(content);
  auto& arena = f.proxy->slots();
  Result<BufferList> got = BufferList{};
  run_sim(f.env, [&] {
    const auto wait0 = arena.total_wait_ns();
    std::size_t held = arena.capacity();
    arena.reserve_async(arena.capacity(), [&](std::size_t off) { held = off; });
    ASSERT_EQ(held, 0u);
    f.proxy->read_async(kColl, kObj, 0, 1 << 20,
                        [&](Result<BufferList> r) { got = std::move(r); });
    f.env.keeper().sleep_for(40'000'000);
    EXPECT_EQ(got.status().code(), Errc::timed_out);
    EXPECT_EQ(arena.landing_free_bytes(), arena.landing_capacity());
    EXPECT_EQ(arena.free_bytes(), 0u);
    arena.release(held, arena.capacity());  // grants the dead read's extent
    f.env.keeper().sleep_for(1'000'000);
    EXPECT_GT(arena.total_wait_ns(), wait0);
    f.expect_staging_free();
  });
  f.down();
}

TEST(ProxyReads, WholeObjectReadReservesOnlyTheObjectsBytes) {
  // A len-0 read learns the object's size first: next to a 1 MiB read it
  // takes the other half of a 2 MiB arena instead of queueing for all of it.
  ProxyConfig cfg;
  cfg.slots = 1;
  ReadFixture f(cfg);
  const std::string content = pattern(1 << 20, 4);
  f.up_with(content);
  std::vector<Result<BufferList>> got;
  run_sim(f.env, [&] {
    const auto wait0 = f.proxy->slots().total_wait_ns();
    for (const std::uint64_t len : {std::uint64_t{1} << 20, std::uint64_t{0}}) {
      f.proxy->read_async(kColl, kObj, 0, len,
                          [&](Result<BufferList> r) { got.push_back(std::move(r)); });
    }
    f.env.keeper().sleep_for(100'000'000);
    EXPECT_EQ(f.proxy->slots().total_wait_ns(), wait0);
  });
  ASSERT_EQ(got.size(), 2u);
  for (const auto& r : got) {
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r->to_string(), content);
  }
  f.expect_staging_free();
  f.down();
}

TEST(ProxyReads, MissingObjectPropagatesNotFound) {
  ReadFixture f;
  f.up_with("x");
  run_sim(f.env, [&] {
    auto r = f.proxy->read(kColl, {1, "nope"}, 0, 0);
    EXPECT_EQ(r.status().code(), Errc::not_found);
  });
  f.down();
}

}  // namespace
}  // namespace doceph::proxy
