#include "proxy/proxy_object_store.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "bluestore/bluestore.h"
#include "proxy/host_backend.h"

namespace doceph::proxy {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

const os::coll_t kColl{1, 0};
const os::ghobject_t kObj{1, "obj"};

/// DPU + host BlueStore + backend + proxy — the full DoCeph storage path of
/// one node, without the OSD on top.
struct ProxyFixture {
  Env env;
  net::Fabric fabric{env};
  CpuDomain host_cpu{env.keeper(), "host-0", 8, 1.0};
  dpu::DpuDevice dpu{env, fabric, "dpu-0", dpu::DpuProfile{}};
  std::unique_ptr<bluestore::BlueStore> store;
  std::unique_ptr<HostBackendService> backend;
  std::unique_ptr<ProxyObjectStore> proxy;

  explicit ProxyFixture(ProxyConfig pcfg = {}) {
    bluestore::BlueStoreConfig scfg;
    scfg.device.size_bytes = 4ull << 30;
    store = std::make_unique<bluestore::BlueStore>(env, &host_cpu, scfg);
    proxy = std::make_unique<ProxyObjectStore>(env, dpu, pcfg);
    backend = std::make_unique<HostBackendService>(
        env, host_cpu, *store, dpu.host_comch(), proxy->slots().host_mmap());
  }

  void up() {
    run_sim(env, [&] {
      ASSERT_TRUE(store->mkfs().ok());
      ASSERT_TRUE(store->mount().ok());
      ASSERT_TRUE(backend->start().ok());
      ASSERT_TRUE(proxy->mount().ok());
      Status st = commit(make_coll());
      ASSERT_TRUE(st.ok()) << st.to_string();
    });
  }

  void down() {
    run_sim(env, [&] {
      ASSERT_TRUE(proxy->umount().ok());
      ASSERT_TRUE(store->umount().ok());
      backend->shutdown();
    });
  }

  static os::Transaction make_coll() {
    os::Transaction t;
    t.create_collection(kColl);
    return t;
  }

  Status commit(os::Transaction t) {
    std::mutex m;
    CondVar cv(env.keeper());
    bool done = false;
    Status out;
    proxy->queue_transaction(std::move(t), [&](Status st) {
      const std::lock_guard<std::mutex> lk(m);
      out = st;
      done = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done; });
    return out;
  }
};

TEST(Proxy, SmallWriteInlineRoundTrip) {
  ProxyFixture f;
  f.up();
  run_sim(f.env, [&] {
    os::Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of("small payload"));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    // Visible on the host store directly...
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), "small payload");
    // ...and through the proxy read path.
    auto r = f.proxy->read(kColl, kObj, 0, 0);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r->to_string(), "small payload");
  });
  EXPECT_EQ(f.dpu.dma().jobs_completed(), 0u);  // tiny payload: no DMA round
  f.down();
}

TEST(Proxy, LargeWriteUsesDmaSegments) {
  ProxyFixture f;
  f.up();
  const std::string big = pattern(7 << 20);  // 7 MB -> 4 segments at 2 MB
  run_sim(f.env, [&] {
    os::Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(big));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), big);
  });
  EXPECT_EQ(f.dpu.dma().jobs_completed(), 4u);
  EXPECT_EQ(f.proxy->dma_bytes(), big.size());
  EXPECT_EQ(f.backend->txns_applied(), 2u);  // create_collection + the write
  const auto bd = f.proxy->breakdown();
  EXPECT_EQ(bd.count, 1u);
  EXPECT_GT(bd.dma_ns, 0u);
  EXPECT_GT(bd.host_write_ns, 0u);
  EXPECT_GT(bd.total_ns, bd.dma_ns);
  f.down();
}

TEST(Proxy, LargeReadComesBackOverDma) {
  ProxyFixture f;
  f.up();
  const std::string big = pattern(5 << 20, 3);
  run_sim(f.env, [&] {
    os::Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(big));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    const auto jobs_before = f.dpu.dma().jobs_completed();
    auto r = f.proxy->read(kColl, kObj, 0, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), big);
    EXPECT_GT(f.dpu.dma().jobs_completed(), jobs_before);  // host->dpu transfers
    // Partial read.
    auto mid = f.proxy->read(kColl, kObj, 1 << 20, 4096);
    ASSERT_TRUE(mid.ok());
    EXPECT_EQ(mid->to_string(), big.substr(1 << 20, 4096));
  });
  f.down();
}

TEST(Proxy, ControlPlaneOps) {
  ProxyFixture f;
  f.up();
  run_sim(f.env, [&] {
    os::Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of("x"));
    t.omap_set(kColl, kObj, {{"k", BufferList::copy_of("v")}});
    ASSERT_TRUE(f.commit(std::move(t)).ok());

    EXPECT_TRUE(f.proxy->exists(kColl, kObj));
    EXPECT_FALSE(f.proxy->exists(kColl, {1, "nope"}));
    auto st = f.proxy->stat(kColl, kObj);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, 1u);
    auto omap = f.proxy->omap_get(kColl, kObj);
    ASSERT_TRUE(omap.ok());
    EXPECT_EQ(omap->at("k").to_string(), "v");
    auto objs = f.proxy->list_objects(kColl);
    ASSERT_TRUE(objs.ok());
    EXPECT_EQ(objs->size(), 1u);
    EXPECT_TRUE(f.proxy->collection_exists(kColl));
    EXPECT_FALSE(f.proxy->collection_exists({9, 9}));
    EXPECT_EQ(f.proxy->list_collections().size(), 1u);
    EXPECT_EQ(f.proxy->stat(kColl, {1, "nope"}).status().code(), Errc::not_found);
  });
  EXPECT_GT(f.backend->control_rpcs(), 5u);
  f.down();
}

TEST(Proxy, FailedSegmentAloneIsResentInline) {
  // Four 2 MiB segments; the last one's DMA fails. The three the host
  // already staged stay staged: only the failed one rides over RPC.
  ProxyFixture f;
  f.up();
  const std::string big = pattern(4 * (2 << 20), 11);
  run_sim(f.env, [&] {
    fault::FaultSpec spec;
    spec.fire_at_hit = 4;
    spec.count = 1;
    spec.match = "dpu-0";
    f.env.faults().set("doca.dma_error", spec);
    const auto failed0 = f.dpu.dma().jobs_failed();
    os::Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(big));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    EXPECT_EQ(f.dpu.dma().jobs_failed(), failed0 + 1);
    EXPECT_EQ(f.proxy->rpc_fallback_bytes(), 2u << 20);
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), big);
  });
  f.down();
}

TEST(Proxy, DmaFailureFallsBackToRpcAndRecovers) {
  ProxyConfig cfg;
  cfg.cooldown = 50'000'000;  // 50 ms for a fast test
  ProxyFixture f(cfg);
  f.up();
  const std::string big = pattern(4 << 20, 9);
  f.dpu.dma().fail_next(1);
  run_sim(f.env, [&] {
    // First write hits the injected DMA failure -> inline fallback, still
    // commits correctly.
    os::Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(big));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), big);
    EXPECT_FALSE(f.proxy->fallback().dma_enabled());
    EXPECT_GT(f.proxy->rpc_fallback_bytes(), 0u);

    // During cooldown, writes route over RPC.
    const auto dma_bytes_before = f.proxy->dma_bytes();
    os::Transaction t2;
    t2.write_full(kColl, {1, "during-cooldown"}, BufferList::copy_of(pattern(3 << 20, 4)));
    ASSERT_TRUE(f.commit(std::move(t2)).ok());
    EXPECT_EQ(f.proxy->dma_bytes(), dma_bytes_before);

    // After cooldown a probe re-enables DMA.
    f.env.keeper().sleep_for(60'000'000);
    os::Transaction t3;
    t3.write_full(kColl, {1, "after-cooldown"}, BufferList::copy_of(pattern(3 << 20, 5)));
    ASSERT_TRUE(f.commit(std::move(t3)).ok());
    EXPECT_TRUE(f.proxy->fallback().dma_enabled());
    EXPECT_GT(f.proxy->dma_bytes(), dma_bytes_before);
    EXPECT_EQ(f.store->read(kColl, {1, "after-cooldown"}, 0, 0)->to_string(),
              pattern(3 << 20, 5));
  });
  EXPECT_GE(f.proxy->fallback().failures(), 1u);
  f.down();
}

TEST(Proxy, ConcurrentWritersKeepPerObjectOrder) {
  ProxyFixture f;
  f.up();
  run_sim(f.env, [&] {
    std::mutex m;
    CondVar cv(f.env.keeper());
    int done = 0;
    constexpr int kN = 12;
    // Interleave: many objects written concurrently + one object written
    // twice in order.
    for (int i = 0; i < kN; ++i) {
      os::Transaction t;
      t.write_full(kColl, {1, "multi" + std::to_string(i)},
                   BufferList::copy_of(pattern(1 << 20, static_cast<unsigned>(i))));
      f.proxy->queue_transaction(std::move(t), [&](Status st) {
        EXPECT_TRUE(st.ok());
        const std::lock_guard<std::mutex> lk(m);
        ++done;
        cv.notify_all();
      });
    }
    os::Transaction first, second;
    first.write_full(kColl, kObj, BufferList::copy_of(pattern(3 << 20, 100)));
    second.write_full(kColl, kObj, BufferList::copy_of("FINAL"));
    auto bump = [&](Status st) {
      EXPECT_TRUE(st.ok());
      const std::lock_guard<std::mutex> lk(m);
      ++done;
      cv.notify_all();
    };
    f.proxy->queue_transaction(std::move(first), bump);
    f.proxy->queue_transaction(std::move(second), bump);

    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == kN + 2; });
    lk.unlock();

    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), "FINAL");
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(f.store->read(kColl, {1, "multi" + std::to_string(i)}, 0, 0)->to_string(),
                pattern(1 << 20, static_cast<unsigned>(i)));
    }
  });
  f.down();
}

TEST(Proxy, SmallWriteOnAnotherPgIsNotQueuedBehindALargeOne) {
  // The proxy orders writes within a PG only: a 16 KiB write to a second PG
  // must not wait for a 16 MiB write to the first.
  ProxyFixture f;
  f.up();
  const os::coll_t pg_a = kColl;
  const os::coll_t pg_b{1, 1};
  std::vector<std::string> committed;
  run_sim(f.env, [&] {
    os::Transaction mk;
    mk.create_collection(pg_b);
    ASSERT_TRUE(f.commit(std::move(mk)).ok());

    std::mutex m;
    CondVar cv(f.env.keeper());
    auto done = [&](const char* name) {
      return [&, name](Status st) {
        EXPECT_TRUE(st.ok()) << name << ": " << st.to_string();
        const std::lock_guard<std::mutex> lk(m);
        committed.emplace_back(name);
        cv.notify_all();
      };
    };
    os::Transaction big;
    big.write_full(pg_a, {1, "big"}, BufferList::copy_of(pattern(16 << 20, 1)));
    f.proxy->queue_transaction(std::move(big), done("big"));
    os::Transaction small;
    small.write_full(pg_b, {1, "small"}, BufferList::copy_of(pattern(16 << 10, 2)));
    f.proxy->queue_transaction(std::move(small), done("small"));

    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return committed.size() == 2; });
  });
  EXPECT_EQ(committed, (std::vector<std::string>{"small", "big"}));
  f.down();
}

TEST(Proxy, BreakdownAccumulatesAndResets) {
  ProxyFixture f;
  f.up();
  run_sim(f.env, [&] {
    for (int i = 0; i < 3; ++i) {
      os::Transaction t;
      t.write_full(kColl, {1, "bd" + std::to_string(i)},
                   BufferList::copy_of(pattern(2 << 20, static_cast<unsigned>(i))));
      ASSERT_TRUE(f.commit(std::move(t)).ok());
    }
  });
  auto bd = f.proxy->breakdown();
  EXPECT_EQ(bd.count, 3u);
  EXPECT_GT(bd.total_ns, 0u);
  EXPECT_GE(bd.avg(bd.total_ns),
            bd.avg(bd.dma_ns));  // total >= component
  f.proxy->reset_breakdown();
  EXPECT_EQ(f.proxy->breakdown().count, 0u);
  f.down();
}

TEST(Proxy, SubSegmentWritesOverlapInOneSegmentRegion) {
  // The paper's calibration: ONE segment's worth of staging region. Eight
  // 16 KiB writes on eight PGs (hence eight requests in flight) share it at
  // byte granularity, so their DMA setups overlap instead of taking turns.
  ProxyConfig cfg;
  cfg.slots = 1;
  ProxyFixture f(cfg);
  f.up();
  constexpr int kN = 8;
  Time elapsed = 0;
  run_sim(f.env, [&] {
    for (std::uint32_t pg = 1; pg < kN; ++pg) {
      os::Transaction t;
      t.create_collection({1, pg});
      ASSERT_TRUE(f.commit(std::move(t)).ok());
    }
    std::mutex m;
    CondVar cv(f.env.keeper());
    int done = 0;
    const Time t0 = f.env.now();
    for (std::uint32_t pg = 0; pg < kN; ++pg) {
      os::Transaction t;
      t.write_full({1, pg}, {1, "w" + std::to_string(pg)},
                   BufferList::copy_of(pattern(16 << 10, pg)));
      f.proxy->queue_transaction(std::move(t), [&](Status st) {
        EXPECT_TRUE(st.ok()) << st.to_string();
        const std::lock_guard<std::mutex> lk(m);
        ++done;
        cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == kN; });
    elapsed = f.env.now() - t0;
    for (std::uint32_t pg = 0; pg < kN; ++pg) {
      EXPECT_EQ(f.store->read({1, pg}, {1, "w" + std::to_string(pg)}, 0, 0)->to_string(),
                pattern(16 << 10, pg));
    }
  });
  EXPECT_EQ(f.dpu.dma().jobs_completed(), static_cast<std::uint64_t>(kN));
  EXPECT_LT(elapsed, 2 * f.dpu.dma().config().setup_latency);
  EXPECT_EQ(f.proxy->slots().free_bytes(), f.proxy->slots().capacity());
  f.down();
}

// ---- same-PG writes in flight together ----------------------------------------------

/// Arms a one-shot stall of `delay` on the next host-device IO.
void stall_next_device_io(Env& env, sim::Duration delay) {
  fault::FaultSpec spike;
  spike.probability = 1.0;
  spike.count = 1;
  spike.delay_ns = static_cast<std::uint64_t>(delay);
  env.faults().set("bdev.latency_spike", spike);
}

/// Named writes, in the order their commit callbacks fired.
struct Commits {
  std::mutex m;
  CondVar cv;
  std::vector<std::string> order;

  explicit Commits(Env& env) : cv(env.keeper()) {}

  ProxyObjectStore::OnCommit on(const std::string& name, std::function<void()> also = {}) {
    return [this, name, also](Status st) {
      EXPECT_TRUE(st.ok()) << name << ": " << st.to_string();
      if (also) also();
      const std::lock_guard<std::mutex> lk(m);
      order.push_back(name);
      cv.notify_all();
    };
  }

  void wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return order.size() == n; });
  }
};

TEST(ProxyPipelining, SamePgWriteStagesWhileItsPredecessorCommits) {
  // The first write's SSD write stalls for 50 ms. The second write to the
  // same PG starts as soon as the first one's submit has left, so its DMA
  // job is done long before the first commit; the host store's sequencer
  // still commits the two in queue order. The first write spans four
  // segments: a second write that started before the first one's submit
  // left would finish its DMA first, then submit, and commit, first.
  ProxyFixture f;
  f.up();
  Commits commits(f.env);
  std::uint64_t jobs_at_first_commit = 0;
  run_sim(f.env, [&] {
    const auto jobs0 = f.dpu.dma().jobs_completed();
    stall_next_device_io(f.env, 50'000'000);
    os::Transaction first;
    first.write_full(kColl, kObj, BufferList::copy_of(pattern(8 << 20, 1)));
    f.proxy->queue_transaction(std::move(first), commits.on("first", [&] {
      jobs_at_first_commit = f.dpu.dma().jobs_completed() - jobs0;
    }));
    os::Transaction second;
    second.write_full(kColl, kObj, BufferList::copy_of(pattern(1 << 20, 2)));
    f.proxy->queue_transaction(std::move(second), commits.on("second"));
    commits.wait_for(2);
    EXPECT_EQ(f.env.faults().fires("bdev.latency_spike"), 1u);
    f.env.faults().clear_all();
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), pattern(1 << 20, 2));
  });
  EXPECT_EQ(jobs_at_first_commit, 5u);  // the first's four segments and the second's one
  EXPECT_EQ(commits.order, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(f.proxy->slots().free_bytes(), f.proxy->slots().capacity());
  f.down();
}

TEST(ProxyPipelining, RmwWriteWaitsForItsPgAndDoesNotParkTheHostLoop) {
  // A partial write makes the host store wait for its collection's earlier
  // transactions and read the object before it applies. Behind a 1 MiB
  // write of its PG whose SSD write stalls for 50 ms, it starts only once
  // that write has committed, so the host loop never parks on it: a write
  // to another PG, queued once the partial write could have reached the
  // host, commits meanwhile.
  ProxyFixture f;
  f.up();
  const os::coll_t other{1, 1};
  const std::string patch = pattern(16 << 10, 2);
  Commits commits(f.env);
  std::uint64_t jobs_at_big_commit = 0;
  run_sim(f.env, [&] {
    os::Transaction mk;
    mk.create_collection(other);
    ASSERT_TRUE(f.commit(std::move(mk)).ok());
    const auto jobs0 = f.dpu.dma().jobs_completed();
    stall_next_device_io(f.env, 50'000'000);
    os::Transaction big;
    big.write_full(kColl, kObj, BufferList::copy_of(pattern(1 << 20, 1)));
    f.proxy->queue_transaction(std::move(big), commits.on("big", [&] {
      jobs_at_big_commit = f.dpu.dma().jobs_completed() - jobs0;
    }));
    os::Transaction rmw;
    rmw.write(kColl, kObj, 4096, BufferList::copy_of(patch));
    f.proxy->queue_transaction(std::move(rmw), commits.on("rmw"));
    f.env.keeper().sleep_for(10'000'000);
    os::Transaction elsewhere;
    elsewhere.write_full(other, {1, "other"}, BufferList::copy_of(pattern(16 << 10, 3)));
    f.proxy->queue_transaction(std::move(elsewhere), commits.on("other"));
    commits.wait_for(3);
    f.env.faults().clear_all();
    std::string want = pattern(1 << 20, 1);
    want.replace(4096, patch.size(), patch);
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), want);
  });
  EXPECT_EQ(commits.order, (std::vector<std::string>{"other", "big", "rmw"}));
  EXPECT_EQ(jobs_at_big_commit, 2u);  // the big write's and the other PG's, not the RMW's
  EXPECT_EQ(f.proxy->slots().free_bytes(), f.proxy->slots().capacity());
  f.down();
}

// ---- what a write costs on comch and on the host ------------------------------------

struct WriteCost {
  std::uint64_t msgs = 0;     ///< comch messages, both directions
  std::uint64_t host_ns = 0;  ///< CPU charged to the host domain
};

WriteCost write_cost(ProxyFixture& f, const std::string& name, std::size_t bytes) {
  const auto msgs = [&] {
    return f.dpu.dpu_comch()->sent() + f.dpu.host_comch()->sent();
  };
  const WriteCost before{msgs(), f.host_cpu.busy_ns()};
  os::Transaction t;
  t.write_full(kColl, {1, name}, BufferList::copy_of(pattern(bytes)));
  EXPECT_TRUE(f.commit(std::move(t)).ok()) << name;
  return {msgs() - before.msgs, f.host_cpu.busy_ns() - before.host_ns};
}

TEST(ProxyComch, MessagesPerWriteShape) {
  // Inline: submit_txn and its reply (a payload near 4 KiB spills into a
  // second fragment with its metadata). A DMA write of k segments: k - 1
  // stage_segment requests and their acks, then one message carrying the
  // last stage frame and the submit, the last ack, and the commit reply.
  ProxyFixture f;
  f.up();
  run_sim(f.env, [&] {
    EXPECT_EQ(write_cost(f, "inline", 2048).msgs, 2u);
    EXPECT_EQ(write_cost(f, "one", 16 << 10).msgs, 3u);
    for (const std::uint64_t k : {2u, 4u}) {
      EXPECT_EQ(write_cost(f, "k" + std::to_string(k), k * (2 << 20)).msgs, 2 * k + 1)
          << k;
    }
  });
  EXPECT_EQ(f.proxy->rpc_fallback_bytes(), 0u);  // every segment went by DMA
  f.down();
}

TEST(ProxyComch, HostCpuOfOneSmallWrite) {
  // Host CPU of one 16 KiB DMA write, 30.3 us: three comch messages
  // (receive the stage+submit message, send the stage ack and the commit
  // reply) at 6 us each plus 0.15 ns/B, the 2.5 us copy out of the write
  // region (0.15 ns/B), and BlueStore's transaction and KV commit. Sending
  // the stage frame in a message of its own costs the host one more
  // receive: 36.3 us.
  ProxyFixture f;
  f.up();
  run_sim(f.env, [&] {
    const WriteCost c = write_cost(f, "w16k", 16 << 10);
    EXPECT_EQ(c.msgs, 3u);
    EXPECT_EQ(c.host_ns, 30'317u);
  });
  f.down();
}

// ---- host-side bounds checks on DPU-supplied region offsets -------------------

/// Sends a hand-built request on the proxy's channel and returns the host's
/// int32 result code (the first field of every reply).
std::int32_t host_result(ProxyFixture& f, ProxyOp op, const BufferList& body) {
  BufferList request;
  encode(op, request);
  request.append(body);
  auto r = f.proxy->rpc().call(std::move(request), 1'000'000'000);
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  if (!r.ok()) return 0;
  BufferList::Cursor cur(*r);
  std::int32_t result = 0;
  EXPECT_TRUE(decode(result, cur));
  return result;
}

constexpr std::int32_t kCorrupt = -static_cast<std::int32_t>(Errc::corrupt);

TEST(ProxyBounds, OutOfRangeStageSegmentIsRejected) {
  ProxyConfig cfg;
  cfg.slots = 1;
  ProxyFixture f(cfg);
  f.up();
  // The host bounds-checks against the whole region it was given: the
  // paired write region plus the read landing after it.
  const auto cap = static_cast<std::uint32_t>(f.proxy->slots().host_mmap()->size());
  run_sim(f.env, [&] {
    for (const auto& [off, len] : {std::pair<std::uint32_t, std::uint32_t>{cap, 1},
                                   {cap - 4096, 8192},
                                   {1000u * cap, 4096},
                                   {16, 0xffffffffu}}) {
      BufferList body;
      StageSegment{.token = 7, .seg_index = 0, .off = off, .len = len}.encode(body);
      EXPECT_EQ(host_result(f, ProxyOp::stage_segment, body), kCorrupt) << off;
    }
    // In range is fine.
    BufferList body;
    StageSegment{.token = 7, .seg_index = 0, .off = cap - 4096, .len = 4096}.encode(body);
    EXPECT_EQ(host_result(f, ProxyOp::stage_segment, body), 0);
  });
  f.down();
}

TEST(ProxyBounds, RetiredOpByteIsNotSupported) {
  // Op byte 12 is retired (ProxyOp): the host refuses it like any unknown
  // op instead of interpreting the body.
  ProxyFixture f;
  f.up();
  run_sim(f.env, [&] {
    BufferList body;
    encode(std::uint32_t{0}, body);
    EXPECT_EQ(host_result(f, static_cast<ProxyOp>(12), body),
              -static_cast<std::int32_t>(Errc::not_supported));
  });
  f.down();
}

TEST(ProxyBounds, OutOfRangeReadExtentIsRejected) {
  ProxyConfig cfg;
  cfg.slots = 1;
  ProxyFixture f(cfg);
  f.up();
  const auto cap = static_cast<std::uint32_t>(f.proxy->slots().capacity());
  run_sim(f.env, [&] {
    os::Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(pattern(64 << 10)));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    ReadRequest rr;
    rr.cid = kColl;
    rr.oid = kObj;
    rr.buf_off = 1000u * cap;  // the host would stage the object here
    rr.buf_len = 64 << 10;
    BufferList body;
    rr.encode(body);
    EXPECT_EQ(host_result(f, ProxyOp::read_obj, body), kCorrupt);
  });
  f.down();
}

TEST(ProxyBounds, OutOfRangeRegionRefFailsTheTxn) {
  ProxyConfig cfg;
  cfg.slots = 1;
  ProxyFixture f(cfg);
  f.up();
  const auto cap = static_cast<std::uint32_t>(f.proxy->slots().capacity());
  run_sim(f.env, [&] {
    // Region refs belong to read replies: a write carrying one is refused
    // whether or not it lies inside the region.
    for (const std::uint32_t index : {cap - 16, 0u}) {
      WireTxn wire;
      wire.token = 11 + index;
      wire.meta.write_full(kColl, kObj, BufferList{});
      wire.parts.resize(1);
      wire.parts[0].push_back(DataRef{
          .kind = DataRef::Kind::region, .index = index, .len = 4096, .data = {}});
      BufferList body;
      wire.encode(body);
      EXPECT_EQ(host_result(f, ProxyOp::submit_txn, body), kCorrupt) << index;
      EXPECT_FALSE(f.store->exists(kColl, kObj)) << index;  // nothing was applied
    }
  });
  f.down();
}

TEST(ProxyBounds, SubmitNamingAnUnstagedSegmentFailsTheTxn) {
  ProxyFixture f;
  f.up();
  const std::string before = pattern(16 << 10, 3);
  run_sim(f.env, [&] {
    os::Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(before));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    // Segment 0 of this token never reached the host (its stage failed or
    // was lost): the txn fails and applies nothing, rather than committing
    // zeros in the segment's place.
    WireTxn wire;
    wire.token = 1234;
    wire.meta.write_full(kColl, kObj, BufferList{});
    wire.parts.resize(1);
    wire.parts[0].push_back(
        DataRef{.kind = DataRef::Kind::staged, .index = 0, .len = 16 << 10, .data = {}});
    BufferList body;
    wire.encode(body);
    EXPECT_EQ(host_result(f, ProxyOp::submit_txn, body), kCorrupt);
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), before);
  });
  f.down();
}

}  // namespace
}  // namespace doceph::proxy
