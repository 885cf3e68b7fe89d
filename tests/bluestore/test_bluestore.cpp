#include "bluestore/bluestore.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/fault.h"

namespace doceph::bluestore {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;
using os::Transaction;

const os::coll_t kColl{1, 0};
const os::ghobject_t kObj{1, "obj"};

BlueStoreConfig test_cfg() {
  BlueStoreConfig cfg;
  cfg.device.size_bytes = 2ull << 30;
  cfg.wal_len = 8 << 20;
  cfg.inline_threshold = 64 << 10;
  return cfg;
}

struct BsFixture {
  Env env;
  BlueStoreConfig cfg = test_cfg();
  std::shared_ptr<DeviceBacking> backing;
  std::unique_ptr<BlueStore> store;

  BsFixture() {
    store = std::make_unique<BlueStore>(env, nullptr, cfg);
    backing = store->backing();
  }

  void fresh_mount() {
    run_sim(env, [&] {
      ASSERT_TRUE(store->mkfs().ok());
      ASSERT_TRUE(store->mount().ok());
      Transaction t;
      t.create_collection(kColl);
      ASSERT_TRUE(commit(std::move(t)).ok());
    });
  }

  /// Synchronous commit from a sim thread.
  Status commit(Transaction t) {
    std::mutex m;
    CondVar cv(env.keeper());
    bool done = false;
    Status out;
    store->queue_transaction(std::move(t), [&](Status st) {
      const std::lock_guard<std::mutex> lk(m);
      out = st;
      done = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done; });
    return out;
  }

  void reopen_after(bool crash) {
    run_sim(env, [&] {
      if (crash) {
        store->simulate_crash();
      } else {
        ASSERT_TRUE(store->umount().ok());
      }
    });
    store = std::make_unique<BlueStore>(env, nullptr, cfg, backing);
    run_sim(env, [&] { ASSERT_TRUE(store->mount().ok()); });
  }
};

TEST(BlueStore, SmallObjectInlineRoundTrip) {
  BsFixture f;
  f.fresh_mount();
  run_sim(f.env, [&] {
    Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of("tiny object"));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    auto r = f.store->read(kColl, kObj, 0, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), "tiny object");
    // Inline: no data-region device writes beyond the WAL.
    EXPECT_EQ(f.store->free_bytes(), f.store->free_bytes());
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, KvCheckpointCountersTrackKvWrites) {
  BsFixture f;
  f.fresh_mount();  // mkfs wrote the first checkpoint; a commit refreshes
  run_sim(f.env, [&] {
    const auto& c = f.store->perf_counters();
    EXPECT_GE(c->get(l_bstore_kv_ckpt_chunks), 1u);
    EXPECT_EQ(c->get(l_bstore_kv_ckpt_chunks), f.store->kv().ckpt_chunks());
    EXPECT_EQ(c->get(l_bstore_kv_ckpt_bytes), f.store->kv().ckpt_bytes());
    EXPECT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, LargeObjectExtentRoundTrip) {
  BsFixture f;
  f.fresh_mount();
  const std::string big = pattern(3 << 20);
  run_sim(f.env, [&] {
    const std::uint64_t free0 = f.store->free_bytes();
    Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(big));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    EXPECT_LT(f.store->free_bytes(), free0);  // extents allocated
    auto r = f.store->read(kColl, kObj, 0, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), big);
    // Partial read from the middle.
    auto mid = f.store->read(kColl, kObj, 1 << 20, 4096);
    ASSERT_TRUE(mid.ok());
    EXPECT_EQ(mid->to_string(), big.substr(1 << 20, 4096));
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, ReadAsyncChainsExtentsAndDeliversErrorsOnce) {
  constexpr std::uint64_t k256K = 256 << 10;
  BsFixture f;
  // A 1 MiB data area past the WAL: four 256 KiB objects fill it, and
  // freeing the first and third leaves two holes that a 512 KiB object
  // can only take as two extents.
  const BlueStoreConfig& c = f.cfg;
  const std::uint64_t data_base =
      (c.wal_off + c.wal_len + c.alloc_unit - 1) / c.alloc_unit * c.alloc_unit;
  f.cfg.device.size_bytes = data_base + 4 * k256K;
  f.store = std::make_unique<BlueStore>(f.env, nullptr, f.cfg);
  f.backing = f.store->backing();
  f.fresh_mount();
  const std::string big = pattern(2 * k256K, 9);
  run_sim(f.env, [&] {
    for (unsigned i = 0; i < 4; ++i) {
      Transaction t;
      t.write_full(kColl, {1, "fill" + std::to_string(i)},
                   BufferList::copy_of(pattern(k256K, i)));
      ASSERT_TRUE(f.commit(std::move(t)).ok()) << i;
    }
    Transaction rm;
    rm.remove(kColl, {1, "fill0"});
    rm.remove(kColl, {1, "fill2"});
    ASSERT_TRUE(f.commit(std::move(rm)).ok());
    Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(big));
    ASSERT_TRUE(f.commit(std::move(t)).ok());

    int calls = 0;
    Result<BufferList> got = BufferList{};
    const auto read = [&] {
      calls = 0;
      f.store->read_async(kColl, kObj, 0, 0, [&](Result<BufferList> r) {
        got = std::move(r);
        ++calls;
      });
      f.env.keeper().sleep_for(50'000'000);  // ample time for a stray second call
    };
    // The extents are read one after another, each from the previous one's
    // completion: two full device round trips, as the blocking loop took.
    const Time t0 = f.env.now();
    Time done_at = -1;
    f.store->read_async(kColl, kObj, 0, 0, [&](Result<BufferList> r) {
      got = std::move(r);
      done_at = f.env.now();
    });
    f.env.keeper().sleep_for(50'000'000);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got->to_string(), big);
    EXPECT_EQ(done_at - t0, 2 * (c.device.read_latency +
                                 transfer_time(k256K, c.device.read_bw)));
    // The blocking adapter, across the extent boundary.
    auto mid = f.store->read(kColl, kObj, k256K - 100, 200);
    ASSERT_TRUE(mid.ok());
    EXPECT_EQ(mid->to_string(), big.substr(k256K - 100, 200));

    // The second extent's device read fails: one callback, with the error.
    fault::FaultSpec second;
    second.fire_at_hit = 2;
    second.count = 1;
    f.env.faults().set("bdev.io_error", second);
    read();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(got.status().code(), Errc::io_error);
    EXPECT_EQ(f.env.faults().fires("bdev.io_error"), 1u);
    f.env.faults().clear("bdev.io_error");
    read();
    EXPECT_EQ(calls, 1);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->to_string(), big);
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, OverwriteReleasesOldExtents) {
  BsFixture f;
  f.fresh_mount();
  run_sim(f.env, [&] {
    const std::uint64_t free0 = f.store->free_bytes();
    for (int i = 0; i < 5; ++i) {
      Transaction t;
      t.write_full(kColl, kObj, BufferList::copy_of(pattern(1 << 20, static_cast<unsigned>(i))));
      ASSERT_TRUE(f.commit(std::move(t)).ok());
    }
    // COW: only the last version's extents remain allocated.
    EXPECT_EQ(f.store->free_bytes(), free0 - (1 << 20));
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), pattern(1 << 20, 4));
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, RemoveReleasesSpaceAndObject) {
  BsFixture f;
  f.fresh_mount();
  run_sim(f.env, [&] {
    const std::uint64_t free0 = f.store->free_bytes();
    Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(pattern(2 << 20)));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    Transaction rm;
    rm.remove(kColl, kObj);
    ASSERT_TRUE(f.commit(std::move(rm)).ok());
    EXPECT_FALSE(f.store->exists(kColl, kObj));
    EXPECT_EQ(f.store->free_bytes(), free0);
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0).status().code(), Errc::not_found);
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, PartialWriteZeroTruncate) {
  BsFixture f;
  f.fresh_mount();
  run_sim(f.env, [&] {
    Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of("0123456789"));
    ASSERT_TRUE(f.commit(std::move(t)).ok());

    Transaction t2;
    t2.write(kColl, kObj, 3, BufferList::copy_of("XYZ"));
    ASSERT_TRUE(f.commit(std::move(t2)).ok());
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), "012XYZ6789");

    Transaction t3;
    t3.zero(kColl, kObj, 0, 2);
    ASSERT_TRUE(f.commit(std::move(t3)).ok());
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 3)->to_string(), std::string("\0\0""2", 3));

    Transaction t4;
    t4.truncate(kColl, kObj, 4);
    ASSERT_TRUE(f.commit(std::move(t4)).ok());
    EXPECT_EQ(f.store->stat(kColl, kObj)->size, 4u);
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, PartialWriteOnLargeObject) {
  BsFixture f;
  f.fresh_mount();
  const std::string big = pattern(1 << 20);
  run_sim(f.env, [&] {
    Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(big));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    Transaction t2;
    t2.write(kColl, kObj, 512 << 10, BufferList::copy_of("PATCH"));
    ASSERT_TRUE(f.commit(std::move(t2)).ok());
    std::string expect = big;
    expect.replace(512 << 10, 5, "PATCH");
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), expect);
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, OmapOps) {
  BsFixture f;
  f.fresh_mount();
  run_sim(f.env, [&] {
    Transaction t;
    t.touch(kColl, kObj);
    t.omap_set(kColl, kObj, {{"pg_log", BufferList::copy_of("entry1")}});
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    auto m = f.store->omap_get(kColl, kObj);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->at("pg_log").to_string(), "entry1");
    Transaction t2;
    t2.omap_rm_keys(kColl, kObj, {"pg_log"});
    ASSERT_TRUE(f.commit(std::move(t2)).ok());
    EXPECT_TRUE(f.store->omap_get(kColl, kObj)->empty());
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, ListObjectsAndCollections) {
  BsFixture f;
  f.fresh_mount();
  run_sim(f.env, [&] {
    Transaction t;
    t.create_collection({1, 1});
    t.touch(kColl, {1, "a"});
    t.touch(kColl, {1, "b"});
    t.touch({1, 1}, {1, "c"});
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    auto l = f.store->list_objects(kColl);
    ASSERT_TRUE(l.ok());
    EXPECT_EQ(l->size(), 2u);
    auto colls = f.store->list_collections();
    EXPECT_EQ(colls.size(), 2u);
    EXPECT_TRUE(f.store->collection_exists({1, 1}));
    EXPECT_FALSE(f.store->collection_exists({9, 9}));
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, WriteToMissingCollectionFails) {
  BsFixture f;
  f.fresh_mount();
  run_sim(f.env, [&] {
    Transaction t;
    t.write_full({5, 5}, kObj, BufferList::copy_of("x"));
    EXPECT_EQ(f.commit(std::move(t)).code(), Errc::not_found);
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, RemountRestoresEverything) {
  BsFixture f;
  f.fresh_mount();
  const std::string big = pattern(2 << 20);
  run_sim(f.env, [&] {
    Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(big));
    t.write_full(kColl, {1, "small"}, BufferList::copy_of("inline"));
    t.omap_set(kColl, kObj, {{"meta", BufferList::copy_of("m")}});
    ASSERT_TRUE(f.commit(std::move(t)).ok());
  });
  f.reopen_after(/*crash=*/false);
  run_sim(f.env, [&] {
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), big);
    EXPECT_EQ(f.store->read(kColl, {1, "small"}, 0, 0)->to_string(), "inline");
    EXPECT_EQ(f.store->omap_get(kColl, kObj)->at("meta").to_string(), "m");
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, CrashAfterCommitIsDurable) {
  BsFixture f;
  f.fresh_mount();
  const std::string big = pattern(1 << 20);
  run_sim(f.env, [&] {
    Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(big));
    ASSERT_TRUE(f.commit(std::move(t)).ok());  // commit acked => durable
  });
  f.reopen_after(/*crash=*/true);
  run_sim(f.env, [&] {
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), big);
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, CrashMidFlightLeavesOldOrNewNeverGarbage) {
  BsFixture f;
  f.fresh_mount();
  const std::string v1 = pattern(1 << 20, 1);
  const std::string v2 = pattern(1 << 20, 2);
  run_sim(f.env, [&] {
    Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(v1));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    // Queue v2 but crash before its commit callback.
    Transaction t2;
    t2.write_full(kColl, kObj, BufferList::copy_of(v2));
    f.store->queue_transaction(std::move(t2), [](Status) {});
    f.store->simulate_crash();
  });
  f.store = std::make_unique<BlueStore>(f.env, nullptr, f.cfg, f.backing);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.store->mount().ok());
    const std::string got = f.store->read(kColl, kObj, 0, 0)->to_string();
    EXPECT_TRUE(got == v1 || got == v2) << "object is neither old nor new";
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, CrashRemountReplaysUnderDeviceFaults) {
  BsFixture f;
  f.fresh_mount();
  run_sim(f.env, [&] {
    for (int i = 0; i < 6; ++i) {
      Transaction t;
      t.write_full(kColl, {1, "o" + std::to_string(i)},
                   BufferList::copy_of(pattern(16 << 10, static_cast<unsigned>(i))));
      ASSERT_TRUE(f.commit(std::move(t)).ok());
    }
    f.store->simulate_crash();
  });
  f.store = std::make_unique<BlueStore>(f.env, nullptr, f.cfg, f.backing);

  // An io_error on the remount's first read (the checkpoint probe) fails
  // the mount cleanly; the store stays unmounted and retryable.
  fault::FaultSpec once;
  once.force_next = 1;
  f.env.faults().set("bdev.io_error", once);
  run_sim(f.env, [&] {
    EXPECT_FALSE(f.store->mount().ok());
    EXPECT_FALSE(f.store->is_mounted());
  });
  EXPECT_EQ(f.env.faults().fires("bdev.io_error"), 1u);

  // Retried under standing latency spikes: every replay read runs 5 ms
  // slow, but the mount converges and all committed objects come back.
  fault::FaultSpec spike;
  spike.fire_at_time = 0;
  spike.delay_ns = 5'000'000;
  f.env.faults().set("bdev.latency_spike", spike);
  run_sim(f.env, [&] {
    const Time t0 = f.env.now();
    ASSERT_TRUE(f.store->mount().ok());
    EXPECT_TRUE(f.store->is_mounted());
    EXPECT_GE(f.env.now() - t0, 5'000'000);  // at least one spiked read
    for (int i = 0; i < 6; ++i) {
      auto r = f.store->read(kColl, {1, "o" + std::to_string(i)}, 0, 0);
      ASSERT_TRUE(r.ok()) << "o" << i << ": " << r.status().to_string();
      EXPECT_EQ(r->to_string(), pattern(16 << 10, static_cast<unsigned>(i)));
    }
    ASSERT_TRUE(f.store->umount().ok());
  });
  EXPECT_GE(f.env.faults().fires("bdev.latency_spike"), 2u);
  f.env.faults().clear_all();
}

TEST(BlueStore, AllocatorRebuiltOnMount) {
  BsFixture f;
  f.fresh_mount();
  std::uint64_t free_after_write = 0;
  run_sim(f.env, [&] {
    Transaction t;
    t.write_full(kColl, kObj, BufferList::copy_of(pattern(4 << 20)));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    free_after_write = f.store->free_bytes();
  });
  f.reopen_after(/*crash=*/false);
  run_sim(f.env, [&] {
    EXPECT_EQ(f.store->free_bytes(), free_after_write);
    // New allocations must not clobber the existing object.
    Transaction t;
    t.write_full(kColl, {1, "other"}, BufferList::copy_of(pattern(4 << 20, 9)));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), pattern(4 << 20));
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, ConcurrentWritersToDistinctObjects) {
  BsFixture f;
  f.fresh_mount();
  constexpr int kWriters = 8;
  run_sim(f.env, [&] {
    std::mutex m;
    CondVar cv(f.env.keeper());
    int done = 0;
    for (int i = 0; i < kWriters; ++i) {
      Transaction t;
      t.write_full(kColl, {1, "obj" + std::to_string(i)},
                   BufferList::copy_of(pattern(256 << 10, static_cast<unsigned>(i))));
      f.store->queue_transaction(std::move(t), [&](Status st) {
        ASSERT_TRUE(st.ok());
        const std::lock_guard<std::mutex> lk(m);
        ++done;
        cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == kWriters; });
    lk.unlock();
    for (int i = 0; i < kWriters; ++i) {
      EXPECT_EQ(f.store->read(kColl, {1, "obj" + std::to_string(i)}, 0, 0)->to_string(),
                pattern(256 << 10, static_cast<unsigned>(i)));
    }
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, SameObjectWritesCommitInOrder) {
  BsFixture f;
  f.fresh_mount();
  run_sim(f.env, [&] {
    std::mutex m;
    CondVar cv(f.env.keeper());
    int done = 0;
    // Two back-to-back full writes; the second (small, inline) must not
    // overtake the first (large, aio-bound).
    Transaction big;
    big.write_full(kColl, kObj, BufferList::copy_of(pattern(8 << 20, 1)));
    Transaction small;
    small.write_full(kColl, kObj, BufferList::copy_of("final"));
    auto bump = [&](Status st) {
      ASSERT_TRUE(st.ok());
      const std::lock_guard<std::mutex> lk(m);
      ++done;
      cv.notify_all();
    };
    f.store->queue_transaction(std::move(big), bump);
    f.store->queue_transaction(std::move(small), bump);
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == 2; });
    lk.unlock();
    EXPECT_EQ(f.store->read(kColl, kObj, 0, 0)->to_string(), "final");
    ASSERT_TRUE(f.store->umount().ok());
  });
}

TEST(BlueStore, RemoveCollectionReclaimsObjects) {
  BsFixture f;
  f.fresh_mount();
  run_sim(f.env, [&] {
    const std::uint64_t free0 = f.store->free_bytes();
    Transaction t;
    t.write_full(kColl, {1, "x"}, BufferList::copy_of(pattern(1 << 20)));
    t.write_full(kColl, {1, "y"}, BufferList::copy_of(pattern(1 << 20)));
    ASSERT_TRUE(f.commit(std::move(t)).ok());
    Transaction rm;
    rm.remove_collection(kColl);
    ASSERT_TRUE(f.commit(std::move(rm)).ok());
    EXPECT_FALSE(f.store->collection_exists(kColl));
    EXPECT_EQ(f.store->free_bytes(), free0);
    ASSERT_TRUE(f.store->umount().ok());
  });
}

}  // namespace
}  // namespace doceph::bluestore
