// Sharded KvStore coverage (DESIGN.md §15): routing determinism, the
// cross-shard chained commit (atomic ack, crash durability on every
// shard), merged sorted iteration, and remount replay per shard.
#include "bluestore/kv.h"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <vector>

#include "../test_util.h"

namespace doceph::bluestore {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

struct ShardedKvFixture {
  Env env;
  std::shared_ptr<DeviceBacking> backing = std::make_shared<DeviceBacking>();
  BlockDeviceConfig dev_cfg;
  std::unique_ptr<BlockDevice> dev;
  std::unique_ptr<KvStore> kv;
  int shards;

  explicit ShardedKvFixture(int n, std::uint64_t wal_len = 16 << 20)
      : shards(n) {
    dev_cfg.size_bytes = 1 << 30;
    dev = std::make_unique<BlockDevice>(env, dev_cfg, backing);
    kv = std::make_unique<KvStore>(env, *dev, 4096, wal_len, nullptr,
                                   KvCostModel{}, n);
  }

  /// Re-open over the same backing (remount or post-crash) at `n` shards.
  void reopen(int n, std::uint64_t wal_len = 16 << 20) {
    kv.reset();
    dev = std::make_unique<BlockDevice>(env, dev_cfg, backing);
    kv = std::make_unique<KvStore>(env, *dev, 4096, wal_len, nullptr,
                                   KvCostModel{}, n);
  }

  static KvTxn set(const std::string& k, const std::string& v) {
    KvTxn t;
    t.sets[k] = BufferList::copy_of(v);
    return t;
  }

  /// Two keys guaranteed to land on DIFFERENT shards (the hash is
  /// deterministic, so scanning a few candidates always finds a pair).
  [[nodiscard]] std::pair<std::string, std::string> cross_shard_pair() const {
    const std::string a = "xs/key0";
    for (int i = 1; i < 64; ++i) {
      const std::string b = "xs/key" + std::to_string(i);
      if (kv->shard_of(b) != kv->shard_of(a)) return {a, b};
    }
    ADD_FAILURE() << "no cross-shard pair in 64 candidates";
    return {a, a};
  }
};

TEST(KvSharded, RoutingIsDeterministicAndCoversAllShards) {
  ShardedKvFixture f(4);
  EXPECT_EQ(f.kv->shards(), 4);
  std::set<std::size_t> hit;
  for (int i = 0; i < 256; ++i) {
    const std::string k = "route/k" + std::to_string(i);
    const std::size_t s = f.kv->shard_of(k);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, f.kv->shard_of(k));  // stable across calls
    hit.insert(s);
  }
  // FNV-1a over 256 distinct keys reaches every one of 4 shards.
  EXPECT_EQ(hit.size(), 4u);
}

TEST(KvSharded, SingleShardOpsLandOnTheRoutedShardOnly) {
  ShardedKvFixture f(4);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    const std::uint64_t before = f.kv->append_offset(
        static_cast<int>(f.kv->shard_of("solo")));
    ASSERT_TRUE(f.kv->submit(ShardedKvFixture::set("solo", "v")).ok());
    // Only the routed shard's WAL cursor moved.
    for (int s = 0; s < f.kv->shards(); ++s) {
      if (static_cast<std::size_t>(s) == f.kv->shard_of("solo")) {
        EXPECT_GT(f.kv->append_offset(s), before) << s;
      }
    }
    EXPECT_EQ(f.kv->cross_shard_commits(), 0u);
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvSharded, CrossShardTxnCommitsAtomically) {
  ShardedKvFixture f(4);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    const auto [a, b] = f.cross_shard_pair();
    KvTxn t;
    t.sets[a] = BufferList::copy_of("A");
    t.sets[b] = BufferList::copy_of("B");
    ASSERT_TRUE(f.kv->submit(std::move(t)).ok());
    // Ack means BOTH sides are visible and the chain counter ticked.
    EXPECT_EQ(f.kv->get(a)->to_string(), "A");
    EXPECT_EQ(f.kv->get(b)->to_string(), "B");
    EXPECT_EQ(f.kv->cross_shard_commits(), 1u);
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvSharded, AckedCrossShardTxnSurvivesCrashOnEveryShard) {
  ShardedKvFixture f(4);
  std::string ka;
  std::string kb;
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    const auto [a, b] = f.cross_shard_pair();
    ka = a;
    kb = b;
    KvTxn t;
    t.sets[a] = BufferList::copy_of(pattern(8 << 10, 1));
    t.sets[b] = BufferList::copy_of(pattern(8 << 10, 2));
    t.rms.push_back("never-existed");
    ASSERT_TRUE(f.kv->submit(std::move(t)).ok());
    f.kv->crash();  // no checkpoint, no drain: mount must replay both shards
  });
  f.reopen(4);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    ASSERT_TRUE(f.kv->contains(ka));
    ASSERT_TRUE(f.kv->contains(kb));
    EXPECT_EQ(f.kv->get(ka)->to_string(), pattern(8 << 10, 1));
    EXPECT_EQ(f.kv->get(kb)->to_string(), pattern(8 << 10, 2));
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvSharded, CrashWithQueuedChainNeverHangsTheCallback) {
  // A cross-shard chain whose tail link is still queued at crash() may be
  // lost — but its callback must fire (ok or error), never hang, and an
  // un-acked txn makes no durability promise.
  ShardedKvFixture f(4);
  std::atomic<int> fired{0};
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    const auto [a, b] = f.cross_shard_pair();
    for (int i = 0; i < 8; ++i) {
      KvTxn t;
      t.sets[a + std::to_string(i)] = BufferList::copy_of("x");
      t.sets[b + std::to_string(i)] = BufferList::copy_of("y");
      f.kv->queue(std::move(t), [&](Status) { fired.fetch_add(1); });
    }
    f.kv->crash();
  });
  EXPECT_EQ(fired.load(), 8);
  f.reopen(4);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvSharded, ForEachPrefixMergesShardsInSortedOrder) {
  // Keys scatter across shards by hash, but iteration order must be the
  // globally sorted key order — allocator rebuild and list_objects depend
  // on it.
  ShardedKvFixture f(4);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    std::vector<std::string> keys;
    for (int i = 0; i < 40; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof buf, "O/sorted%02d", i);
      keys.emplace_back(buf);
      ASSERT_TRUE(f.kv->submit(ShardedKvFixture::set(keys.back(), "v")).ok());
    }
    ASSERT_TRUE(f.kv->submit(ShardedKvFixture::set("P/other", "v")).ok());
    std::vector<std::string> seen;
    f.kv->for_each_prefix("O/", [&](const std::string& k, const BufferList&) {
      seen.push_back(k);
    });
    EXPECT_EQ(seen, keys);  // keys was built pre-sorted
    EXPECT_EQ(f.kv->num_keys(), 41u);
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvSharded, RemountAtSameShardCountRestoresEveryShard) {
  ShardedKvFixture f(4);
  constexpr int kKeys = 64;
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(f.kv->submit(ShardedKvFixture::set(
          "m/" + std::to_string(i), pattern(4 << 10, static_cast<unsigned>(i)))).ok());
    }
    ASSERT_TRUE(f.kv->umount().ok());
  });
  f.reopen(4);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    EXPECT_EQ(f.kv->num_keys(), static_cast<std::size_t>(kKeys));
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_EQ(f.kv->get("m/" + std::to_string(i))->to_string(),
                pattern(4 << 10, static_cast<unsigned>(i)))
          << i;
    }
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvSharded, ShardFloodRollsCheckpointsIndependently) {
  // Flood every shard past its first segment so each rolls its own
  // checkpoint chain, then crash: every shard replays from ITS newest
  // checkpoint, independent of the others' generations.
  ShardedKvFixture f(2, 4 << 20);  // 2 shards x 2 x 1 MiB segments
  constexpr int kKeys = 40;        // 40 x 40 KiB ≈ 1.6 MiB spread over 2 shards
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(f.kv->submit(ShardedKvFixture::set(
          "flood" + std::to_string(i), pattern(40 << 10, static_cast<unsigned>(i)))).ok())
          << i;
    }
    EXPECT_GT(f.kv->map_bytes(), 1u << 20);
    EXPECT_LE(f.kv->max_shard_bytes(), f.kv->map_bytes());
    EXPECT_GT(f.kv->checkpoint_pressure(), 0.0);
    f.kv->crash();
  });
  f.reopen(2, 4 << 20);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    EXPECT_EQ(f.kv->num_keys(), static_cast<std::size_t>(kKeys));
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(f.kv->contains("flood" + std::to_string(i))) << i;
    }
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvSharded, ShardedLayoutMatchesUnshardedAtOne) {
  // shards == 1 must behave exactly like the pre-sharding store: one WAL
  // region, shard_of always 0, checkpoint_pressure == map_bytes / wal_len.
  ShardedKvFixture f(1, 8 << 20);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    EXPECT_EQ(f.kv->shards(), 1);
    EXPECT_EQ(f.kv->shard_of("anything"), 0u);
    ASSERT_TRUE(f.kv->submit(ShardedKvFixture::set("k", pattern(1 << 20, 7))).ok());
    EXPECT_EQ(f.kv->max_shard_bytes(), f.kv->map_bytes());
    EXPECT_NEAR(f.kv->checkpoint_pressure(),
                static_cast<double>(f.kv->map_bytes()) / (8 << 20), 1e-9);
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvSharded, RollDoesNotStallCommits) {
  // Sharded twin of KvStore.RollDoesNotStallCommits: every shard paces its
  // own checkpoint, so no commit through either shard's roll waits a
  // quarter of that shard's snapshot write.
  constexpr std::uint64_t kShardWal = 24 << 20;  // per shard: 12 MiB segments
  constexpr int kKeys = 128;                     // 128 x 64 KiB = 8 MiB map
  ShardedKvFixture f(2, 2 * kShardWal);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(f.kv->submit(ShardedKvFixture::set(
          "obj" + std::to_string(i), pattern(64 << 10, static_cast<unsigned>(i)))).ok());
    }
    const auto snapshot_write = static_cast<Duration>(
        static_cast<double>(f.kv->max_shard_bytes()) / f.dev_cfg.write_bw * 1e9);
    auto segment = [&](int shard) {
      return (f.kv->append_offset(shard) - 4096) / (kShardWal / 2);
    };
    const std::array<std::uint64_t, 2> first{segment(0), segment(1)};
    Duration worst = 0;
    int after_rolls = -1;
    for (int i = kKeys; after_rolls < 200; ++i) {
      ASSERT_LT(i, 2000) << "not every shard rolled";
      const Time t0 = f.env.now();
      const auto value = pattern(64 << 10, static_cast<unsigned>(i));
      ASSERT_TRUE(
          f.kv->submit(ShardedKvFixture::set("obj" + std::to_string(i % kKeys), value))
              .ok());
      worst = std::max(worst, f.env.now() - t0);
      if (after_rolls >= 0 || (segment(0) != first[0] && segment(1) != first[1]))
        ++after_rolls;
    }
    EXPECT_LT(worst, snapshot_write / 4)
        << "worst commit " << worst << " ns, snapshot write " << snapshot_write << " ns";
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

}  // namespace
}  // namespace doceph::bluestore
