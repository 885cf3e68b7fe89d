#include "bluestore/kv.h"

#include <gtest/gtest.h>

#include <array>
#include <random>

#include "../test_util.h"
#include "common/fault.h"

namespace doceph::bluestore {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

struct KvFixture {
  Env env;
  std::shared_ptr<DeviceBacking> backing = std::make_shared<DeviceBacking>();
  BlockDeviceConfig dev_cfg;
  std::unique_ptr<BlockDevice> dev;
  std::unique_ptr<KvStore> kv;

  explicit KvFixture(std::uint64_t wal_len = 8 << 20) {
    dev_cfg.size_bytes = 1 << 30;
    dev = std::make_unique<BlockDevice>(env, dev_cfg, backing);
    kv = std::make_unique<KvStore>(env, *dev, 4096, wal_len, nullptr);
  }

  /// Re-open the store over the same backing (remount or post-crash).
  void reopen(std::uint64_t wal_len = 8 << 20) {
    kv.reset();
    dev = std::make_unique<BlockDevice>(env, dev_cfg, backing);
    kv = std::make_unique<KvStore>(env, *dev, 4096, wal_len, nullptr);
  }

  static KvTxn set(const std::string& k, const std::string& v) {
    KvTxn t;
    t.sets[k] = BufferList::copy_of(v);
    return t;
  }
};

TEST(KvStore, MountWithoutMkfsFails) {
  KvFixture f;
  run_sim(f.env, [&] { EXPECT_EQ(f.kv->mount().code(), Errc::corrupt); });
}

TEST(KvStore, SetGetRemove) {
  KvFixture f;
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    EXPECT_TRUE(f.kv->submit(KvFixture::set("alpha", "1")).ok());
    EXPECT_TRUE(f.kv->submit(KvFixture::set("beta", "2")).ok());
    ASSERT_TRUE(f.kv->get("alpha").has_value());
    EXPECT_EQ(f.kv->get("alpha")->to_string(), "1");
    EXPECT_FALSE(f.kv->get("gamma").has_value());

    KvTxn rm;
    rm.rms.push_back("alpha");
    EXPECT_TRUE(f.kv->submit(std::move(rm)).ok());
    EXPECT_FALSE(f.kv->contains("alpha"));
    EXPECT_TRUE(f.kv->contains("beta"));
    EXPECT_EQ(f.kv->num_keys(), 1u);
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvStore, PrefixIteration) {
  KvFixture f;
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    for (const char* k : {"O/1.0/a", "O/1.0/b", "O/1.1/c", "C/1.0"})
      ASSERT_TRUE(f.kv->submit(KvFixture::set(k, "x")).ok());
    std::vector<std::string> seen;
    f.kv->for_each_prefix("O/1.0/", [&](const std::string& k, const BufferList&) {
      seen.push_back(k);
    });
    EXPECT_EQ(seen, (std::vector<std::string>{"O/1.0/a", "O/1.0/b"}));
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvStore, RemountAfterCleanUmountRestoresState) {
  KvFixture f;
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    ASSERT_TRUE(f.kv->submit(KvFixture::set("k", "committed")).ok());
    ASSERT_TRUE(f.kv->umount().ok());
  });
  f.reopen();
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    ASSERT_TRUE(f.kv->get("k").has_value());
    EXPECT_EQ(f.kv->get("k")->to_string(), "committed");
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvStore, CrashPreservesCommittedLosesQueued) {
  KvFixture f;
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    // Committed synchronously: must survive.
    ASSERT_TRUE(f.kv->submit(KvFixture::set("durable", "yes")).ok());
  });
  // Queue (not waiting) then crash immediately: may be lost; callback must
  // still fire with an error or have committed — never hang.
  std::atomic<bool> cb_fired{false};
  run_sim(f.env, [&] {
    f.kv->queue(KvFixture::set("maybe", "lost"), [&](Status) { cb_fired.store(true); });
    f.kv->crash();
  });
  f.reopen();
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    EXPECT_TRUE(f.kv->contains("durable"));
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvStore, ReplayAppliesInOrder) {
  KvFixture f;
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    for (int i = 0; i < 50; ++i)
      ASSERT_TRUE(f.kv->submit(KvFixture::set("key", "v" + std::to_string(i))).ok());
    f.kv->crash();  // no checkpoint: forces full replay
  });
  f.reopen();
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    ASSERT_TRUE(f.kv->get("key").has_value());
    EXPECT_EQ(f.kv->get("key")->to_string(), "v49");
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvStore, SegmentRollCheckpointsAndSurvives) {
  // Small WAL (2 MiB => 1 MiB segments) with fat values forces segment rolls.
  KvFixture f(2 << 20);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(f.kv
                      ->submit(KvFixture::set("big" + std::to_string(i % 7),
                                              pattern(100 << 10, static_cast<unsigned>(i))))
                      .ok());
    }
    f.kv->crash();
  });
  f.reopen(2 << 20);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    EXPECT_EQ(f.kv->num_keys(), 7u);
    // Last writes win: key big(59%7=3) has the payload from i=59.
    EXPECT_EQ(f.kv->get("big3")->to_string(), pattern(100 << 10, 59));
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvStore, OversizedRecordFailsWithNoSpace) {
  // 2 MiB WAL => 1 MiB segments. A single ~1.5 MiB record can never fit a
  // segment, not even right after a checkpoint roll; committing it must
  // fail with no_space. (Regression: the roll path used to write the
  // re-stamped batch anyway, overflowing the segment — the record silently
  // vanished at the next replay, i.e. an acknowledged commit was lost.)
  KvFixture f(2 << 20);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    ASSERT_TRUE(f.kv->submit(KvFixture::set("keep", "safe")).ok());
    const Status st = f.kv->submit(KvFixture::set("huge", pattern(1536 << 10, 1)));
    EXPECT_EQ(st.code(), Errc::no_space) << st.to_string();
    EXPECT_FALSE(f.kv->contains("huge"));
    // The store stays usable and crash-consistent after the rejection.
    ASSERT_TRUE(f.kv->submit(KvFixture::set("after", "ok")).ok());
    f.kv->crash();
  });
  f.reopen(2 << 20);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    EXPECT_TRUE(f.kv->contains("keep"));
    EXPECT_TRUE(f.kv->contains("after"));
    EXPECT_FALSE(f.kv->contains("huge"));
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvStore, OversizedBatchSplitsAcrossSegments) {
  // A group-commit burst whose combined record size (~3 MiB) exceeds a
  // whole 1 MiB segment (keys cycle over a small set so the checkpoint's
  // map snapshot still fits a segment). The sync thread must split the
  // batch into segment-sized chunks (rolling a checkpoint in between)
  // rather than writing it past the segment end; every txn commits and
  // survives a crash.
  KvFixture f(2 << 20);
  constexpr int kN = 30;
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    std::mutex m;
    CondVar cv(f.env.keeper());
    int done = 0;
    for (int i = 0; i < kN; ++i) {
      f.kv->queue(KvFixture::set("k" + std::to_string(i % 7),
                                 pattern(100 << 10, static_cast<unsigned>(i))),
                  [&](Status st) {
                    EXPECT_TRUE(st.ok()) << st.to_string();
                    const std::lock_guard<std::mutex> lk(m);
                    ++done;
                    cv.notify_all();
                  });
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == kN; });
    lk.unlock();
    f.kv->crash();
  });
  f.reopen(2 << 20);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    EXPECT_EQ(f.kv->num_keys(), 7u);
    // Last writes win: key k(29 % 7 = 1) carries the payload from i = 29.
    EXPECT_EQ(f.kv->get("k1")->to_string(), pattern(100 << 10, 29));
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvStore, CheckpointRollIoErrorLeaksNoSequenceNumbers) {
  // Fill segment 0 so the next fat txn forces a roll, then fail exactly the
  // roll's checkpoint write (the next device IO) with bdev.io_error. The
  // batch must fail with the device error, consume no WAL sequence numbers,
  // and the store must keep committing — both into the old segment's
  // remaining tail and through a later (successful) roll — with everything
  // replaying intact after a crash.
  KvFixture f(2 << 20);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    for (int i = 0; i < 10; ++i)
      ASSERT_TRUE(f.kv
                      ->submit(KvFixture::set("fill" + std::to_string(i % 5),
                                              pattern(100 << 10, static_cast<unsigned>(i))))
                      .ok());
    fault::FaultSpec once;
    once.force_next = 1;
    f.env.faults().set("bdev.io_error", once);
    const Status st = f.kv->submit(KvFixture::set("boom", pattern(100 << 10, 99)));
    EXPECT_EQ(st.code(), Errc::io_error) << st.to_string();
    EXPECT_FALSE(f.kv->contains("boom"));
    EXPECT_EQ(f.env.faults().fires("bdev.io_error"), 1u);
    // Small record: fits the old segment's tail (no roll needed).
    ASSERT_TRUE(f.kv->submit(KvFixture::set("small", "fits")).ok());
    // Fat records: force the roll again, which now succeeds.
    for (int i = 0; i < 4; ++i)
      ASSERT_TRUE(f.kv
                      ->submit(KvFixture::set("post" + std::to_string(i),
                                              pattern(100 << 10, static_cast<unsigned>(50 + i))))
                      .ok());
    f.kv->crash();
  });
  f.reopen(2 << 20);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    EXPECT_FALSE(f.kv->contains("boom"));
    EXPECT_TRUE(f.kv->contains("small"));
    for (int i = 0; i < 5; ++i)
      EXPECT_TRUE(f.kv->contains("fill" + std::to_string(i))) << i;
    for (int i = 0; i < 4; ++i)
      EXPECT_TRUE(f.kv->contains("post" + std::to_string(i))) << i;
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvStore, TornTrailingRecordsReplayCommittedPrefix) {
  // Property: tear the WAL tail at an arbitrary point (simulating a write
  // that was cut mid-record by power loss) and replay must stop cleanly at
  // the first bad CRC, restoring exactly a prefix of the committed txns.
  // Each txn i writes both "seq"=i and "k<i>", so the surviving "seq" value
  // identifies the prefix and every k<j> must exist iff j <= prefix.
  constexpr int kTxns = 12;
  for (const std::uint64_t tear_seed : {11u, 22u, 33u, 44u, 55u, 66u}) {
    KvFixture f(2 << 20);
    std::uint64_t wal_begin = 0;
    std::uint64_t wal_end = 0;
    run_sim(f.env, [&] {
      ASSERT_TRUE(f.kv->mkfs().ok());
      ASSERT_TRUE(f.kv->mount().ok());
      wal_begin = f.kv->append_offset();  // end of the mkfs checkpoint
      for (int i = 0; i < kTxns; ++i) {
        KvTxn t;
        t.sets["seq"] = BufferList::copy_of(std::to_string(i));
        t.sets["k" + std::to_string(i)] =
            BufferList::copy_of(pattern(4 << 10, static_cast<unsigned>(i)));
        ASSERT_TRUE(f.kv->submit(std::move(t)).ok());
      }
      wal_end = f.kv->append_offset();
      f.kv->crash();
    });
    ASSERT_GT(wal_end, wal_begin);
    std::mt19937_64 rng(tear_seed);
    const std::uint64_t tear = wal_begin + rng() % (wal_end - wal_begin);
    f.backing->write(tear, BufferList::copy_of(std::string(
                               static_cast<std::size_t>(wal_end - tear), '\xa5')));
    f.reopen(2 << 20);
    run_sim(f.env, [&] {
      ASSERT_TRUE(f.kv->mount().ok()) << "tear_seed " << tear_seed;
      int prefix = -1;
      if (const auto s = f.kv->get("seq")) prefix = std::stoi(s->to_string());
      // The tear landed inside some record, so at least one txn is gone.
      EXPECT_LT(prefix, kTxns - 1) << "tear_seed " << tear_seed;
      for (int i = 0; i < kTxns; ++i) {
        EXPECT_EQ(f.kv->contains("k" + std::to_string(i)), i <= prefix)
            << "tear_seed " << tear_seed << " txn " << i << " prefix " << prefix;
      }
      EXPECT_TRUE(f.kv->umount().ok());
    });
  }
}

TEST(KvStore, FreshObjectFloodChainsCheckpointAcrossSegments) {
  // Regression (overload collapse): a fresh-object small-write flood grows
  // the map monotonically — every record carries a NEW key. Pre-chaining,
  // the first roll whose snapshot left no journal room in one 1 MiB
  // segment wedged the store: the checkpoint itself still fit, but the
  // record that forced the roll was rejected with a fatal no_space, and so
  // was everything after it. With chained checkpoints the snapshot spills
  // into the second segment and the flood keeps committing well past one
  // segment's worth of live data.
  KvFixture f(2 << 20);
  constexpr int kKeys = 33;  // 33 x 40 KiB = 1.29 MiB live > one 1 MiB segment
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    for (int i = 0; i < kKeys; ++i) {
      const Status st = f.kv->submit(KvFixture::set(
          "obj" + std::to_string(i), pattern(40 << 10, static_cast<unsigned>(i))));
      ASSERT_TRUE(st.ok()) << "txn " << i << ": " << st.to_string();
    }
    EXPECT_GT(f.kv->map_bytes(), 1u << 20);  // live data exceeds one segment
    f.kv->crash();  // replay must reassemble the spanning chain + tail txns
  });
  f.reopen(2 << 20);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    EXPECT_EQ(f.kv->num_keys(), static_cast<std::size_t>(kKeys));
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(f.kv->contains("obj" + std::to_string(i))) << i;
    }
    EXPECT_EQ(f.kv->get("obj32")->to_string(), pattern(40 << 10, 32));
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvStore, CheckpointBeyondChainedCapacityFailsWithNoSpace) {
  // The chained ceiling is still finite: ~1.875 MiB of snapshot for 1 MiB
  // segments (one full chunk + one chunk that keeps journal headroom).
  // Past it the roll must fail with a diagnostic no_space — naming the
  // chained capacity — while everything committed before stays durable.
  KvFixture f(2 << 20);
  // Enough keys to push the snapshot past the ceiling AND fill the journal
  // headroom left by the last successful roll, forcing the failing roll.
  constexpr int kKeys = 60;  // 60 x 40 KiB = 2.3 MiB live
  int first_fail = -1;
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    for (int i = 0; i < kKeys && first_fail < 0; ++i) {
      const Status st = f.kv->submit(KvFixture::set(
          "obj" + std::to_string(i), pattern(40 << 10, static_cast<unsigned>(i))));
      if (!st.ok()) {
        EXPECT_EQ(st.code(), Errc::no_space) << st.to_string();
        EXPECT_NE(st.to_string().find("chained capacity"), std::string::npos)
            << st.to_string();
        first_fail = i;
      }
    }
    ASSERT_GE(first_fail, 0) << "flood never hit the chained ceiling";
    // Chaining bought more than one segment of live data before the wall.
    EXPECT_GT(f.kv->map_bytes(), 1u << 20);
    f.kv->crash();
  });
  f.reopen(2 << 20);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    for (int i = 0; i < first_fail; ++i) {
      EXPECT_TRUE(f.kv->contains("obj" + std::to_string(i))) << i;
    }
    EXPECT_FALSE(f.kv->contains("obj" + std::to_string(first_fail)));
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvStore, GroupCommitBatchesConcurrentWriters) {
  KvFixture f;
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    std::mutex m;
    CondVar cv(f.env.keeper());
    int done = 0;
    constexpr int kN = 64;
    for (int i = 0; i < kN; ++i) {
      f.kv->queue(KvFixture::set("k" + std::to_string(i), "v"), [&](Status st) {
        ASSERT_TRUE(st.ok());
        const std::lock_guard<std::mutex> lk(m);
        ++done;
        cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done == kN; });
    EXPECT_EQ(f.kv->num_keys(), static_cast<std::size_t>(kN));
    EXPECT_EQ(f.kv->committed(), static_cast<std::uint64_t>(kN));
    lk.unlock();
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvStore, RollDoesNotStallCommits) {
  // Regression (write_16k p99): a segment roll wrote the whole map snapshot
  // synchronously on the commit path, so the commit that rolled waited out
  // the full snapshot write — 8 MiB at 530 MB/s, about 16 ms. The snapshot
  // now paces out in chunks over the new segment's group commits: no commit
  // through the roll waits a quarter of that.
  constexpr std::uint64_t kWal = 24 << 20;  // 12 MiB segments: 8 MiB paces
  constexpr int kKeys = 128;                // 128 x 64 KiB = 8 MiB map
  KvFixture f(kWal);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mkfs().ok());
    ASSERT_TRUE(f.kv->mount().ok());
    for (int i = 0; i < kKeys; ++i) {
      const auto value = pattern(64 << 10, static_cast<unsigned>(i));
      ASSERT_TRUE(f.kv->submit(KvFixture::set("obj" + std::to_string(i), value)).ok());
    }
    const auto snapshot_write = static_cast<Duration>(
        static_cast<double>(f.kv->map_bytes()) / f.dev_cfg.write_bw * 1e9);
    auto segment = [&] { return (f.kv->append_offset() - 4096) / (kWal / 2); };
    const std::uint64_t first = segment();
    Duration worst = 0;
    int after_roll = -1;
    for (int i = kKeys; after_roll < 200; ++i) {
      ASSERT_LT(i, 1000) << "no segment roll";
      const Time t0 = f.env.now();
      const auto value = pattern(64 << 10, static_cast<unsigned>(i));
      ASSERT_TRUE(
          f.kv->submit(KvFixture::set("obj" + std::to_string(i % kKeys), value)).ok());
      worst = std::max(worst, f.env.now() - t0);
      if (after_roll >= 0 || segment() != first) ++after_roll;
    }
    EXPECT_LT(worst, snapshot_write / 4)
        << "worst commit " << worst << " ns, snapshot write " << snapshot_write << " ns";
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

// ---- Crash matrix for the paced checkpoint ----------------------------------
//
// One script drives a store with 1 MiB segments through segment rolls, one
// 16 KiB overwrite per commit; each commit writes one "seq" key and one of
// kPacedKeys object keys, so the map (~256 KiB) paces out over many chunks.
// Each case cuts the script at a different point of the second roll's
// checkpoint and checks that the remount holds exactly the acked commits.

constexpr std::uint64_t kPacedWal = 2 << 20;
constexpr int kPacedKeys = 16;

struct PacedLog {
  int acked = -1;                         ///< last acknowledged step
  std::array<int, kPacedKeys> writer{};   ///< step that last wrote k<j>
  int big = -1;                           ///< step that wrote "big", if acked
  std::size_t big_len = 0;
  int rolls = 0;
  std::uint64_t seg = 0;

  PacedLog() { writer.fill(-1); }

  static std::uint64_t segment(const KvStore& kv) {
    return (kv.append_offset() - 4096) / (kPacedWal / 2);
  }

  static KvTxn txn(int i) {
    KvTxn t;
    t.sets["seq"] = BufferList::copy_of(std::to_string(i));
    t.sets["k" + std::to_string(i % kPacedKeys)] =
        BufferList::copy_of(pattern(16 << 10, static_cast<unsigned>(i)));
    return t;
  }

  void note_roll(const KvStore& kv) {
    if (segment(kv) != seg) {
      ++rolls;
      seg = segment(kv);
    }
  }

  /// Commit the next step and record it in the model once acked.
  Status step(KvStore& kv) {
    const int i = acked + 1;
    const Status st = kv.submit(txn(i));
    if (st.ok()) {
      acked = i;
      writer[static_cast<std::size_t>(i % kPacedKeys)] = i;
      note_roll(kv);
    }
    return st;
  }

  /// Commit steps until the store has rolled `n` segments in total.
  void step_to_roll(KvStore& kv, int n) {
    while (rolls < n) ASSERT_TRUE(step(kv).ok());
  }

  /// Queue the next step without waiting for it (it is never acked).
  static void queue_unacked(KvStore& kv, int i) {
    kv.queue(txn(i), [](Status) {});
  }

  /// The remounted store holds every acked step, and the unacked step
  /// `acked + 1` wholly or (unless `allow_tail`) not at all.
  void verify(const KvStore& kv, bool allow_tail) const {
    int seq = -1;
    if (const auto v = kv.get("seq")) seq = std::stoi(v->to_string());
    ASSERT_TRUE(seq == acked || (allow_tail && seq == acked + 1))
        << "seq " << seq << " acked " << acked;
    for (int j = 0; j < kPacedKeys; ++j) {
      int w = writer[static_cast<std::size_t>(j)];
      if (seq == acked + 1 && (acked + 1) % kPacedKeys == j) w = acked + 1;
      const auto v = kv.get("k" + std::to_string(j));
      if (w < 0) {
        EXPECT_FALSE(v.has_value()) << j;
      } else {
        ASSERT_TRUE(v.has_value()) << j;
        EXPECT_EQ(v->to_string(), pattern(16 << 10, static_cast<unsigned>(w))) << j;
      }
    }
    EXPECT_EQ(kv.contains("big"), big >= 0);
    if (big >= 0) {
      EXPECT_EQ(kv.get("big")->to_string(), pattern(big_len, static_cast<unsigned>(big)));
    }
  }
};

/// Crash, remount and check the model; then keep committing through one more
/// roll and a completed checkpoint (resumed pacing), crash and check again.
void remount_and_continue(KvFixture& f, PacedLog& log, bool allow_tail) {
  f.reopen(kPacedWal);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    log.verify(*f.kv, allow_tail);
    // The unacked tail, if it landed, is now the newest committed step.
    const auto seq = f.kv->get("seq");
    if (seq && std::stoi(seq->to_string()) == log.acked + 1) {
      log.acked += 1;
      log.writer[static_cast<std::size_t>(log.acked % kPacedKeys)] = log.acked;
    }
    log.seg = PacedLog::segment(*f.kv);
    log.step_to_roll(*f.kv, log.rolls + 1);
    while (f.kv->checkpoint_open()) ASSERT_TRUE(log.step(*f.kv).ok());
    f.kv->crash();
  });
  f.reopen(kPacedWal);
  run_sim(f.env, [&] {
    ASSERT_TRUE(f.kv->mount().ok());
    log.verify(*f.kv, false);
    EXPECT_TRUE(f.kv->umount().ok());
  });
}

TEST(KvStore, PacedCheckpointCrashMatrix) {
  // Dry run: which step rolls into the second checkpoint, and how many
  // chunks that checkpoint paces out over.
  int n = 0;
  int roll_step = 0;
  {
    KvFixture f(kPacedWal);
    PacedLog log;
    run_sim(f.env, [&] {
      ASSERT_TRUE(f.kv->mkfs().ok());
      ASSERT_TRUE(f.kv->mount().ok());
      log.step_to_roll(*f.kv, 2);
      roll_step = log.acked;
      const std::uint64_t chunks0 = f.kv->ckpt_chunks();
      ASSERT_TRUE(f.kv->checkpoint_open());  // the roll wrote chunk 0 only
      while (f.kv->checkpoint_open()) ASSERT_TRUE(log.step(*f.kv).ok());
      n = static_cast<int>(f.kv->ckpt_chunks() - chunks0) + 1;
      EXPECT_EQ(log.rolls, 2) << "the checkpoint completes before the segment fills";
      EXPECT_TRUE(f.kv->umount().ok());
    });
  }
  ASSERT_GE(n, 4) << "checkpoint too small to cut mid-way";

  // Cut after k of the n chunks (k >= 1): crash with an unacked commit
  // queued. k < n remounts through the fallback (previous checkpoint and
  // txns, then the open segment's txns); k == n through the complete one.
  for (const int k : {1, n - 1, n}) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " of " + std::to_string(n) +
                 " chunks");
    KvFixture f(kPacedWal);
    PacedLog log;
    run_sim(f.env, [&] {
      ASSERT_TRUE(f.kv->mkfs().ok());
      ASSERT_TRUE(f.kv->mount().ok());
      log.step_to_roll(*f.kv, 2);
      for (int c = 1; c < k; ++c) ASSERT_TRUE(log.step(*f.kv).ok());
      EXPECT_EQ(f.kv->checkpoint_open(), k < n);
      PacedLog::queue_unacked(*f.kv, log.acked + 1);
      f.kv->crash();
    });
    remount_and_continue(f, log, true);
  }

  {
    SCOPED_TRACE("crash after 0 chunks: the rolling commit fails");
    KvFixture f(kPacedWal);
    PacedLog log;
    run_sim(f.env, [&] {
      ASSERT_TRUE(f.kv->mkfs().ok());
      ASSERT_TRUE(f.kv->mount().ok());
      while (log.acked + 1 < roll_step) ASSERT_TRUE(log.step(*f.kv).ok());
      fault::FaultSpec once;
      once.force_next = 1;
      f.env.faults().set("bdev.io_error", once);
      EXPECT_EQ(log.step(*f.kv).code(), Errc::io_error);
      EXPECT_NE(PacedLog::segment(*f.kv), log.seg) << "the failed step rolled";
      f.kv->crash();
    });
    remount_and_continue(f, log, false);
  }

  {
    SCOPED_TRACE("clean umount with the checkpoint incomplete");
    KvFixture f(kPacedWal);
    PacedLog log;
    run_sim(f.env, [&] {
      ASSERT_TRUE(f.kv->mkfs().ok());
      ASSERT_TRUE(f.kv->mount().ok());
      log.step_to_roll(*f.kv, 2);
      ASSERT_TRUE(f.kv->checkpoint_open());
      EXPECT_TRUE(f.kv->umount().ok());
    });
    remount_and_continue(f, log, false);
  }

  {
    // A record too big for the open segment's tail rolls while its
    // checkpoint is still open: the roll writes the remainder before the
    // new segment opens, so the crash falls back onto a complete checkpoint.
    SCOPED_TRACE("roll with the previous checkpoint still open");
    KvFixture f(kPacedWal);
    PacedLog log;
    run_sim(f.env, [&] {
      ASSERT_TRUE(f.kv->mkfs().ok());
      ASSERT_TRUE(f.kv->mount().ok());
      log.step_to_roll(*f.kv, 1);
      ASSERT_TRUE(f.kv->checkpoint_open());
      // Past the open segment's space left over its unwritten snapshot, but
      // within a fresh segment's room beside the whole snapshot.
      const std::uint64_t snapshot = f.kv->map_bytes() + 8 * f.kv->num_keys();
      log.big_len = static_cast<std::size_t>(kPacedWal / 2 - snapshot - (8 << 10));
      const int i = log.acked + 1;
      KvTxn t;
      t.sets["seq"] = BufferList::copy_of(std::to_string(i));
      t.sets["big"] = BufferList::copy_of(pattern(log.big_len, static_cast<unsigned>(i)));
      ASSERT_TRUE(f.kv->submit(std::move(t)).ok());
      log.acked = i;
      log.big = i;
      log.note_roll(*f.kv);
      ASSERT_EQ(log.rolls, 2);
      ASSERT_TRUE(f.kv->checkpoint_open());
      f.kv->crash();
    });
    f.reopen(kPacedWal);
    run_sim(f.env, [&] {
      ASSERT_TRUE(f.kv->mount().ok());
      log.verify(*f.kv, false);
      EXPECT_TRUE(f.kv->umount().ok());
    });
  }
}

}  // namespace
}  // namespace doceph::bluestore
