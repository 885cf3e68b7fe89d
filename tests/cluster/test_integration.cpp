#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <set>

#include "../test_util.h"
#include "client/rados_bench.h"

namespace doceph::cluster {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

ClusterConfig small_cfg(DeployMode mode) {
  auto cfg = ClusterConfig::paper_testbed(mode, NetworkKind::gbe_100,
                                          /*retain_data=*/true);
  cfg.pg_num = 16;
  return cfg;
}

/// `n` object names led by osd.`primary`. With `distinct_pgs`, each is in a
/// different PG and none shares a PG with an object of `avoid`.
std::vector<std::string> objects_led_by(Cluster& cluster, int primary, std::size_t n,
                                        const std::string& prefix,
                                        bool distinct_pgs = true,
                                        const std::vector<std::string>& avoid = {}) {
  const auto map = cluster.monitor().current_map();
  std::set<std::uint32_t> used;
  for (const auto& o : avoid) used.insert(map.object_to_pg(1, o).seed);
  std::vector<std::string> out;
  for (int i = 0; out.size() < n; ++i) {
    const std::string name = prefix + std::to_string(i);
    const auto pg = map.object_to_pg(1, name);
    if (map.pg_to_acting(pg).front() != primary) continue;
    if (distinct_pgs && !used.insert(pg.seed).second) continue;
    out.push_back(name);
  }
  return out;
}

class IntegrationTest : public ::testing::TestWithParam<DeployMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, IntegrationTest,
                         ::testing::Values(DeployMode::baseline, DeployMode::doceph),
                         [](const auto& info) {
                           return info.param == DeployMode::baseline ? "Baseline"
                                                                     : "DoCeph";
                         });

TEST_P(IntegrationTest, WriteReadStatRemove) {
  Env env;
  Cluster cluster(env, small_cfg(GetParam()));
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    auto io = cluster.client().io_ctx(1);

    const std::string payload = pattern(3 << 20);
    ASSERT_TRUE(io.write_full("objA", BufferList::copy_of(payload)).ok());

    auto read = io.read("objA", 0, 0);
    ASSERT_TRUE(read.ok()) << read.status().to_string();
    EXPECT_EQ(read->to_string(), payload);

    auto part = io.read("objA", 1 << 20, 4096);
    ASSERT_TRUE(part.ok());
    EXPECT_EQ(part->to_string(), payload.substr(1 << 20, 4096));

    auto st = io.stat("objA");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, payload.size());

    ASSERT_TRUE(io.remove("objA").ok());
    EXPECT_EQ(io.read("objA", 0, 0).status().code(), Errc::not_found);
    EXPECT_EQ(io.stat("missing").status().code(), Errc::not_found);
    cluster.stop();
  });
}

TEST_P(IntegrationTest, DataIsReplicatedToBothOsds) {
  Env env;
  Cluster cluster(env, small_cfg(GetParam()));
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    auto io = cluster.client().io_ctx(1);
    const std::string payload = pattern(1 << 20, 5);
    ASSERT_TRUE(io.write_full("replicated", BufferList::copy_of(payload)).ok());

    // With size=2 over 2 OSDs, both host stores hold the object.
    const auto pg = cluster.monitor().current_map().object_to_pg(1, "replicated");
    int copies = 0;
    for (int i = 0; i < cluster.num_nodes(); ++i) {
      auto r = cluster.blue_store(i).read(pg.to_coll(), {1, "replicated"}, 0, 0);
      if (r.ok() && r->to_string() == payload) copies++;
    }
    EXPECT_EQ(copies, 2);
    cluster.stop();
  });
}

TEST_P(IntegrationTest, ManyObjectsManyClientsConcurrently) {
  Env env;
  Cluster cluster(env, small_cfg(GetParam()));
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    auto io = cluster.client().io_ctx(1);
    constexpr int kOps = 40;
    std::vector<client::AioCompletionRef> completions;
    completions.reserve(kOps);
    for (int i = 0; i < kOps; ++i) {
      completions.push_back(io.aio_write_full(
          "obj" + std::to_string(i),
          BufferList::copy_of(pattern(256 << 10, static_cast<unsigned>(i)))));
    }
    for (auto& c : completions) EXPECT_TRUE(c->wait().ok());
    for (int i = 0; i < kOps; i += 7) {
      auto r = io.read("obj" + std::to_string(i), 0, 0);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->to_string(), pattern(256 << 10, static_cast<unsigned>(i)));
    }
    cluster.stop();
  });
}

TEST_P(IntegrationTest, SameObjectSequentialOverwrites) {
  Env env;
  Cluster cluster(env, small_cfg(GetParam()));
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    auto io = cluster.client().io_ctx(1);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(io.write_full("same", BufferList::copy_of(pattern(
                                            1 << 20, static_cast<unsigned>(i))))
                      .ok());
    }
    auto r = io.read("same", 0, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), pattern(1 << 20, 4));
    cluster.stop();
  });
}

TEST_P(IntegrationTest, BenchSmokeRun) {
  Env env;
  auto cfg = small_cfg(GetParam());
  cfg.retain_data = false;  // bench mode
  Cluster cluster(env, cfg);
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    client::BenchConfig bcfg;
    bcfg.concurrency = 8;
    bcfg.object_size = 1 << 20;
    bcfg.duration = 2'000'000'000;  // 2 s
    client::RadosBench bench(cluster.client(), bcfg);
    const auto result = bench.run(&cluster.client_cpu());
    EXPECT_GT(result.ops, 100u);       // sane throughput
    EXPECT_GT(result.iops(), 50.0);
    EXPECT_GT(result.avg_latency_s(), 0.0);
    cluster.stop();
  });
}

TEST_P(IntegrationTest, HostCpuAccountingMatchesMode) {
  Env env;
  auto cfg = small_cfg(GetParam());
  cfg.retain_data = false;
  Cluster cluster(env, cfg);
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    client::BenchConfig bcfg;
    bcfg.concurrency = 8;
    bcfg.object_size = 4 << 20;
    bcfg.duration = 2'000'000'000;
    const auto s0 = cluster.cpu_sample();
    client::RadosBench bench(cluster.client(), bcfg);
    (void)bench.run(&cluster.client_cpu());
    const auto s1 = cluster.cpu_sample();
    const double host = cluster.host_cores_used(s0, s1);
    const double dpu = cluster.dpu_cores_used(s0, s1);
    if (GetParam() == DeployMode::baseline) {
      EXPECT_GT(host, 0.2);   // messenger burns host CPU
      EXPECT_EQ(dpu, 0.0);
    } else {
      EXPECT_LT(host, 0.3);   // only BlueStore + backend remain
      EXPECT_GT(dpu, 0.1);    // the OSD moved to the DPU
      EXPECT_GT(dpu, host);
    }
    cluster.stop();
  });
}

TEST_P(IntegrationTest, StalledReadsDoNotParkOpThreads) {
  // Two reads stall 50 ms on the primary's SSD. An OSD op thread only
  // submits a read and returns to the queue, so a third read (another PG,
  // same primary) is served at once although the primary has only two
  // tp_osd_tp threads.
  Env env;
  Cluster cluster(env, small_cfg(GetParam()));
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    cluster.wait_all_clean();
    auto io = cluster.client().io_ctx(1);
    // Small, so two stalled DoCeph reads cannot fill the staging arena, but
    // above BlueStore's 64 KiB inline threshold, so every read hits the SSD.
    constexpr std::size_t kSize = 128 << 10;
    const int primary = 0;
    const auto objs = objects_led_by(cluster, primary, 3, "stall");
    for (std::size_t i = 0; i < objs.size(); ++i) {
      ASSERT_TRUE(io.write_full(objs[i], BufferList::copy_of(pattern(
                                             kSize, static_cast<unsigned>(i))))
                      .ok());
    }
    fault::FaultSpec spike;
    spike.force_next = 2;
    spike.count = 2;
    spike.delay_ns = 50'000'000;
    spike.match = "bdev-" + std::to_string(primary);
    env.faults().set("bdev.latency_spike", spike);

    const Time t0 = env.now();
    auto r0 = io.aio_read(objs[0], 0, 0);
    auto r1 = io.aio_read(objs[1], 0, 0);
    auto r2 = io.read(objs[2], 0, 0);
    const Time third = env.now() - t0;
    ASSERT_TRUE(r2.ok()) << r2.status().to_string();
    EXPECT_EQ(r2->to_string(), pattern(kSize, 2));
    EXPECT_LT(third, 10'000'000) << "third read waited behind the stalled ones";

    ASSERT_TRUE(r0->wait().ok());
    ASSERT_TRUE(r1->wait().ok());
    EXPECT_GE(env.now() - t0, 50'000'000);
    EXPECT_EQ(r0->data().to_string(), pattern(kSize, 0));
    EXPECT_EQ(r1->data().to_string(), pattern(kSize, 1));
    EXPECT_EQ(env.faults().fires("bdev.latency_spike"), 2u);
    env.faults().clear_all();
    cluster.stop();
  });
}

TEST_P(IntegrationTest, UnrelatedPgIsNotStalledBehindAGatedHead) {
  // A read of A stalls 50 ms on the primary's SSD, and a write to A then
  // waits for it (a write never overtakes an earlier read of its PG). A
  // write to B, in another PG of the same primary, must not queue behind
  // that waiting write.
  Env env;
  Cluster cluster(env, small_cfg(GetParam()));
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    cluster.wait_all_clean();
    auto io = cluster.client().io_ctx(1);
    // Above BlueStore's 64 KiB inline threshold, so the read hits the SSD.
    constexpr std::size_t kSize = 128 << 10;
    const int primary = 0;
    const auto objs = objects_led_by(cluster, primary, 2, "gate");
    for (std::size_t i = 0; i < objs.size(); ++i) {
      ASSERT_TRUE(io.write_full(objs[i], BufferList::copy_of(pattern(
                                             kSize, static_cast<unsigned>(i))))
                      .ok());
    }
    fault::FaultSpec spike;
    spike.force_next = 1;
    spike.count = 1;
    spike.delay_ns = 50'000'000;
    spike.match = "bdev-" + std::to_string(primary);
    env.faults().set("bdev.latency_spike", spike);

    const Time t0 = env.now();
    auto read_a = io.aio_read(objs[0], 0, 0);
    auto write_a = io.aio_write_full(objs[0], BufferList::copy_of(pattern(kSize, 10)));
    const Status write_b =
        io.write_full(objs[1], BufferList::copy_of(pattern(kSize, 11)));
    const Time b_acked = env.now() - t0;
    ASSERT_TRUE(write_b.ok()) << write_b.to_string();
    EXPECT_LT(b_acked, 10'000'000) << "B's write waited behind A's gated write";

    ASSERT_TRUE(read_a->wait().ok());
    ASSERT_TRUE(write_a->wait().ok());
    EXPECT_GE(env.now() - t0, 50'000'000);
    EXPECT_EQ(read_a->data().to_string(), pattern(kSize, 0));
    EXPECT_EQ(env.faults().fires("bdev.latency_spike"), 1u);
    env.faults().clear_all();
    EXPECT_EQ(io.read(objs[0], 0, 0)->to_string(), pattern(kSize, 10));
    EXPECT_EQ(io.read(objs[1], 0, 0)->to_string(), pattern(kSize, 11));
    cluster.stop();
  });
}

TEST_P(IntegrationTest, ReadQueuedBehindAGatedWriteSeesIt) {
  // Pipelined R1 -> W -> R2 on one object, with R1 stalled 50 ms on the
  // SSD: W waits for R1, and R2, though a read may pass reads in flight,
  // must not pass the queued W of its PG. R2 returns W's bytes.
  Env env;
  Cluster cluster(env, small_cfg(GetParam()));
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    cluster.wait_all_clean();
    auto io = cluster.client().io_ctx(1);
    constexpr std::size_t kSize = 128 << 10;
    const int primary = 0;
    const std::string obj = objects_led_by(cluster, primary, 1, "fifo")[0];
    ASSERT_TRUE(io.write_full(obj, BufferList::copy_of(pattern(kSize, 1))).ok());
    fault::FaultSpec spike;
    spike.force_next = 1;
    spike.count = 1;
    spike.delay_ns = 50'000'000;
    spike.match = "bdev-" + std::to_string(primary);
    env.faults().set("bdev.latency_spike", spike);

    auto r1 = io.aio_read(obj, 0, 0);
    auto w = io.aio_write_full(obj, BufferList::copy_of(pattern(kSize, 2)));
    auto r2 = io.aio_read(obj, 0, 0);
    ASSERT_TRUE(r1->wait().ok());
    ASSERT_TRUE(w->wait().ok());
    ASSERT_TRUE(r2->wait().ok());
    EXPECT_EQ(r1->data().to_string(), pattern(kSize, 1));
    EXPECT_EQ(r2->data().to_string(), pattern(kSize, 2))
        << "R2 passed the write queued before it";
    EXPECT_EQ(env.faults().fires("bdev.latency_spike"), 1u);
    env.faults().clear_all();
    cluster.stop();
  });
}

TEST_P(IntegrationTest, PipelinedReadsSeeOnlyEarlierWrites) {
  // R_i and W_i are pipelined on one object: R_i must return the bytes of
  // some W_j with j < i (it was queued before W_i), and j must not go
  // backwards. 2 MiB writes to other PGs of the same primary keep the DoCeph
  // staging arena busy, so each R_i's extent reservation queues while the
  // small inline W_i could reach the host store straight away.
  Env env;
  Cluster cluster(env, small_cfg(GetParam()));
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    auto io = cluster.client().io_ctx(1);
    constexpr int kRounds = 16;
    constexpr std::size_t kSmall = 4 << 10;
    const std::string obj = objects_led_by(cluster, 0, 1, "rw")[0];
    const auto bulk = objects_led_by(cluster, 0, 4, "bulk", true, {obj});
    auto version = [](int j) {
      return pattern(kSmall, static_cast<unsigned>(100 + j));
    };
    ASSERT_TRUE(io.write_full(obj, BufferList::copy_of(version(0))).ok());

    std::vector<client::AioCompletionRef> bulk_writes;
    const std::string big = pattern(2 << 20, 9);
    auto write_bulk = [&] {
      for (const auto& b : bulk)
        bulk_writes.push_back(io.aio_write_full(b, BufferList::copy_of(big)));
    };
    write_bulk();
    std::vector<client::AioCompletionRef> reads, writes;
    for (int i = 1; i <= kRounds; ++i) {
      reads.push_back(io.aio_read(obj, 0, 64 << 10));
      writes.push_back(io.aio_write_full(obj, BufferList::copy_of(version(i))));
      if (i % 4 == 0) write_bulk();
    }
    int last = 0;
    for (int i = 1; i <= kRounds; ++i) {
      const auto& r = reads[static_cast<std::size_t>(i - 1)];
      ASSERT_TRUE(r->wait().ok()) << "R" << i;
      const std::string got = r->data().to_string();
      int j = -1;
      for (int k = 0; k <= kRounds && j < 0; ++k) {
        if (got == version(k)) j = k;
      }
      ASSERT_GE(j, 0) << "R" << i << " returned bytes no write stored";
      EXPECT_LT(j, i) << "R" << i << " saw W" << j << ", queued after it";
      EXPECT_GE(j, last) << "R" << i << " went back from W" << last << " to W" << j;
      last = j;
    }
    for (auto& w : writes) EXPECT_TRUE(w->wait().ok());
    for (auto& w : bulk_writes) EXPECT_TRUE(w->wait().ok());
    auto final_read = io.read(obj, 0, 0);
    ASSERT_TRUE(final_read.ok());
    EXPECT_EQ(final_read->to_string(), version(kRounds));
    cluster.stop();
  });
}

TEST_P(IntegrationTest, ReadsInFlightSurviveOsdTeardown) {
  // A read can complete after its OSD is gone: restart_osd destroys the OSD
  // while the store stays mounted, and a power cut crashes the store with
  // device reads still in flight. Those callbacks must be dropped, not run
  // into freed memory; the client then resends on silence.
  Env env;
  auto cfg = small_cfg(GetParam());
  cfg.client.resend_timeout = 500'000'000;
  Cluster cluster(env, cfg);
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    auto io = cluster.client().io_ctx(1);
    constexpr std::size_t kSize = 1 << 20;
    const auto objs = objects_led_by(cluster, 0, 8, "td", /*distinct_pgs=*/false);
    for (std::size_t i = 0; i < objs.size(); ++i) {
      ASSERT_TRUE(io.write_full(objs[i], BufferList::copy_of(pattern(
                                             kSize, static_cast<unsigned>(i))))
                      .ok());
    }
    auto read_all_across = [&](const std::function<void()>& teardown) {
      std::vector<client::AioCompletionRef> reads;
      for (const auto& o : objs) reads.push_back(io.aio_read(o, 0, 0));
      env.keeper().sleep_for(1'000'000);  // requests reached osd.0's store
      teardown();
      for (std::size_t i = 0; i < reads.size(); ++i) {
        if (reads[i]->wait().ok()) {
          EXPECT_EQ(reads[i]->data().to_string(),
                    pattern(kSize, static_cast<unsigned>(i)));
        }
      }
    };
    read_all_across([&] { ASSERT_TRUE(cluster.restart_osd(0).ok()); });
    read_all_across([&] {
      ASSERT_TRUE(cluster.hard_kill_osd(0).ok());
      ASSERT_TRUE(cluster.restart_osd(0).ok());
    });
    cluster.stop();
  });
}

TEST(ClusterFailover, OsdFailureIsDetectedAndWritesContinue) {
  Env env;
  auto cfg = small_cfg(DeployMode::baseline);
  cfg.osd_template.heartbeat_grace = 2'000'000'000;
  Cluster cluster(env, cfg);
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    auto io = cluster.client().io_ctx(1);
    ASSERT_TRUE(io.write_full("pre-failure", BufferList::copy_of("v1")).ok());

    // Kill osd.1; osd.0's heartbeats stop being answered, it reports the
    // failure, the MON republishes, and all PGs re-home to osd.0.
    cluster.osd(1).shutdown();
    const auto epoch_before = cluster.monitor().epoch();
    while (cluster.monitor().current_map().is_up(1)) {
      env.keeper().sleep_for(200'000'000);
    }
    EXPECT_GT(cluster.monitor().epoch(), epoch_before);

    // Writes keep working (degraded, single replica).
    ASSERT_TRUE(io.write_full("post-failure", BufferList::copy_of("v2")).ok());
    auto r = io.read("post-failure", 0, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), "v2");
    cluster.stop();
  });
}

}  // namespace
}  // namespace doceph::cluster
