// Chaos: power-loss kill under the SHARDED write path (8 op threads,
// kv_shards = 4, DESIGN.md §15). The hard-kill drill from
// test_chaos_hard_kill gets the extra hazard sharding introduces: at the
// kill instant eight op threads and four KV sync threads are mid-commit
// independently, so the remount must locate four per-shard checkpoints and
// replay four WAL sub-regions — and any cross-shard chain cut mid-flight
// must surface as a failed (never acked-then-lost) op. Recovery then runs
// over the eight op threads too (PG scans are served in parallel). The
// seed comes from env_seed() so the nightly chaos matrix sweeps the drill
// across universes.
#include <gtest/gtest.h>

#include "chaos_util.h"
#include "cluster/cluster.h"

namespace doceph::cluster {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

constexpr Time kKillAt = 3'000'000'000;     // 3 s into the bench
constexpr Time kRestartAt = 8'000'000'000;  // revive 5 s later
constexpr int kObjects = 16;
constexpr std::size_t kObjBytes = 64 << 10;

ClusterConfig sharded_chaos_cfg(DeployMode mode) {
  auto cfg = ClusterConfig::paper_testbed(mode, NetworkKind::gbe_100,
                                          /*retain_data=*/true);
  cfg.pg_num = 8;
  cfg.osd_template.op_threads = 8;
  cfg.kv_shards = 4;
  cfg.osd_template.heartbeat_grace = 2'000'000'000;
  cfg.osd_template.recovery_quiesce = 500'000'000;
  cfg.osd_template.tick_interval = 250'000'000;
  cfg.client.resend_timeout = 1'000'000'000;

  fault::FaultSpec kill;
  kill.fire_at_time = kKillAt;
  kill.count = 1;
  kill.match = "osd.1";
  fault::FaultSpec restart;
  restart.fire_at_time = kRestartAt;
  restart.count = 1;
  restart.match = "osd.1";
  cfg.initial_faults = {{"osd.hard_crash", kill}, {"osd.restart", restart}};
  return cfg;
}

void sharded_hard_kill(Env& env, DeployMode mode) {
  Cluster cl(env, sharded_chaos_cfg(mode));
  ASSERT_TRUE(cl.start().ok());
  auto io = cl.client().io_ctx(1);

  // Sequential laps spanning the kill and the revival; objects spread over
  // 8 PGs on both OSDs.
  for (int i = 0; i < kObjects; ++i) {
    const Status st = io.write_full(
        "obj" + std::to_string(i),
        BufferList::copy_of(pattern(kObjBytes, static_cast<unsigned>(i))));
    ASSERT_TRUE(st.ok()) << "obj" << i << ": " << st.to_string();
    env.keeper().sleep_for(600'000'000);
  }

  EXPECT_GT(env.now(), kRestartAt);

  // The revived OSD remounts a 4-shard store: per-shard checkpoint locate
  // + replay on every sub-region, then rejoins and recovers.
  while (!cl.monitor().current_map().is_up(1))
    env.keeper().sleep_for(200'000'000);
  EXPECT_TRUE(cl.blue_store(1).is_mounted());
  cl.wait_all_clean();

  // Zero divergence across replicas — including objects whose commits the
  // kill cut mid-chain (they were either never acked or fully replayed).
  const auto rep = cl.scrub_replicas();
  EXPECT_EQ(rep.objects, static_cast<std::uint64_t>(kObjects));
  EXPECT_TRUE(rep.clean()) << [&] {
    std::string all;
    for (const auto& e : rep.errors) all += e + "\n";
    return all;
  }();
  cl.stop();
}

TEST(ChaosSharded, DocephHardKillAtFourShardsRecoversClean) {
  const auto log =
      doceph::testing::chaos_run(doceph::testing::env_seed(5151), [](Env& env) {
        sharded_hard_kill(env, DeployMode::doceph);
      });
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].rfind("osd.hard_crash@osd.1#", 0) == 0) << log[0];
  EXPECT_TRUE(log[1].rfind("osd.restart@osd.1#", 0) == 0) << log[1];
}

TEST(ChaosSharded, BaselineHardKillAtFourShardsRecoversClean) {
  const auto log =
      doceph::testing::chaos_run(doceph::testing::env_seed(5252), [](Env& env) {
        sharded_hard_kill(env, DeployMode::baseline);
      });
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].rfind("osd.hard_crash@osd.1#", 0) == 0) << log[0];
  EXPECT_TRUE(log[1].rfind("osd.restart@osd.1#", 0) == 0) << log[1];
}

TEST(ChaosSharded, ShardedKillScheduleIsSeedReproducible) {
  doceph::testing::expect_reproducible(
      doceph::testing::env_seed(5151),
      [](Env& env) { sharded_hard_kill(env, DeployMode::doceph); });
}

}  // namespace
}  // namespace doceph::cluster
