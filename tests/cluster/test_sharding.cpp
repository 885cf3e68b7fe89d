// Full-cluster sharding contract (DESIGN.md §15): per-object write ordering
// must hold at every shard count (ops for one object share a PG, hence an
// ordering token, hence a KV shard), replicated writes fan out over the
// sharded pipeline, and a fixed shard count keeps same-seed runs
// byte-identical.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_util.h"
#include "cluster/cluster.h"

namespace doceph::cluster {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

ClusterConfig sharded_cfg(DeployMode mode, int shards) {
  auto cfg = ClusterConfig::paper_testbed(mode, NetworkKind::gbe_100,
                                          /*retain_data=*/true);
  cfg.pg_num = 16;
  cfg.osd_template.op_threads = 2 * shards;  // what RunSpec::shards deploys
  cfg.kv_shards = shards;
  return cfg;
}

/// 24 overlapping writes to ONE object (distinct payloads) racing 24
/// writes scattered over other objects to keep every op thread busy; the
/// read after the barrier must return the LAST write's payload — per-object
/// ordering survives op-thread parallelism because one object's ops share
/// a PG ordering token.
void ordering_drill(DeployMode mode, int shards) {
  Env env(TimeKeeper::Mode::virtual_time, 99);
  Cluster cl(env, sharded_cfg(mode, shards));
  run_sim(env, [&] {
    ASSERT_TRUE(cl.start().ok()) << "shards " << shards;
    auto io = cl.client().io_ctx(1);
    constexpr int kWrites = 24;
    std::vector<client::AioCompletionRef> pending;
    for (int i = 0; i < kWrites; ++i) {
      pending.push_back(io.aio_write_full(
          "hot", BufferList::copy_of(pattern(32 << 10, static_cast<unsigned>(i)))));
      pending.push_back(io.aio_write_full(
          "cold" + std::to_string(i),
          BufferList::copy_of(pattern(32 << 10, static_cast<unsigned>(100 + i)))));
    }
    for (auto& c : pending) {
      ASSERT_TRUE(c->wait().ok()) << "shards " << shards;
    }
    const auto got = io.read("hot", 0, 32 << 10);
    ASSERT_TRUE(got.ok()) << "shards " << shards;
    EXPECT_EQ(got->to_string(), pattern(32 << 10, kWrites - 1))
        << "out-of-order write won at shards " << shards;
    cl.stop();
  });
}

TEST(Sharding, PerObjectOrderingHoldsAcrossShardCounts) {
  for (const int shards : {1, 2, 4, 8}) {
    ordering_drill(DeployMode::baseline, shards);
  }
  // The offload path adds the proxy's per-PG write FIFOs; cover it at the
  // headline count plus unsharded.
  ordering_drill(DeployMode::doceph, 1);
  ordering_drill(DeployMode::doceph, 4);
}

TEST(Sharding, ThreeWayReplicationFansOutOverShardedOsds) {
  // replicas=3 over 3 storage nodes: every write spawns two concurrent
  // repops that land on the REPLICA OSDs' op queues (ordered by the repop's
  // PG ids, not by a re-hash of the name — see OSD::ms_dispatch).
  Env env(TimeKeeper::Mode::virtual_time, 7);
  auto cfg = sharded_cfg(DeployMode::baseline, 4);
  cfg.storage_nodes = 3;
  cfg.replicas = 3;
  Cluster cl(env, cfg);
  run_sim(env, [&] {
    ASSERT_TRUE(cl.start().ok());
    auto io = cl.client().io_ctx(1);
    std::vector<client::AioCompletionRef> pending;
    for (int i = 0; i < 32; ++i) {
      pending.push_back(io.aio_write_full(
          "rep" + std::to_string(i),
          BufferList::copy_of(pattern(16 << 10, static_cast<unsigned>(i)))));
    }
    for (auto& c : pending) ASSERT_TRUE(c->wait().ok());
    for (int i = 0; i < 32; ++i) {
      const auto got = io.read("rep" + std::to_string(i), 0, 16 << 10);
      ASSERT_TRUE(got.ok()) << i;
      EXPECT_EQ(got->to_string(), pattern(16 << 10, static_cast<unsigned>(i))) << i;
    }
    cl.stop();
  });
}

TEST(Sharding, SameSeedSameShardCountDumpsByteIdenticalTraces) {
  // Determinism is per shard count: two runs with identical seeds AND
  // identical shard counts must dump byte-identical traces (sequential ops
  // — the determinism contract covers a fixed schedule, not racing ops).
  const auto one_run = [](std::uint64_t seed, int shards) {
    Env env(TimeKeeper::Mode::virtual_time, seed);
    std::string dump;
    run_sim(env, [&] {
      Cluster cl(env, sharded_cfg(DeployMode::doceph, shards));
      ASSERT_TRUE(cl.start().ok());
      env.tracer().set_sample_every(1);
      auto io = cl.client().io_ctx(1);
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(io.write_full("obj" + std::to_string(i),
                                  BufferList::copy_of(pattern(256 << 10)))
                        .ok());
      }
      env.keeper().sleep_for(10'000'000);
      dump = cl.dump_traces();
      cl.stop();
    });
    return dump;
  };
  for (const int shards : {2, 4}) {
    const std::string a = one_run(42, shards);
    EXPECT_FALSE(a.empty()) << shards;
    EXPECT_EQ(a, one_run(42, shards)) << "nondeterministic at shards " << shards;
    EXPECT_NE(a, one_run(43, shards)) << shards;  // ids are seed-salted
  }
}

}  // namespace
}  // namespace doceph::cluster
