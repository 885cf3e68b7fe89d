// Chaos: partitions. (1) The DPU proxy loses its CommChannel to the host —
// inline and DMA-path writes and a DMA-path read must time out (bumping
// l_dpu_rpc_timeout and returning their staging extents) instead of
// hanging, and traffic must
// flow again once the partition heals; a fallback probe lost with its
// request is handed out again. (2) A client is partitioned from one storage
// node — the hardened client fails the op at its deadline instead of
// hanging, while ops whose primary is unaffected still succeed.
#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "chaos_util.h"
#include "cluster/cluster.h"

namespace doceph::proxy {
namespace {

using namespace doceph::sim;
using doceph::testing::ChaosProxyNode;
using doceph::testing::pattern;
using doceph::testing::run_sim;

TEST(ChaosPartition, DpuHostPartitionTimesOutThenHeals) {
  Env env(TimeKeeper::Mode::virtual_time, /*seed=*/5);
  run_sim(env, [&] {
    ProxyConfig pcfg;
    pcfg.rpc_timeout = 200'000'000;  // 200 ms: fail fast under partition
    ChaosProxyNode node(env, pcfg);
    ASSERT_TRUE(node.up().ok());
    ASSERT_TRUE(node.write("pre", 2048, 1).ok());  // inline-sized, healthy
    ASSERT_TRUE(node.write("pre64k", 64 << 10, 5).ok());

    // Drop every CommChannel message in both directions ("dpu-0" matches
    // "dpu-0/h2d" and "dpu-0/d2h"): the host is unreachable. A state-like
    // spec (always-on while armed) models the partition.
    fault::FaultSpec part;
    part.fire_at_time = 0;
    part.match = "dpu-0";
    env.faults().set("doca.comch_drop", part);

    // Inline-sized (the submit_txn reply is lost) and DMA-path (the
    // stage_segment ack is lost) writes both fail at the request deadline.
    std::uint64_t timeouts = 0;
    for (const auto& [name, bytes] : {std::pair<std::string, std::size_t>{"lost", 2048},
                                      {"lost64k", 64 << 10}}) {
      const Time t0 = env.now();
      const Status st = node.write(name, bytes, 2);
      EXPECT_EQ(st.code(), Errc::timed_out) << bytes << ": " << st.to_string();
      const Time elapsed = env.now() - t0;
      EXPECT_GE(elapsed, pcfg.rpc_timeout) << bytes;
      EXPECT_LT(elapsed, pcfg.rpc_timeout + 100'000'000) << bytes;
      const auto now_timeouts = node.proxy->perf_counters()->get(l_dpu_rpc_timeout);
      EXPECT_GT(now_timeouts, timeouts) << bytes;
      timeouts = now_timeouts;
    }

    // A 64 KiB read holds a read-landing extent while its read_obj is lost.
    {
      const Time t0 = env.now();
      auto r = node.proxy->read(ChaosProxyNode::kColl, {1, "pre64k"}, 0, 64 << 10);
      EXPECT_EQ(r.status().code(), Errc::timed_out) << r.status().to_string();
      const Time elapsed = env.now() - t0;
      EXPECT_GE(elapsed, pcfg.rpc_timeout);
      EXPECT_LT(elapsed, pcfg.rpc_timeout + 100'000'000);
      EXPECT_GT(node.proxy->perf_counters()->get(l_dpu_rpc_timeout), timeouts);
    }

    // Heal: nothing of the failed requests is left pending, so the same PG
    // takes the next writes, and every staging byte is back.
    env.faults().clear("doca.comch_drop");
    ASSERT_TRUE(node.write("lost", 2048, 2).ok());
    ASSERT_TRUE(node.write("post", 2048, 3).ok());
    ASSERT_TRUE(node.write("lost64k", 64 << 10, 4).ok());
    EXPECT_EQ(node.proxy->slots().free_bytes(), node.proxy->slots().capacity());
    auto big = node.store->read(ChaosProxyNode::kColl, {1, "lost64k"}, 0, 0);
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(big->to_string(), pattern(64 << 10, 4));
    auto again = node.proxy->read(ChaosProxyNode::kColl, {1, "pre64k"}, 0, 64 << 10);
    ASSERT_TRUE(again.ok()) << again.status().to_string();
    EXPECT_EQ(again->to_string(), pattern(64 << 10, 5));
    EXPECT_EQ(node.proxy->slots().free_bytes(), node.proxy->slots().capacity());
    EXPECT_EQ(node.proxy->slots().landing_free_bytes(),
              node.proxy->slots().landing_capacity());

    for (const auto& [name, seed] :
         {std::pair<std::string, unsigned>{"pre", 1}, {"lost", 2}, {"post", 3}}) {
      auto r = node.store->read(ChaosProxyNode::kColl, {1, name}, 0, 0);
      ASSERT_TRUE(r.ok()) << name;
      EXPECT_EQ(r->to_string(), pattern(2048, seed)) << name;
    }
    node.down();
  });
}

TEST(ChaosPartition, StalledHandoffKeepsItsExtentUntilTheHostIsPast) {
  // A 16 KiB write sends one DPU->host message: its stage frame and its
  // submit. Stall that message past the write's deadline. Until the host has
  // handled it, the host may still copy the extent, so the aborted write's
  // extent must stay out of the arena.
  Env env(TimeKeeper::Mode::virtual_time, doceph::testing::env_seed(7));
  run_sim(env, [&] {
    ProxyConfig pcfg;
    pcfg.rpc_timeout = 200'000'000;
    ChaosProxyNode node(env, pcfg);
    ASSERT_TRUE(node.up().ok());
    StagingArena& arena = node.proxy->slots();
    constexpr std::size_t kLen = 16 << 10;

    fault::FaultSpec stall;
    stall.fire_at_time = 0;
    stall.count = 1;
    stall.delay_ns = 300'000'000;
    stall.match = "dpu-0/d2h";
    env.faults().set("doca.comch_stall", stall);
    EXPECT_EQ(node.write("a", kLen, 1).code(), Errc::timed_out);
    EXPECT_EQ(arena.free_bytes(), arena.capacity() - kLen);

    // The next write stages while a's message is still stalled. Had it
    // been given a's extent, the host would copy b's bytes into a.
    std::mutex m;
    sim::CondVar cv(env.keeper());
    bool done = false;
    Status b_st;
    os::Transaction t;
    t.write(ChaosProxyNode::kColl, {1, "b"}, 0, BufferList::copy_of(pattern(kLen, 2)));
    node.proxy->queue_transaction(std::move(t), [&](Status st) {
      const std::lock_guard<std::mutex> lk(m);
      b_st = st;
      done = true;
      cv.notify_all();
    });
    env.keeper().sleep_for(50'000'000);  // b's DMA is done; its message waits
    EXPECT_EQ(arena.free_bytes(), arena.capacity() - 2 * kLen);
    {
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return done; });
    }
    EXPECT_TRUE(b_st.ok()) << b_st.to_string();
    env.faults().clear("doca.comch_stall");

    // The host handled a's message after its deadline: a committed with its
    // own bytes, and every extent is back.
    for (const auto& [name, seed] :
         {std::pair<std::string, unsigned>{"a", 1}, {"b", 2}}) {
      auto r = node.store->read(ChaosProxyNode::kColl, {1, name}, 0, 0);
      ASSERT_TRUE(r.ok()) << name;
      EXPECT_EQ(r->to_string(), pattern(kLen, seed)) << name;
    }
    EXPECT_EQ(arena.free_bytes(), arena.capacity());
    node.down();
  });
}

TEST(ChaosPartition, ProbeLostToPartitionIsHandedOutAgain) {
  // The fallback probe goes to a write that then waits for arena bytes held
  // by a stalled handoff, and the write dies at its deadline before it gets
  // them. The probe never reached the engine, so it is handed out again.
  Env env(TimeKeeper::Mode::virtual_time, /*seed=*/5);
  run_sim(env, [&] {
    ProxyConfig pcfg;
    pcfg.slots = 1;                 // one 2 MiB segment of arena
    pcfg.cooldown = 1'000'000;      // 1 ms
    pcfg.rpc_timeout = 200'000'000;
    ChaosProxyNode node(env, pcfg);
    ASSERT_TRUE(node.up().ok());
    StagingArena& arena = node.proxy->slots();
    FallbackManager& fallback = node.proxy->fallback();

    // Each write goes to its own PG, so none waits on another's FIFO.
    std::mutex m;
    sim::CondVar cv(env.keeper());
    int finished = 0;
    std::map<std::string, Status> st;
    const auto queue = [&](std::uint32_t pg, const std::string& name, std::size_t len) {
      os::Transaction t;
      t.create_collection({1, pg});
      t.write_full({1, pg}, {1, name}, BufferList::copy_of(pattern(len, pg)));
      node.proxy->queue_transaction(std::move(t), [&, name](Status s) {
        const std::lock_guard<std::mutex> lk(m);
        st[name] = s;
        ++finished;
        cv.notify_all();
      });
    };

    // h's handoff message stalls past every deadline below: its 1 MiB
    // extent stays out of the arena until the host is past the message.
    fault::FaultSpec stall;
    stall.fire_at_time = 0;
    stall.count = 1;
    stall.delay_ns = 400'000'000;
    stall.match = "dpu-0/d2h";
    env.faults().set("doca.comch_stall", stall);
    queue(1, "h", 1 << 20);
    env.keeper().sleep_for(10'000'000);  // h's DMA is done; its message waits
    EXPECT_EQ(arena.free_bytes(), arena.capacity() - (1 << 20));

    // a's DMA job fails, which turns DMA off for the cooldown.
    node.dpu.dma().fail_next(1);
    queue(2, "a", 64 << 10);
    env.keeper().sleep_for(10'000'000);
    ASSERT_FALSE(fallback.dma_enabled());

    // Cooldown over: x's 2 MiB segment is the probe, and it waits for h's
    // extent past x's deadline.
    queue(3, "x", 2 << 20);
    {
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return finished == 3; });
    }
    EXPECT_EQ(st["x"].code(), Errc::timed_out) << st["x"].to_string();
    EXPECT_EQ(fallback.probes(), 1u);
    env.faults().clear("doca.comch_stall");

    // Once the host is past h's message, h's extent goes back and the dead
    // x is granted its bytes: it returns them and the probe.
    env.keeper().sleep_for(400'000'000);
    EXPECT_EQ(arena.free_bytes(), arena.capacity());
    EXPECT_FALSE(fallback.dma_enabled());

    // The next write gets the probe again and DMA comes back.
    ASSERT_TRUE(node.write("c", 64 << 10, 3).ok());
    EXPECT_EQ(fallback.probes(), 2u);
    EXPECT_TRUE(fallback.dma_enabled());
    EXPECT_EQ(fallback.recoveries(), 1u);
    EXPECT_EQ(arena.free_bytes(), arena.capacity());
    node.down();
  });
}

TEST(ChaosPartition, ClientDeadlineBoundsPartitionedOp) {
  Env env(TimeKeeper::Mode::virtual_time, /*seed=*/6);
  auto cfg = cluster::ClusterConfig::paper_testbed(cluster::DeployMode::baseline,
                                                   cluster::NetworkKind::gbe_100,
                                                   /*retain_data=*/true);
  cfg.pg_num = 8;
  cfg.client.resend_timeout = 500'000'000;   // resend every 0.5 s of silence
  cfg.client.op_deadline = 3'000'000'000;    // give up after 3 s
  cluster::Cluster cl(env, cfg);
  run_sim(env, [&] {
    ASSERT_TRUE(cl.start().ok());
    auto io = cl.client().io_ctx(1);

    // Pick one object homed on each OSD so the partition's blast radius is
    // observable: osd.0 is unreachable, osd.1 is fine.
    const auto map = cl.monitor().current_map();
    std::string on_osd0;
    std::string on_osd1;
    for (int i = 0; on_osd0.empty() || on_osd1.empty(); ++i) {
      const std::string name = "part" + std::to_string(i);
      const int primary = map.pg_primary(map.object_to_pg(1, name));
      if (primary == 0 && on_osd0.empty()) on_osd0 = name;
      if (primary == 1 && on_osd1.empty()) on_osd1 = name;
    }

    // One-way blackhole client -> storage-0: requests (and resends) vanish
    // in flight. The MON and inter-OSD paths are untouched, so the map
    // keeps osd.0 up and the client cannot fail over — the op must die at
    // its own deadline.
    fault::FaultSpec part;
    part.fire_at_time = 0;
    part.match = "client-host>storage-0";
    env.faults().set("net.partition", part);

    const Time t0 = env.now();
    const Status st = io.write_full(on_osd0, BufferList::copy_of(pattern(64 << 10)));
    EXPECT_EQ(st.code(), Errc::timed_out) << st.to_string();
    const Time elapsed = env.now() - t0;
    EXPECT_GE(elapsed, cfg.client.op_deadline);
    EXPECT_LT(elapsed, cfg.client.op_deadline + 2'000'000'000);
    EXPECT_GE(cl.client().perf_counters()->get(client::l_client_op_timeout), 1u);

    // The unpartitioned path keeps working throughout.
    EXPECT_TRUE(
        io.write_full(on_osd1, BufferList::copy_of(pattern(64 << 10, 2))).ok());

    env.faults().clear("net.partition");
    cl.stop();
  });
}

}  // namespace
}  // namespace doceph::proxy
