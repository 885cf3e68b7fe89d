// Chaos: a DoCeph cluster is driven far past its admission bounds — 48
// writers flooding 16 KB fresh objects against an OSD op queue capped at 8
// — while a scripted osd.overload burst force-bounces a window of ops on
// top. End-to-end backpressure must degrade the run gracefully: every
// throttled op is retried and eventually commits (zero failed client ops),
// queue-depth high-water gauges stay bounded by the admission caps rather
// than the offered load, and the client's AIMD window visibly contracts.
// The throttle firing schedule is reproducible from the universe seed.
#include <gtest/gtest.h>

#include "chaos_util.h"
#include "client/rados_bench.h"
#include "cluster/cluster.h"

namespace doceph::cluster {
namespace {

using namespace doceph::sim;
using doceph::testing::run_sim;

constexpr std::size_t kQueueDepth = 8;    // OSD op-queue admission bound
constexpr std::size_t kInflight = 16;     // DPU proxy in-flight write cap
constexpr int kWriters = 48;              // offered load >> every bound
constexpr std::int64_t kBurst = 40;       // forced osd.overload bounces

ClusterConfig overload_cfg() {
  auto cfg = ClusterConfig::paper_testbed(DeployMode::doceph, NetworkKind::gbe_100,
                                          /*retain_data=*/false);
  cfg.pg_num = 8;
  cfg.osd_template.max_queue_depth = kQueueDepth;
  cfg.osd_template.max_conn_inflight = 24;
  cfg.proxy.max_inflight = kInflight;
  cfg.client.cwnd_init = kWriters;  // start wide open: the first wave overloads

  // The chaos script: force-bounce the first kBurst ops to reach dispatch,
  // regardless of actual queue occupancy. Hit-indexed (force_next), not
  // time-windowed: runnable sim threads execute concurrently in real time,
  // so per-op virtual timestamps can drift by nanoseconds run-to-run and a
  // wall-clock window would shift its boundary op; the hit sequence is the
  // deterministic coordinate system.
  fault::FaultSpec burst;
  burst.force_next = kBurst;
  cfg.initial_faults = {{"osd.overload", burst}};
  return cfg;
}

void overload_scenario(Env& env) {
  Cluster cl(env, overload_cfg());
  ASSERT_TRUE(cl.start().ok());

  client::BenchConfig bcfg;
  bcfg.concurrency = kWriters;
  bcfg.object_size = 16 << 10;
  bcfg.duration = 1'500'000'000;  // 1.5 s of sustained fresh-object writes
  bcfg.prefix = "flood";
  client::RadosBench bench(cl.client(), bcfg);
  const auto res = bench.run(&cl.client_cpu());

  // Graceful degradation: the cluster sheds load by delaying, never by
  // failing — every op the bench issued eventually committed.
  EXPECT_EQ(res.failed, 0u);
  EXPECT_GT(res.ops, 0u);

  // Throttles actually fired: at minimum the forced burst, plus whatever
  // the real queue/conn bounds bounced, and the client saw every bounce.
  std::uint64_t osd_throttled = 0;
  for (int i = 0; i < cl.num_nodes(); ++i)
    osd_throttled += cl.osd(i).perf_counters()->get(osd::l_osd_op_throttled);
  EXPECT_GE(osd_throttled, static_cast<std::uint64_t>(kBurst));
  EXPECT_GE(cl.client().perf_counters()->get(client::l_client_op_throttled),
            static_cast<std::uint64_t>(kBurst));

  // Bounded queues: the op-queue high-water tracks the admission cap, not
  // the 48-writer offered load. The queue also carries repops and internal
  // completions (exempt from admission — throttling them would wedge
  // in-flight writes), and up to three messenger workers race past the
  // peek-then-enqueue check, so allow headroom above the cap — but stay
  // well under the unbounded regime's high-water (the writer count).
  for (int i = 0; i < cl.num_nodes(); ++i) {
    const auto hw = cl.osd(i).perf_counters()->get(osd::l_osd_queue_depth_hw);
    EXPECT_LE(hw, 3 * kQueueDepth) << "osd." << i;
    if (auto* p = cl.proxy_store(i)) {
      // Admission counts and caps in one step, so the cap is exact.
      const auto phw = p->perf_counters()->get(proxy::l_dpu_inflight_hw);
      EXPECT_LE(phw, kInflight) << "proxy." << i;
    }
  }

  // AIMD reacted: the congestion window contracted below its initial size.
  EXPECT_LT(cl.client().perf_counters()->get(client::l_client_cwnd),
            static_cast<std::uint64_t>(kWriters));

  cl.stop();
}

TEST(ChaosOverload, FloodDegradesGracefullyUnderBackpressure) {
  const auto log = doceph::testing::chaos_run(/*seed=*/7177, overload_scenario);
  // The scripted burst fired on exactly the first kBurst dispatch hits.
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kBurst));
  for (std::size_t i = 0; i < log.size(); ++i)
    EXPECT_EQ(log[i], "osd.overload#" + std::to_string(i + 1));  // hits are 1-based
}

TEST(ChaosOverload, ThrottleScheduleIsSeedReproducible) {
  doceph::testing::expect_reproducible(doceph::testing::env_seed(7177),
                                       overload_scenario);
}

}  // namespace
}  // namespace doceph::cluster
