#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "../test_util.h"
#include "cluster/cluster.h"

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

class ObservabilityTest : public ::testing::TestWithParam<DeployMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, ObservabilityTest,
                         ::testing::Values(DeployMode::baseline, DeployMode::doceph),
                         [](const auto& info) {
                           return info.param == DeployMode::baseline ? "Baseline"
                                                                     : "DoCeph";
                         });

TEST_P(ObservabilityTest, StageSumsMatchEndToEndLatency) {
  Env env;
  Cluster cluster(env, small_cfg(GetParam()));
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    auto io = cluster.client().io_ctx(1);
    const std::string payload = pattern(1 << 20);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          io.write_full("obj" + std::to_string(i), BufferList::copy_of(payload))
              .ok());
    }

    // Every completed op's stage decomposition must sum exactly to its
    // OSD-side span (the acceptance bound is 1%; the clamped chain is
    // exact by construction). Primary ops exist on at least one OSD.
    std::size_t checked = 0;
    for (int i = 0; i < cluster.num_nodes(); ++i) {
      cluster.osd(i).op_tracker().for_each_historic(
          [&](const osd::TrackedOp& op) {
            const auto bd = op.stage_breakdown();
            EXPECT_EQ(bd.sum(), bd.total_ns) << op.description();
            const sim::Time reply = op.last_event_time("reply_sent");
            ASSERT_GE(reply, 0) << op.description();
            EXPECT_EQ(bd.total_ns,
                      static_cast<std::uint64_t>(reply - op.initiated_at()));
            ++checked;
          });
    }
    EXPECT_GE(checked, 6u);

    // The OSD histograms aggregate the same decomposition: per-metric sums
    // must reproduce the total latency sum exactly.
    std::uint64_t total = 0, parts = 0;
    for (int i = 0; i < cluster.num_nodes(); ++i) {
      const auto& c = cluster.osd(i).perf_counters();
      total += c->hist(osd::l_osd_op_lat).sum;
      parts += c->hist(osd::l_osd_op_msgr_lat).sum +
               c->hist(osd::l_osd_op_queue_lat).sum +
               c->hist(osd::l_osd_op_store_lat).sum +
               c->hist(osd::l_osd_op_repl_lat).sum +
               c->hist(osd::l_osd_op_reply_lat).sum;
    }
    EXPECT_GT(total, 0u);
    EXPECT_EQ(parts, total);
    cluster.stop();
  });
}

TEST_P(ObservabilityTest, ReplyStageCoversTheReplyEncode) {
  // reply_sent is stamped once the messenger has encoded the reply, so a
  // 1 MiB read's reply stage holds the crc/encode of its payload, and the
  // stages still tile the op's span exactly.
  Env env;
  Cluster cluster(env, small_cfg(GetParam()));
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    auto io = cluster.client().io_ctx(1);
    const std::string payload = pattern(1 << 20);
    ASSERT_TRUE(io.write_full("big", BufferList::copy_of(payload)).ok());
    auto r = io.read("big", 0, 0);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->to_string(), payload);

    std::size_t reads = 0;
    for (int i = 0; i < cluster.num_nodes(); ++i) {
      cluster.osd(i).op_tracker().for_each_historic([&](const osd::TrackedOp& op) {
        if (op.description() != "osd_op(read big)") return;
        const auto bd = op.stage_breakdown();
        EXPECT_GT(bd.reply_ns, 0u);
        EXPECT_EQ(bd.sum(), bd.total_ns);
        ++reads;
      });
    }
    EXPECT_EQ(reads, 1u);
    cluster.stop();
  });
}

TEST_P(ObservabilityTest, DumpOpsInFlightSeesLiveOp) {
  Env env;
  Cluster cluster(env, small_cfg(GetParam()));
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    auto io = cluster.client().io_ctx(1);

    // aio_operate registers the tracked op before any sim-time passes, so
    // the client-side dump observes it mid-flight deterministically.
    auto c = io.aio_write_full("live", BufferList::copy_of(pattern(1 << 20)));
    const auto live =
        cluster.client().admin_socket().execute("dump_ops_in_flight");
    ASSERT_TRUE(live.ok());
    EXPECT_NE(live->find("client_op(write_full live)"), std::string::npos)
        << *live;

    ASSERT_TRUE(c->wait().ok());
    const auto drained =
        cluster.client().admin_socket().execute("dump_ops_in_flight");
    ASSERT_TRUE(drained.ok());
    EXPECT_NE(drained->find("\"ops_in_flight\":0"), std::string::npos);
    cluster.stop();
  });
}

TEST_P(ObservabilityTest, AdminDumpAggregatesAllDaemons) {
  Env env;
  Cluster cluster(env, small_cfg(GetParam()));
  run_sim(env, [&] {
    ASSERT_TRUE(cluster.start().ok());
    auto io = cluster.client().io_ctx(1);
    ASSERT_TRUE(io.write_full("obj", BufferList::copy_of(pattern(64 << 10))).ok());

    const std::string dump = cluster.admin_dump("perf dump");
    EXPECT_NE(dump.find("\"mon.0\""), std::string::npos);
    EXPECT_NE(dump.find("\"osd.0\""), std::string::npos);
    EXPECT_NE(dump.find("\"client\""), std::string::npos);
    EXPECT_NE(dump.find("\"msgr\""), std::string::npos);
    if (GetParam() == DeployMode::doceph) {
      EXPECT_NE(dump.find("\"dpu.0\""), std::string::npos);
      EXPECT_NE(dump.find("\"writes\""), std::string::npos);
    } else {
      // Baseline OSDs front BlueStore directly; its block rides along.
      EXPECT_NE(dump.find("\"bluestore\""), std::string::npos);
      // The KV checkpoint's share of the device writes (mkfs wrote one).
      EXPECT_NE(dump.find("\"kv_ckpt_bytes\""), std::string::npos);
      EXPECT_NE(dump.find("\"kv_ckpt_chunks\""), std::string::npos);
    }

    // Commands registered by a subset of daemons aggregate just those.
    const std::string historic = cluster.admin_dump("dump_historic_ops");
    EXPECT_NE(historic.find("\"osd.0\""), std::string::npos);
    EXPECT_EQ(historic.find("\"mon.0\""), std::string::npos);

    // reset_observability zeroes the measured window.
    cluster.reset_observability();
    for (int i = 0; i < cluster.num_nodes(); ++i) {
      EXPECT_EQ(cluster.osd(i).perf_counters()->get(osd::l_osd_op), 0u);
      EXPECT_EQ(cluster.osd(i).op_tracker().history_count(), 0u);
    }
    cluster.stop();

    // Shutdown unregisters every daemon's command surface.
    EXPECT_FALSE(cluster.client().admin_socket().has_command("perf dump"));
    EXPECT_FALSE(cluster.monitor().admin_socket().has_command("perf dump"));
  });
}

}  // namespace
}  // namespace doceph::cluster
