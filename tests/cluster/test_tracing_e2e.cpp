// End-to-end distributed tracing over the full cluster: a sampled write on
// the DoCeph deployment must produce one connected span tree covering every
// Fig.-2 stage — client submit, messenger dispatch, OSD execution (with the
// five-stage decomposition), DPU proxy comch/DMA, host backend, and the
// BlueStore WAL/KV commit — with stage durations that sum *exactly* to the
// OSD-side latency, and byte-identical dumps from identical seeds. The
// flight recorder is exercised through the real chaos path: a fault-driven
// power-loss kill snapshots the killed op's partial spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "../test_util.h"
#include "cluster/cluster.h"

namespace doceph::cluster {
namespace {

using namespace doceph::sim;
using doceph::testing::pattern;
using doceph::testing::run_sim;

ClusterConfig trace_cfg(DeployMode mode) {
  auto cfg = ClusterConfig::paper_testbed(mode, NetworkKind::gbe_100,
                                          /*retain_data=*/true);
  cfg.pg_num = 16;
  return cfg;
}

TEST(TracingE2E, SampledWriteCoversEveryFig2Stage) {
  Env env;
  Cluster cl(env, trace_cfg(DeployMode::doceph));
  run_sim(env, [&] {
    ASSERT_TRUE(cl.start().ok());
    // Arm the sampler only for the measured op so cluster bring-up traffic
    // stays out of the tree.
    env.tracer().set_sample_every(1);
    auto io = cl.client().io_ctx(1);
    ASSERT_TRUE(io.write_full("traced", BufferList::copy_of(pattern(1 << 20))).ok());
    // Let the client-side dispatch span of the reply retire.
    env.keeper().sleep_for(10'000'000);

    const auto spans = env.tracer().completed();
    std::set<std::string> names;
    for (const auto& s : spans) names.insert(s.name);
    for (const char* expected :
         {"client.op", "msgr.dispatch", "osd.op", "osd.stage.messenger",
          "osd.stage.queue", "osd.stage.store", "osd.stage.replication",
          "osd.stage.reply", "dpu.write", "dpu.rpc.submit_txn",
          "host.submit_txn", "bluestore.txn", "doca.dma_job"}) {
      EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;
    }

    // One client op => one trace, every span on it.
    std::set<std::uint64_t> traces;
    for (const auto& s : spans) traces.insert(s.trace_id);
    EXPECT_EQ(traces.size(), 1u);

    // The five stage spans are children of the (single) osd.op span,
    // contiguous, and exact-sum to its duration — the Fig.-2 decomposition
    // reproduced on the trace itself.
    const auto osd_op = std::find_if(spans.begin(), spans.end(),
                                     [](const auto& s) { return s.name == "osd.op"; });
    ASSERT_NE(osd_op, spans.end());
    EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                            [](const auto& s) { return s.name == "osd.op"; }),
              1);
    std::vector<trace::SpanRecord> stages;
    for (const auto& s : spans) {
      if (s.name.rfind("osd.stage.", 0) == 0) {
        EXPECT_EQ(s.parent_id, osd_op->span_id) << s.name;
        stages.push_back(s);
      }
    }
    ASSERT_EQ(stages.size(), 5u);
    std::sort(stages.begin(), stages.end(),
              [](const auto& a, const auto& b) { return a.start < b.start; });
    EXPECT_EQ(stages.front().start, osd_op->start);
    EXPECT_EQ(stages.back().end, osd_op->end);
    std::int64_t stage_sum = 0;
    for (std::size_t i = 0; i < stages.size(); ++i) {
      stage_sum += stages[i].end - stages[i].start;
      if (i + 1 < stages.size())
        EXPECT_EQ(stages[i].end, stages[i + 1].start)
            << stages[i].name << " -> " << stages[i + 1].name;
    }
    EXPECT_EQ(stage_sum, osd_op->end - osd_op->start);

    // The admin surface exposes the same data per daemon and aggregated.
    const auto client_dump = cl.client().admin_socket().execute("trace dump");
    ASSERT_TRUE(client_dump.ok());
    EXPECT_NE(client_dump->find("client.op"), std::string::npos);
    const std::string agg = cl.admin_dump("trace dump");
    EXPECT_NE(agg.find("\"osd.0\""), std::string::npos);
    EXPECT_NE(agg.find("\"client\""), std::string::npos);

    // dump_traces merges every domain into one Chrome trace.
    const std::string chrome = cl.dump_traces();
    EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(chrome.find("bluestore.txn"), std::string::npos);

    // OpTracker cross-link: historic dumps carry the op's trace ids.
    const std::string historic = cl.admin_dump("dump_historic_ops");
    EXPECT_NE(historic.find("\"trace_id\""), std::string::npos);

    cl.stop();
  });
}

TEST(TracingE2E, SampledDocephReadChainsDpuReadAndDmaJobs) {
  Env env;
  Cluster cl(env, trace_cfg(DeployMode::doceph));
  run_sim(env, [&] {
    ASSERT_TRUE(cl.start().ok());
    auto io = cl.client().io_ctx(1);
    const std::string content = pattern(1 << 20, 3);
    ASSERT_TRUE(io.write_full("traced", BufferList::copy_of(content)).ok());
    env.keeper().sleep_for(10'000'000);
    env.tracer().set_sample_every(1);  // only the read is sampled
    auto r = io.read("traced", 0, 0);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r->to_string(), content);
    env.keeper().sleep_for(10'000'000);

    // osd.op -> dpu.read -> {host.read, doca.dma_job}: the store read
    // carries the op's context, and the host's side of the read and the
    // read's DMA jobs carry the dpu.read span's.
    const auto spans = env.tracer().completed();
    const auto named = [&](const char* name) {
      std::vector<trace::SpanRecord> out;
      std::copy_if(spans.begin(), spans.end(), std::back_inserter(out),
                   [&](const auto& s) { return s.name == name; });
      return out;
    };
    const auto osd_ops = named("osd.op");
    const auto reads = named("dpu.read");
    ASSERT_EQ(osd_ops.size(), 1u);
    ASSERT_EQ(reads.size(), 1u);
    EXPECT_EQ(reads[0].parent_id, osd_ops[0].span_id);
    EXPECT_GE(reads[0].start, osd_ops[0].start);
    EXPECT_LE(reads[0].end, osd_ops[0].end);
    const auto host_reads = named("host.read");
    ASSERT_EQ(host_reads.size(), 1u);
    EXPECT_EQ(host_reads[0].parent_id, reads[0].span_id);
    const auto jobs = named("doca.dma_job");
    ASSERT_FALSE(jobs.empty());
    for (const auto& j : jobs) {
      EXPECT_EQ(j.parent_id, reads[0].span_id);
      // The DMA leg starts only once the host has staged the data.
      EXPECT_LE(host_reads[0].end, j.start);
    }
    cl.stop();
  });
}

TEST(TracingE2E, SameSeedRunsDumpByteIdenticalTraces) {
  const auto one_run = [](std::uint64_t seed) {
    Env env(TimeKeeper::Mode::virtual_time, seed);
    std::string dump;
    run_sim(env, [&] {
      Cluster cl(env, trace_cfg(DeployMode::doceph));
      ASSERT_TRUE(cl.start().ok());
      env.tracer().set_sample_every(1);
      auto io = cl.client().io_ctx(1);
      for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(io.write_full("obj" + std::to_string(i),
                                  BufferList::copy_of(pattern(1 << 20)))
                        .ok());
      }
      env.keeper().sleep_for(10'000'000);
      dump = cl.dump_traces();
      cl.stop();
    });
    return dump;
  };
  const std::string a = one_run(42);
  const std::string b = one_run(42);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, one_run(43));  // ids are seed-salted: different universe, different ids
}

TEST(TracingE2E, HardKillSnapshotsPartialSpansAndFaultFiring) {
  Env env(TimeKeeper::Mode::virtual_time, 777);
  Cluster cl(env, trace_cfg(DeployMode::doceph));
  run_sim(env, [&] {
    ASSERT_TRUE(cl.start().ok());
    env.tracer().set_sample_every(1);
    // Power-loss osd.1 ~300ms into the write stream, driven through the
    // real chaos path so the firing lands in the registry log the snapshot
    // captures.
    fault::FaultSpec kill;
    kill.fire_at_time = env.now() + 300'000'000;
    kill.count = 1;
    kill.match = "osd.1";
    env.faults().set("osd.hard_crash", kill);

    auto io = cl.client().io_ctx(1);
    // Keep sampled writes in flight across the kill.
    std::vector<decltype(io.aio_write_full("", BufferList{}))> pending;
    const Time t_end = env.now() + 600'000'000;
    int i = 0;
    while (env.now() < t_end) {
      pending.push_back(io.aio_write_full("obj" + std::to_string(i++),
                                          BufferList::copy_of(pattern(1 << 20))));
      env.keeper().sleep_for(5'000'000);
    }

    ASSERT_GE(env.tracer().flight_count(), 1u);
    const std::string flight = env.tracer().last_flight_json();
    EXPECT_NE(flight.find("\"reason\":\"osd.1.hard_crash\""), std::string::npos);
    // The killed op was mid-flight: its spans appear as partials.
    EXPECT_NE(flight.find("\"partial\":true"), std::string::npos);
    EXPECT_NE(flight.find("client.op"), std::string::npos);
    // ... and the fault that pulled the plug is in the snapshot.
    EXPECT_NE(flight.find("osd.hard_crash@osd.1#"), std::string::npos);
    cl.stop();
  });
}

}  // namespace
}  // namespace doceph::cluster
