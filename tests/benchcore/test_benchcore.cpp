#include <gtest/gtest.h>

#include <cstdio>

#include "benchcore/experiment.h"
#include "benchcore/table.h"

namespace doceph::benchcore {
namespace {

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::pct(0.825), "82.5%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

TEST(RunSpec, CellNameIsStableAndDistinct) {
  RunSpec a;
  RunSpec b;
  EXPECT_EQ(a.cell_name(), b.cell_name());
  b.object_size = 16 << 20;
  EXPECT_NE(a.cell_name(), b.cell_name());
  RunSpec c;
  c.mode = cluster::DeployMode::doceph;
  EXPECT_NE(a.cell_name(), c.cell_name());
  RunSpec d;
  d.proxy_override = cluster::default_proxy();
  d.proxy_override->slots = 4;
  EXPECT_NE(a.cell_name(), d.cell_name());
  RunSpec e;
  e.dma_failure_rate = 0.01;
  EXPECT_NE(a.cell_name(), e.cell_name());
}

TEST(RunSpec, ShardedCellNamesNameTheDiagonalOrTheSplit) {
  // Distinct cells need distinct `%k` trace files. shards = N deploys 2N op
  // threads and N KV shards: `_shN`, however it is spelled. Off the
  // diagonal the name carries both counts.
  RunSpec diag;
  diag.shards = 4;
  RunSpec spelled;
  spelled.op_threads_override = 8;
  spelled.kv_shards_override = 4;
  EXPECT_EQ(diag.cell_name(), RunSpec{}.cell_name() + "_sh4");
  EXPECT_EQ(spelled.cell_name(), diag.cell_name());
  RunSpec split;
  split.op_threads_override = 8;
  EXPECT_EQ(split.cell_name(), RunSpec{}.cell_name() + "_th8x1");
  RunSpec unsharded;
  unsharded.op_threads_override = 2;
  EXPECT_EQ(unsharded.cell_name(), RunSpec{}.cell_name());
}

TEST(BreakdownSnapshot, OthersIsResidualAndNonNegative) {
  proxy::BreakdownSnapshot bd;
  bd.count = 2;
  bd.total_ns = 100;
  bd.dma_ns = 20;
  bd.dma_wait_ns = 30;
  bd.host_write_ns = 10;
  EXPECT_DOUBLE_EQ(bd.others_ns_avg(), 20.0 * 1e-9);
  // Components exceeding total (overlap) clamp to zero rather than go
  // negative.
  bd.dma_ns = 200;
  EXPECT_DOUBLE_EQ(bd.others_ns_avg(), 0.0);
}

TEST(Experiment, ShortRunProducesCoherentMetrics) {
  for (const auto mode : {cluster::DeployMode::baseline, cluster::DeployMode::doceph}) {
    const bool doceph = mode == cluster::DeployMode::doceph;
    SCOPED_TRACE(doceph ? "doceph" : "baseline");
    // A paper cell (1 MB writes, 16 clients, 64 PGs) over a short window.
    RunSpec spec;
    spec.mode = mode;
    spec.object_size = 1 << 20;
    spec.warmup = 200'000'000;
    spec.measure = 800'000'000;
    const auto r = run_experiment(spec);
    EXPECT_GT(r.ops, 0u);
    EXPECT_EQ(r.failed_ops, 0u);
    EXPECT_GT(r.iops, 0.0);
    EXPECT_NEAR(r.mbps, r.iops * 1.048576, r.iops * 0.05);
    EXPECT_GT(r.avg_lat_s, 0.0);
    EXPECT_GT(r.share_messenger, 0.3);
    const double share_sum = r.share_messenger + r.share_objectstore + r.share_osd;
    EXPECT_LE(share_sum, 1.0 + 1e-9);
    EXPECT_GT(r.window_s, 0.7);
    // The backpressure envelope is always on and never binds on a paper
    // cell (DESIGN.md §14.5): no layer bounced a single op.
    EXPECT_EQ(r.osd_throttled, 0u);
    EXPECT_EQ(r.client_throttled, 0u);
    EXPECT_EQ(r.proxy_throttled, 0u);
    if (doceph) {
      EXPECT_GT(r.dpu_cores, r.host_cores);  // the offload, in one assertion
      EXPECT_GT(r.bd_total_s, 0.0);
      EXPECT_GE(r.bd_total_s,
                r.bd_dma_s);  // total covers its components on average
    } else {
      EXPECT_GT(r.host_cores, r.dpu_cores);
    }
  }
}

}  // namespace
}  // namespace doceph::benchcore
