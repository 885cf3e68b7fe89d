// Ablation of write-path sharding (DESIGN.md §15): sweep the op-lane and
// KV-shard counts over the 16 KB qd64 fresh-object small-write workload —
// the lap where BENCH_pr8.json showed the single op queue and the single
// KvStore group-commit stream capping DoCeph throughput. The diagonal
// (op = kv) shows the end-to-end win; the off-diagonal rows split the
// knobs to attribute it (op lanes alone vs KV streams alone).
//
//   ablation_shards [--out FILE.json]
//
// --out additionally writes every swept cell as a JSON artifact (ops/s,
// p99, failed ops, per-stage latencies) for CI step summaries and
// scripts/perf_report.py.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "benchcore/experiment.h"
#include "benchcore/table.h"
#include "common/json.h"

using namespace doceph;
using namespace doceph::benchcore;

namespace {

/// One swept cell: the 16 KB qd64 fresh-object lap under the PR 8
/// backpressure envelope (the acceptance workload for the sharding PR).
RunSpec small_write_spec(int op_shards, int kv_shards) {
  RunSpec spec;
  spec.mode = cluster::DeployMode::doceph;
  spec.object_size = 16 << 10;
  spec.concurrency = 64;
  spec.backpressure = true;
  spec.warmup = 200'000'000;   // 200 ms
  spec.measure = 250'000'000;  // 250 ms: sized so the fastest sharded cell's
                               // fresh-object KV growth stays under nearfull
  spec.op_shards_override = op_shards;
  spec.kv_shards_override = kv_shards;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", arg.c_str());
      return 2;
    }
  }

  print_banner("Ablation", "write-path sharding: op lanes x KV shards (16KB qd64)");

  struct Cell {
    int op_shards;
    int kv_shards;
    RunResult r;
  };
  std::vector<Cell> cells;

  // Diagonal (op = kv): the configuration RunSpec::shards deploys.
  for (const int n : {1, 2, 4, 8}) cells.push_back({n, n, {}});
  // Split rows: each knob alone at the headline count, to attribute the win.
  cells.push_back({4, 1, {}});
  cells.push_back({1, 4, {}});

  double base_iops = 0;
  Table t({"op", "kv", "IOPS", "speedup", "p99 (s)", "queue (s)", "store (s)",
           "failed"});
  for (auto& c : cells) {
    c.r = run_cached(small_write_spec(c.op_shards, c.kv_shards));
    if (c.op_shards == 1 && c.kv_shards == 1) base_iops = c.r.iops;
    t.row({std::to_string(c.op_shards), std::to_string(c.kv_shards),
           Table::num(c.r.iops, 1),
           base_iops > 0 ? Table::num(c.r.iops / base_iops, 2) + "x" : "-",
           Table::num(c.r.p99_lat_s, 4), Table::num(c.r.stage_queue_s, 4),
           Table::num(c.r.stage_store_s, 4),
           std::to_string(c.r.failed_ops)});
  }
  t.print();
  std::printf(
      "\nReading: on the offload path, op lanes carry the gain (the OSD\n"
      "queue stage falls, and the proxy overlaps the extra requests in\n"
      "flight); KV shards alone are flat (row 1x4), but four lanes on one\n"
      "KV commit stream (row 4x1) pay for it in p99. Ordering is untouched\n"
      "— ops for one object share a PG, hence a lane, hence a KV shard\n"
      "(DESIGN.md §15).\n");

  if (!out_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("cells");
    w.begin_array();
    for (const auto& c : cells) {
      w.begin_object();
      w.kv("op_shards", static_cast<std::int64_t>(c.op_shards));
      w.kv("kv_shards", static_cast<std::int64_t>(c.kv_shards));
      w.kv("ops_per_sec", c.r.iops);
      w.kv("speedup", base_iops > 0 ? c.r.iops / base_iops : 0.0);
      w.kv("p99_lat_s", c.r.p99_lat_s);
      w.kv("host_cores", c.r.host_cores);
      w.kv("failed_ops", static_cast<std::int64_t>(c.r.failed_ops));
      w.kv("osd_throttled", static_cast<std::int64_t>(c.r.osd_throttled));
      w.key("stages_s");
      w.begin_object();
      w.kv("messenger", c.r.stage_msgr_s);
      w.kv("queue", c.r.stage_queue_s);
      w.kv("store", c.r.stage_store_s);
      w.kv("replication", c.r.stage_repl_s);
      w.kv("reply", c.r.stage_reply_s);
      w.kv("total", c.r.stage_total_s);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << w.str() << "\n";
    std::fprintf(stderr, "[ablation-shards] wrote %s\n", out_path.c_str());
  }
  return 0;
}
