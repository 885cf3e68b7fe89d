// Ablation of write-path sharding (DESIGN.md §15): sweep the OSD op-thread
// and KV-shard counts over the 16 KB qd64 fresh-object small-write
// workload — the lap where BENCH_pr8.json showed two op threads and the
// single KvStore group-commit stream capping DoCeph throughput. The
// diagonal (2N threads, N KV shards: what RunSpec::shards = N deploys)
// shows the end-to-end win; the off-diagonal rows split the knobs to
// attribute it (op threads alone vs KV streams alone).
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

/// One swept cell: the 16 KB qd64 fresh-object lap, the acceptance
/// workload for the sharded write path.
RunSpec small_write_spec(int op_threads, int kv_shards) {
  RunSpec spec;
  spec.mode = cluster::DeployMode::doceph;
  spec.object_size = 16 << 10;
  spec.concurrency = 64;
  spec.warmup = 200'000'000;   // 200 ms
  spec.measure = 250'000'000;  // 250 ms: sized so the fastest sharded cell's
                               // fresh-object KV growth stays under nearfull
  spec.op_threads_override = op_threads;
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

  print_banner("Ablation", "write-path sharding: op threads x KV shards (16KB qd64)");

  struct Cell {
    int op_threads;
    int kv_shards;
    RunResult r;
  };
  std::vector<Cell> cells;

  // Diagonal (2N threads, N KV shards): what RunSpec::shards = N deploys.
  for (const int n : {1, 2, 4, 8}) cells.push_back({2 * n, n, {}});
  // Split rows: each knob alone at the headline count, to attribute the win.
  cells.push_back({8, 1, {}});
  cells.push_back({2, 4, {}});

  double base_iops = 0;
  Table t({"op thr", "kv", "IOPS", "speedup", "p99 (s)", "queue (s)", "store (s)",
           "failed"});
  for (auto& c : cells) {
    c.r = run_experiment(small_write_spec(c.op_threads, c.kv_shards));
    if (c.op_threads == 2 && c.kv_shards == 1) base_iops = c.r.iops;
    t.row({std::to_string(c.op_threads), std::to_string(c.kv_shards),
           Table::num(c.r.iops, 1),
           base_iops > 0 ? Table::num(c.r.iops / base_iops, 2) + "x" : "-",
           Table::num(c.r.p99_lat_s, 4), Table::num(c.r.stage_queue_s, 4),
           Table::num(c.r.stage_store_s, 4),
           std::to_string(c.r.failed_ops)});
  }
  t.print();
  const auto cell = [&](int op_threads, int kv_shards) -> const RunResult& {
    for (const auto& c : cells)
      if (c.op_threads == op_threads && c.kv_shards == kv_shards) return c.r;
    return cells.front().r;
  };
  const RunResult& base = cell(2, 1);
  const RunResult& top = cell(16, 8);
  const RunResult& diag8 = cell(8, 4);
  const RunResult& one_kv = cell(8, 1);
  const RunResult& kv_only = cell(2, 4);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::printf(
      "\nReading (from the rows above): the diagonal reaches %.2fx at 16x8, and\n"
      "the OSD queue stage falls %.1f -> %.1f ms. KV shards alone (2x4) run\n"
      "%.2fx the 2x1 rate. Eight op threads on one KV stream (8x1) run %.2fx\n"
      "the ops/s of 8x4 at %.2fx its p99.\n",
      ratio(top.iops, base.iops), base.stage_queue_s * 1e3, top.stage_queue_s * 1e3,
      ratio(kv_only.iops, base.iops), ratio(one_kv.iops, diag8.iops),
      ratio(one_kv.p99_lat_s, diag8.p99_lat_s));

  if (!out_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("cells");
    w.begin_array();
    for (const auto& c : cells) {
      w.begin_object();
      w.kv("op_threads", static_cast<std::int64_t>(c.op_threads));
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
