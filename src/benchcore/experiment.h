#pragma once

#include <optional>
#include <string>

#include "cluster/cluster.h"
#include "proxy/proxy_object_store.h"

namespace doceph::benchcore {

/// One experimental configuration (a cell of the paper's sweep).
struct RunSpec {
  cluster::DeployMode mode = cluster::DeployMode::baseline;
  cluster::NetworkKind net = cluster::NetworkKind::gbe_100;
  std::uint64_t object_size = 4 << 20;
  int concurrency = 16;                       // rados bench -t 16 (paper §5.1)
  sim::Duration warmup = 1'000'000'000;       // 1 s
  sim::Duration measure = 4'000'000'000;      // 4 s
  std::uint32_t pg_num = 64;
  std::uint64_t seed = 42;

  /// Write-path sharding (DESIGN.md §15): N deploys ClusterConfig::kv_shards
  /// = N and OsdConfig::op_threads = 2N (the profile's two tp_osd_tp
  /// workers per shard). 1 (default) keeps the committed figure cells
  /// byte-identical; >1 adds a `_shN` cache-key suffix.
  int shards = 1;
  /// Ablation overrides splitting the diagonal: 0 = follow `shards`.
  int op_threads_override = 0;
  int kv_shards_override = 0;

  /// Ablation overrides for the proxy (DoCeph mode only).
  std::optional<proxy::ProxyConfig> proxy_override;
  /// DMA error injection rate (fallback experiments).
  double dma_failure_rate = 0.0;

  /// Distributed tracing: sample every Nth client op (0 = off) and, when
  /// `trace_out` is set, write the merged Chrome trace_event JSON for the
  /// run there. A `%k` in the path expands to cache_key(), so multi-cell
  /// figure harnesses can emit one trace per cell. Traced runs always
  /// execute (run_cached() bypasses the result cache); the trace fields are
  /// deliberately not part of the cache key.
  std::uint32_t trace_sample_every = 0;
  std::string trace_out;

  /// Stable cache key for this configuration.
  [[nodiscard]] std::string cache_key() const;
};

/// Parse the shared tracing flags (`--trace-out <file>`,
/// `--trace-sample <n>`) out of a harness's argv into the spec. Passing
/// only --trace-out defaults the sampler to 1-in-64. Unknown arguments are
/// left for the harness to reject or ignore.
void apply_trace_flags(RunSpec& spec, int argc, char** argv);

/// Everything the paper's tables/figures need from one run.
struct RunResult {
  // Throughput / latency (Figs. 8, 10; Fig. 6).
  double iops = 0;
  double mbps = 0;
  double avg_lat_s = 0;
  double p50_lat_s = 0;
  double p99_lat_s = 0;

  // CPU (Figs. 5, 7): average cores busy over the measurement window.
  double host_cores = 0;   // per storage node (paper's single-core-normalized %)
  double dpu_cores = 0;

  // Per-class share of storage-node CPU (Fig. 5). Fractions of ceph total.
  double share_messenger = 0;
  double share_objectstore = 0;
  double share_osd = 0;
  double total_ceph_cores = 0;  // messenger+objectstore+osd+other, in cores

  // Context switches over the window (Table 2), storage nodes only.
  std::uint64_t ctx_messenger = 0;
  std::uint64_t ctx_objectstore = 0;
  double window_s = 0;

  // DoCeph proxy breakdown (Table 3 / Fig. 9), averaged per request.
  double bd_host_write_s = 0;
  double bd_dma_s = 0;
  double bd_dma_wait_s = 0;
  double bd_others_s = 0;
  double bd_total_s = 0;

  // OpTracker stage decomposition (Fig. 2 pipeline), averaged per OSD op
  // over the measured window. The clamped event chain makes the five stages
  // sum exactly to the OSD-side latency (recv -> reply_sent).
  double stage_msgr_s = 0;   // recv -> ms_dispatch queue
  double stage_queue_s = 0;  // op queue wait (tp_osd_tp dequeue)
  double stage_store_s = 0;  // ObjectStore prep + WAL commit
  double stage_repl_s = 0;   // waiting on replica acks
  double stage_reply_s = 0;  // commit/acks -> reply on the wire
  double stage_total_s = 0;  // recv -> reply_sent, per op

  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;  ///< measured-window ops that returned an error
  std::uint64_t dma_fallback_events = 0;
  std::uint64_t rpc_fallback_bytes = 0;

  // Backpressure telemetry (DESIGN.md §14): throttled bounces by layer
  // over the measured window.
  std::uint64_t osd_throttled = 0;
  std::uint64_t client_throttled = 0;
  std::uint64_t proxy_throttled = 0;
};

/// Execute the spec on a fresh simulated cluster (warmup, then measure).
RunResult run_experiment(const RunSpec& spec);

/// run_experiment with an on-disk cache (bench_cache/<key>): the paper
/// sweep is shared by several figure binaries, so later ones reuse earlier
/// results. Set DOCEPH_NO_CACHE=1 (or remove the directory) to force reruns.
RunResult run_cached(const RunSpec& spec);

}  // namespace doceph::benchcore
