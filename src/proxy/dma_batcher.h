#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/perf_counters.h"
#include "common/trace.h"
#include "dbg/cond_var.h"
#include "dbg/mutex.h"
#include "dpu/dpu_device.h"
#include "proxy/fallback.h"
#include "proxy/rpc_channel.h"
#include "proxy/staging_arena.h"
#include "sim/thread.h"

namespace doceph::proxy {

/// Knobs for the DPU-side segment coalescer. Disabled by default (unit
/// tests exercise the legacy one-job-per-segment path); cluster profiles
/// enable it so the bench paths batch.
struct DmaBatchConfig {
  bool enabled = false;
  int max_segments = 16;  ///< flush once this many segments queue
  /// Deadline doorbell: a queued segment never waits longer than this
  /// (virtual ns) for companions before its batch flushes.
  sim::Duration flush_delay = 150'000;
};

/// Coalesces small write segments from concurrent requests into one
/// staging extent, one scatter-gather DMA pass, and one stage_batch RPC —
/// amortizing the per-job DMA setup latency and the per-message comch
/// doorbell across the batch (the small-IO analogue of the paper's
/// segmentation pipeline, which only helps large writes). A batch holds at
/// most one segment's worth of bytes (the engine's pass cap); fallback/probe
/// traffic and the pipelining/mr_cache ablations stay on the legacy path.
class DmaBatcher {
 public:
  /// Per-segment completion: `submit` is when the batch's DMA was issued
  /// (enqueue -> submit is the segment's batching wait), `complete` when
  /// the host acked the staged copy (or the failure time).
  using DoneCb =
      std::function<void(Status, sim::Time submit, sim::Time complete)>;

  /// A batch never exceeds `max_batch_bytes` (the proxy's segment size).
  DmaBatcher(sim::Env& env, dpu::DpuDevice& dpu, StagingArena& arena,
             RpcChannel& rpc, FallbackManager& fallback,
             perf::PerfCountersRef counters, DmaBatchConfig cfg,
             std::size_t max_batch_bytes, double stage_copy_ns_per_byte,
             std::string name);
  ~DmaBatcher();

  DmaBatcher(const DmaBatcher&) = delete;
  DmaBatcher& operator=(const DmaBatcher&) = delete;

  void start();
  /// Drains queued segments (flushing them without further coalescing),
  /// then joins the batcher thread. Call after the write workers have
  /// drained and before the RPC channel detaches.
  void stop();

  /// Queue one segment of request `token`. On accept, `seg` is consumed
  /// and `done` will fire exactly once. Returns false — leaving `seg`
  /// intact — when batching is off, the batcher is stopped, or the segment
  /// exceeds max_batch_bytes; the caller then takes the legacy path.
  bool enqueue(BufferList& seg, std::uint64_t token, std::uint32_t seg_index,
               const trace::TraceContext& ctx, DoneCb done);

 private:
  struct Entry {
    BufferList seg;
    std::uint64_t token = 0;
    std::uint32_t seg_index = 0;
    std::uint32_t off_in_batch = 0;
    trace::TraceContext trace;
    DoneCb done;
    sim::Time enqueued = 0;
  };
  /// Shared fan-in state of one in-flight batch: per-extent statuses
  /// collected from the scatter-gather job, then the single stage_batch
  /// ack resolves every member.
  struct BatchState;

  void loop();
  void flush(std::vector<Entry> batch);
  void finish_batch(const std::shared_ptr<BatchState>& bs);

  sim::Env& env_;
  dpu::DpuDevice& dpu_;
  StagingArena& arena_;
  RpcChannel& rpc_;
  FallbackManager& fallback_;
  perf::PerfCountersRef counters_;
  DmaBatchConfig cfg_;
  std::size_t max_batch_bytes_;
  double stage_copy_ns_per_byte_;
  std::string name_;

  dbg::Mutex m_{"proxy.dma_batcher"};
  dbg::CondVar cv_;
  std::deque<Entry> q_ DOCEPH_GUARDED_BY(m_);
  std::size_t q_bytes_ DOCEPH_GUARDED_BY(m_) = 0;
  bool stopping_ DOCEPH_GUARDED_BY(m_) = true;

  sim::Thread thread_;
  bool started_ = false;  // lifecycle thread only
};

}  // namespace doceph::proxy
