#pragma once

#include <atomic>
#include <deque>

#include "common/admin_socket.h"
#include "common/perf_counters.h"
#include "dbg/cond_var.h"
#include "dbg/mutex.h"
#include "dpu/dpu_device.h"
#include "os/object_store.h"
#include "proxy/fallback.h"
#include "proxy/proxy_protocol.h"
#include "proxy/rpc_channel.h"
#include "proxy/staging_arena.h"
#include "sim/thread.h"

namespace doceph::proxy {

/// Metric indices of the proxy's "dpu" PerfCounters block.
enum {
  l_dpu_first = 93000,
  l_dpu_writes,              ///< write transactions shipped to the host
  l_dpu_dma_bytes,           ///< payload bytes moved by the DMA engine
  l_dpu_rpc_fallback_bytes,  ///< payload bytes that rode the RPC channel
  l_dpu_rpc_timeout,         ///< blocking RPCs that timed out (slot reclaimed)
  l_dpu_write_lat,           ///< enqueue -> host commit, ns histogram
  l_dpu_dma_wait,            ///< per-request DMA wait (staging + serialization)
  l_dpu_throttle_queue,      ///< txns bounced: worker queue at max_worker_queue
  l_dpu_throttle_slot,       ///< txns failed: slot_acquire_timeout expired
  l_dpu_worker_queue_depth,    ///< gauge: total queued write txns (all workers)
  l_dpu_worker_queue_depth_hw, ///< gauge: high-water of the above
  l_dpu_last,
};

struct ProxyConfig {
  /// DMA segment size; must not exceed the engine's hardware cap (2 MB).
  std::uint64_t segment_size = 2 << 20;
  /// Size of the paired staging/write regions (Fig. 4), in segments: each
  /// side holds slots x segment_size bytes, carved per reservation at byte
  /// granularity (StagingArena). 16 x 2 MB by default.
  int slots = 16;
  /// Pipeline workers driving concurrent write requests. Requests hash to a
  /// worker by collection, preserving Ceph's per-PG ordering.
  int write_workers = 8;

  /// Ablations (paper §3.3 design choices):
  bool pipelining = true;  ///< false: wait out each segment before staging the next
  bool mr_cache = true;    ///< false: CommChannel negotiation round-trip per segment

  sim::Duration cooldown = 500'000'000;   ///< 500 ms DMA disable after an error
  sim::Duration rpc_timeout = 30'000'000'000;
  std::uint64_t inline_write_max = 4096;  ///< tiny payloads skip the DMA path
  std::uint64_t inline_read_max = 4096;
  double stage_copy_ns_per_byte = 0.25;   ///< DPU staging memcpy cost

  // ---- backpressure (OFF by default; paper sweeps unchanged) ------------
  /// Bound on each write worker's queue: a txn arriving while the target
  /// queue holds this many entries is completed immediately with
  /// Errc::throttled instead of enqueued. 0 = unbounded (legacy behavior).
  std::size_t max_worker_queue = 0;
  /// Deadline for a write segment's staging reservation; on expiry the txn
  /// fails with Errc::throttled so the throttle propagates to the OSD/client
  /// instead of wedging a write worker. 0 = block forever (legacy behavior).
  sim::Duration slot_acquire_timeout = 0;
};

/// Latency breakdown accumulators reproducing the taxonomy of paper Table 3.
/// All values are sums in ns over `count` completed write requests.
struct BreakdownSnapshot {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  /// Engine transfer time (job setup + bytes/bandwidth — the paper's "actual
  /// data transfer time").
  std::uint64_t dma_ns = 0;
  /// Waiting caused by serial DMA transfers: staging reservation plus
  /// the queueing portion of the DMA phase (wall time minus transfer time).
  std::uint64_t dma_wait_ns = 0;
  std::uint64_t host_write_ns = 0; ///< host-side commit (from TxnReply)

  [[nodiscard]] double avg(std::uint64_t sum) const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count) * 1e-9;
  }
  [[nodiscard]] double others_ns_avg() const {
    if (count == 0) return 0.0;
    const auto others =
        total_ns - std::min(total_ns, dma_ns + dma_wait_ns + host_write_ns);
    return static_cast<double>(others) / static_cast<double>(count) * 1e-9;
  }
};

/// DoCeph's transparent intermediate layer (paper §3.1-3.3): implements the
/// ObjectStore interface on the DPU, forwarding every backend call to the
/// host. Control-plane operations travel as lightweight RPCs over the
/// CommChannel; bulk write payloads are segmented to the 2 MB DMA cap,
/// staged into the reusable region, and moved by the DMA engine with staging
/// pipelined against in-flight transfers. A DMA error trips the adaptive
/// fallback: segments re-route through RPC during a cooldown, then a probe
/// transfer re-enables the fast path.
class ProxyObjectStore final : public os::ObjectStore {
 public:
  ProxyObjectStore(sim::Env& env, dpu::DpuDevice& dpu, ProxyConfig cfg = {});
  ~ProxyObjectStore() override;

  // ---- ObjectStore ------------------------------------------------------------
  Status mount() override;
  Status umount() override;
  void queue_transaction(os::Transaction txn, OnCommit on_commit) override;
  Result<BufferList> read(const os::coll_t& c, const os::ghobject_t& o,
                          std::uint64_t off, std::uint64_t len) override;
  Result<os::ObjectInfo> stat(const os::coll_t& c, const os::ghobject_t& o) override;
  bool exists(const os::coll_t& c, const os::ghobject_t& o) override;
  Result<std::map<std::string, BufferList>> omap_get(const os::coll_t& c,
                                                     const os::ghobject_t& o) override;
  Result<std::vector<os::ghobject_t>> list_objects(const os::coll_t& c) override;
  std::vector<os::coll_t> list_collections() override;
  bool collection_exists(const os::coll_t& c) override;
  [[nodiscard]] std::string store_type() const override { return "proxy"; }

  /// Host-store fullness as last reported in a TxnReply (piggybacked
  /// permille -> fraction). 0 until the first write completes; lets the
  /// DPU-side OSD run its nearfull admission check without an extra RPC.
  [[nodiscard]] double fullness() const override {
    return static_cast<double>(host_fullness_permille_.load(std::memory_order_relaxed)) /
           1000.0;
  }

  // ---- introspection ------------------------------------------------------------
  /// The staging arena (named for ProxyConfig::slots, which sizes it).
  [[nodiscard]] StagingArena& slots() noexcept { return arena_; }
  [[nodiscard]] FallbackManager& fallback() noexcept { return fallback_; }
  [[nodiscard]] const ProxyConfig& config() const noexcept { return cfg_; }
  /// The proxy's comch RPC endpoint (frame diagnostics live on it).
  [[nodiscard]] RpcChannel& rpc() noexcept { return rpc_; }

  [[nodiscard]] BreakdownSnapshot breakdown() const;
  void reset_breakdown();

  [[nodiscard]] std::uint64_t dma_bytes() const noexcept { return dma_bytes_.load(); }
  [[nodiscard]] std::uint64_t rpc_fallback_bytes() const noexcept {
    return rpc_fallback_bytes_.load();
  }

  /// Admin command surface of the DPU proxy daemon ("perf dump", ...).
  /// Commands are registered by mount() and unregistered by umount().
  [[nodiscard]] AdminSocket& admin_socket() noexcept { return admin_; }
  [[nodiscard]] perf::Collection& perf_collection() noexcept { return perf_; }
  [[nodiscard]] perf::PerfCountersRef perf_counters() const override {
    return counters_;
  }

 private:
  struct WriteReq {
    os::Transaction txn;
    OnCommit on_commit;
    sim::Time enqueued = 0;
  };

  void write_worker(int idx);
  void process_write(WriteReq req);

  /// Per-request segment pipeline state shared with DMA/stage callbacks.
  struct SegCtx {
    explicit SegCtx(sim::TimeKeeper& tk) : cv(tk, "proxy.seg_cv") {}
    dbg::Mutex m{"proxy.seg_ctx"};
    dbg::CondVar cv;
    int outstanding DOCEPH_GUARDED_BY(m) = 0;
    bool any_failed DOCEPH_GUARDED_BY(m) = false;
    /// slot_acquire_timeout expired: the request aborts with
    /// Errc::throttled after draining whatever was already in flight.
    bool slot_timed_out DOCEPH_GUARDED_BY(m) = false;
    sim::Time first_submit DOCEPH_GUARDED_BY(m) = -1;
    sim::Duration dma_wait DOCEPH_GUARDED_BY(m) = 0;  ///< staging wait
    std::atomic<sim::Time> last_complete{-1};
    // token/next_seg/trace are touched only by the owning write worker
    // before any callback can observe them.
    std::uint64_t token = 0;
    std::uint32_t next_seg = 0;
    trace::TraceContext trace;  ///< the op's context, for per-segment DMA spans
  };

  /// Move one payload chunk to the host, honoring fallback state. Returns
  /// the DataRef to embed; its staging extent is released from the
  /// stage-ack callback.
  DataRef move_segment(BufferList seg, const std::shared_ptr<SegCtx>& ctx);

  Result<BufferList> control_call(ProxyOp op, const BufferList& body);

  /// One read_obj round trip, DMAing any filled region extent back. Sets
  /// `dma_failed` when a DMA job failed (the caller then falls back inline).
  Result<BufferList> read_obj(const ReadRequest& rr, bool& dma_failed);

  /// Blocking RPC with the configured timeout; accounts timed-out calls in
  /// l_dpu_rpc_timeout (the channel slot itself is reclaimed by RpcChannel).
  Result<BufferList> timed_call(BufferList request,
                                const trace::TraceContext& ctx = {});

  sim::Env& env_;
  dpu::DpuDevice& dpu_;
  ProxyConfig cfg_;
  RpcChannel rpc_;
  event::EventCenter center_;
  StagingArena arena_;
  FallbackManager fallback_;

  struct WorkerQueue {
    dbg::Mutex m{"proxy.worker_queue"};
    std::unique_ptr<dbg::CondVar> cv;
    std::deque<WriteReq> q DOCEPH_GUARDED_BY(m);
  };
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<sim::Thread> workers_;
  sim::Thread pump_thread_;
  // Atomic, not guarded: written by mount/umount, read by every write
  // worker under its own per-queue mutex (no single guarding capability).
  std::atomic<bool> stopping_{true};
  bool mounted_ = false;  // lifecycle thread only

  // Table 3 accumulators.
  mutable dbg::Mutex bd_mutex_{"proxy.breakdown"};
  BreakdownSnapshot bd_ DOCEPH_GUARDED_BY(bd_mutex_);

  std::atomic<std::uint64_t> dma_bytes_{0};
  std::atomic<std::uint64_t> rpc_fallback_bytes_{0};
  std::atomic<std::uint64_t> next_token_{1};
  /// Latest host fullness seen in a TxnReply (permille), for fullness().
  std::atomic<std::uint32_t> host_fullness_permille_{0};
  /// Total write txns sitting in worker queues (for the bound + gauges).
  std::atomic<std::int64_t> queued_writes_{0};

  perf::PerfCountersRef counters_;
  perf::Collection perf_;
  AdminSocket admin_;
};

}  // namespace doceph::proxy
