#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common/admin_socket.h"
#include "common/perf_counters.h"
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
  l_dpu_rpc_timeout,         ///< RPCs, write and read requests that timed out
  l_dpu_write_lat,           ///< enqueue -> host commit, ns histogram
  l_dpu_dma_wait,            ///< per-request DMA wait (staging + serialization)
  l_dpu_throttle_queue,      ///< txns bounced: max_inflight writes admitted
  l_dpu_inflight,            ///< gauge: admitted, uncommitted write txns
  l_dpu_inflight_hw,         ///< gauge: high-water of the above
  l_dpu_last,
};

struct ProxyConfig {
  /// DMA segment size; must not exceed the engine's hardware cap (2 MB).
  std::uint64_t segment_size = 2 << 20;
  /// Size of the paired staging/write regions (Fig. 4), in segments: each
  /// side holds slots x segment_size bytes, carved per reservation at byte
  /// granularity (StagingArena). 16 x 2 MB by default. The host side also
  /// exports a read landing of twice that.
  int slots = 16;

  sim::Duration cooldown = 500'000'000;   ///< 500 ms DMA disable after an error
  /// Deadline of a blocking RPC, of a write request from its start to its
  /// host commit, and of a read from its dispatch to its completion.
  sim::Duration rpc_timeout = 30'000'000'000;
  double stage_copy_ns_per_byte = 0.25;   ///< DPU staging memcpy cost

  /// Bound on admitted, uncommitted write txns (DESIGN.md §14.2): a txn
  /// arriving while this many are in flight or queued is completed
  /// immediately with Errc::throttled.
  std::size_t max_inflight = 4096;
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
///
/// Writes and reads are per-request state machines driven entirely by the
/// proxy's event loop: queue_transaction and read_async only dispatch, and
/// every later step (reservation grant, staging copy, DMA completion, stage
/// ack, host reply) runs as a loop handler. Each PG keeps a FIFO of its
/// unfinished writes that orders their submits: a write starts once every
/// earlier write of its PG has sent its submit_txn, so per-PG commit order
/// comes from the FIFO comch and the host store's per-collection sequencer,
/// and PGs never wait on each other. A write that makes the host store read
/// the object first (partial write, zero, truncate) starts only once its PG
/// has no earlier unfinished write. A read waits until every write its PG
/// had queued when it arrived has finished, so it sees every transaction
/// queued before it, as a BlueStore read does; the OSD's per-PG dispatch
/// keeps writes behind earlier reads.
///
/// A write's last stage_segment frame rides in one comch message with its
/// submit_txn frame, sent as the last DMA job completes: the host handles
/// both in order on one loop, so the submit waits for no stage ack. An
/// extent never returns to the arena while the host may still copy it: one
/// whose stage frame went out and whose request was withdrawn before the
/// ack is quarantined until a response arrives to a request issued after
/// the withdrawal (comch is FIFO both ways).
class ProxyObjectStore final : public os::ObjectStore {
 public:
  ProxyObjectStore(sim::Env& env, dpu::DpuDevice& dpu, ProxyConfig cfg = {});
  ~ProxyObjectStore() override;

  // ---- ObjectStore ------------------------------------------------------------
  Status mount() override;
  Status umount() override;
  void queue_transaction(os::Transaction txn, OnCommit on_commit) override;
  void read_async(const os::coll_t& c, const os::ghobject_t& o, std::uint64_t off,
                  std::uint64_t len, OnRead on_read,
                  const trace::TraceContext& ctx = {}) override;
  /// Never called on the loop thread, which completes the read.
  Result<BufferList> read(const os::coll_t& c, const os::ghobject_t& o,
                          std::uint64_t off, std::uint64_t len,
                          const trace::TraceContext& ctx = {}) override;
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
  /// One DMA segment of a write: its bytes, and the extent of the paired
  /// region they occupy once reserved.
  struct Segment {
    BufferList data;
    std::uint32_t index = 0;  ///< StageSegment.seg_index
    bool probing = false;     ///< this transfer is the fallback probe
    std::size_t off = 0;      ///< arena offset
  };

  struct ReadOp;
  using ReadRef = std::shared_ptr<ReadOp>;

  /// One admitted write. Touched only on the loop thread.
  struct WriteOp {
    os::coll_t cid;
    /// Metadata with the payloads detached, plus one data ref per segment;
    /// every ref keeps its bytes, which go on the wire only once inline.
    WireTxn wire;
    std::uint64_t total_bytes = 0;
    OnCommit on_commit;
    sim::Time enqueued = 0;
    bool started = false;  ///< deadline armed, segments routed
    bool done = false;     ///< committed or failed; late completions only clean up
    /// Reads of this PG that arrived while this write was its FIFO's tail;
    /// they start once it and every earlier write of its PG have finished.
    std::vector<ReadRef> reads_behind;

    // Routing cursor: the next ref to route is wire.parts[part][ref]. At
    // most one reservation is pending at a time.
    std::size_t part = 0;
    std::size_t ref = 0;
    std::uint32_t next_seg = 0;
    bool reserving = false;
    /// Segments routed to DMA whose job has not finished; the submit waits
    /// for these only.
    int in_dma = 0;
    /// Segments whose transfer or handoff failed: the submit sends just
    /// these inline.
    std::set<std::uint32_t> failed_segs;

    /// A segment whose extent waits on its stage ack: the host was told to
    /// copy the extent.
    struct SegmentCall {
      std::uint64_t id = 0;
      Segment seg;
    };
    std::map<std::uint32_t, SegmentCall> rpcs;  ///< by segment index
    std::uint64_t submit_id = 0;               ///< submit_txn call (0: none)
    event::EventCenter::TimerId deadline = 0;

    // Table 3 accounting.
    sim::Time first_submit = -1;
    sim::Time last_complete = -1;
    sim::Duration dma_wait = 0;  ///< reservation wait before the first transfer
    std::uint64_t dma_bytes = 0;

    trace::Span write_span;
    trace::Span rpc_span;
  };
  using OpRef = std::shared_ptr<WriteOp>;

  /// One read. Touched only on the loop thread.
  struct ReadOp {
    ReadRequest rr;  ///< buf_len > 0 while the read holds a landing extent
    OnRead on_read;
    bool done = false;     ///< completed; late completions only clean up
    bool retried = false;  ///< re-asked inline after a DMA failure
    std::uint64_t call_id = 0;  ///< pending stat or read_obj call (0: none)
    std::vector<DataRef> refs;  ///< the reply's layout, while its DMA runs
    /// The paired extent the DMA leg lands in (dpu_len > 0 while held).
    std::size_t dpu_off = 0;
    std::size_t dpu_len = 0;
    /// Where a landing ref's bytes go in the paired extent: it mirrors the
    /// landing extent from its start.
    [[nodiscard]] std::size_t dpu_at(const DataRef& ref) const {
      return dpu_off + (ref.index - rr.buf_off);
    }
    int dma_pending = 0;
    Status dma_status;
    event::EventCenter::TimerId deadline = 0;
    trace::Span span;
  };

  // Loop-thread steps of a write, in the order a request meets them.
  void admit(const OpRef& op);
  /// Start every write of the PG FIFO `q` that may start now, front to back.
  void start_ready(std::deque<OpRef>& q);
  void start(const OpRef& op);
  /// Route segments until a reservation is pending, or everything is staged
  /// and its DMA done (then submit). `done_seg`, a segment whose DMA just
  /// finished, has its stage frame sent: with the submit when that goes out
  /// now, else alone.
  void advance(const OpRef& op, const Segment* done_seg = nullptr);
  void on_reserved(const OpRef& op, const Segment& seg, sim::Time asked);
  void stage(const OpRef& op, const Segment& seg);
  void on_dma_done(const OpRef& op, Segment seg, const Status& st);
  using Reply = std::function<void(const Result<BufferList>&)>;
  /// Response callback for a request the loop is issuing now: `then` runs
  /// on the loop with the response. A response also frees the quarantined
  /// extents withdrawn before that request went out.
  RpcChannel::ResponseCb on_loop(Reply then);
  /// The stage_segment call for `seg`; its ack gives the extent back.
  RpcChannel::Call stage_call(const OpRef& op, const Segment& seg);
  /// The host acked (or failed) `seg`'s stage_segment.
  void on_stage_ack(const OpRef& op, const Segment& seg, const Result<BufferList>& r);
  /// A segment's extent is back in the arena; the request moves on.
  void segment_done(const OpRef& op, const Segment& seg, bool failed);
  /// Withdraw the request's pending stage calls. An extent goes back at
  /// once only if `host_past` (a response to a later request arrived);
  /// otherwise it is quarantined, and a ping makes sure such a response
  /// comes.
  void withdraw_segments(const OpRef& op, bool host_past);
  /// A response arrived to the loop's request number `seq`: every extent
  /// quarantined before that request went out is safe to reuse.
  void release_quarantine(std::uint64_t seq);
  void submit(const OpRef& op, const Segment* last_seg);
  void on_txn_reply(const OpRef& op, const Result<BufferList>& response);
  /// Fail the request now (deadline or umount): withdraw its pending RPCs
  /// and tell the host to drop what it staged.
  void abort(const OpRef& op, const Status& st);
  void finish(const OpRef& op, const Status& st);

  // Loop-thread steps of a read: wait for the writes its PG queued before
  // it, reserve a landing extent (while DMA is enabled; a read to the
  // object's end stats it first), ask the host, and once it has filled the
  // landing reserve a paired extent, DMA the landing into it, copy out.
  void admit_read(const ReadRef& rd);
  void start_read(const ReadRef& rd);
  /// Reserve a landing extent for the first `len` bytes of the result, then ask.
  void reserve_read(const ReadRef& rd, std::uint64_t len);
  void send_read(const ReadRef& rd);
  void on_read_reply(const ReadRef& rd, const Result<BufferList>& response);
  /// The DMA leg's paired extent [off, off+len) is granted: start the jobs.
  void on_read_extent(const ReadRef& rd, std::size_t off, std::size_t len);
  /// One DMA job finished; the last one completes (or retries) the read.
  void on_read_dma(const ReadRef& rd, const Status& st);
  /// Give back the read's landing and paired extents, where it holds them.
  void release_extents(const ReadRef& rd);
  void finish_read(const ReadRef& rd, Result<BufferList> r);

  /// Blocking control RPC with the configured timeout; accounts timed-out
  /// calls in l_dpu_rpc_timeout (the channel slot itself is reclaimed by
  /// RpcChannel). Never called on the loop thread, which delivers responses.
  Result<BufferList> control_call(ProxyOp op, const BufferList& body);

  sim::Env& env_;
  dpu::DpuDevice& dpu_;
  ProxyConfig cfg_;
  RpcChannel rpc_;
  event::EventCenter center_;
  StagingArena arena_;
  FallbackManager fallback_;

  sim::Thread pump_thread_;
  bool mounted_ = false;  // lifecycle thread only

  // Loop-thread state.
  /// Per-PG FIFOs of the writes not yet finished, in admission order.
  std::map<os::coll_t, std::deque<OpRef>> pgs_;
  std::set<ReadRef> reads_;  ///< reads not yet completed
  bool stopping_ = false;  ///< umount began: start and admit nothing new
  /// Requests the loop has issued; numbers them for the quarantine.
  std::uint64_t loop_calls_ = 0;
  /// Extents the host may still copy, in quarantine order: each goes back
  /// once a response arrives to a request numbered above `after`.
  struct Quarantined {
    std::uint64_t after = 0;
    std::size_t off = 0;
    std::size_t len = 0;
  };
  std::deque<Quarantined> quarantine_;

  // Table 3 accumulators.
  mutable dbg::Mutex bd_mutex_{"proxy.breakdown"};
  BreakdownSnapshot bd_ DOCEPH_GUARDED_BY(bd_mutex_);

  std::atomic<std::uint64_t> dma_bytes_{0};
  std::atomic<std::uint64_t> rpc_fallback_bytes_{0};
  std::atomic<std::uint64_t> next_token_{1};
  /// Latest host fullness seen in a TxnReply (permille), for fullness().
  std::atomic<std::uint32_t> host_fullness_permille_{0};
  /// Admitted, uncommitted write txns (for max_inflight + gauges).
  std::atomic<std::size_t> inflight_{0};

  perf::PerfCountersRef counters_;
  perf::Collection perf_;
  AdminSocket admin_;
};

}  // namespace doceph::proxy
