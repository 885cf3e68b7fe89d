#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/admin_socket.h"
#include "common/perf_counters.h"
#include "dbg/cond_var.h"
#include "dbg/io_gate.h"
#include "dbg/mutex.h"
#include "mon/mon_client.h"
#include "msgr/messages.h"
#include "msgr/messenger.h"
#include "os/object_store.h"
#include "osd/op_tracker.h"

namespace doceph::osd {

/// Metric indices of the per-OSD "osd" PerfCounters block.
enum {
  l_osd_first = 91000,
  l_osd_op,            ///< client ops completed (replies sent)
  l_osd_op_w,          ///< writes (write/write_full/remove)
  l_osd_op_r,          ///< reads + stats
  l_osd_op_in_bytes,   ///< client payload bytes received
  l_osd_op_out_bytes,  ///< read payload bytes returned
  l_osd_op_lat,        ///< end-to-end op latency (recv -> reply), ns histogram
  l_osd_op_msgr_lat,   ///< stage: messenger rx + dispatch
  l_osd_op_queue_lat,  ///< stage: op-queue wait
  l_osd_op_store_lat,  ///< stage: ObjectStore prep + WAL commit
  l_osd_op_repl_lat,   ///< stage: replica-ack tail beyond the local commit
  l_osd_op_reply_lat,  ///< stage: reply encode + tx hand-off
  l_osd_op_throttled,  ///< client ops bounced with Errc::throttled (total)
  l_osd_throttle_queue,    ///< ... because the op queue was full
  l_osd_throttle_conn,     ///< ... because the connection hit its in-flight cap
  l_osd_throttle_nearfull, ///< ... because the store is near-full (writes)
  l_osd_queue_depth,       ///< gauge: current op-queue depth
  l_osd_queue_depth_hw,    ///< gauge: high-water op-queue depth
  l_osd_last,
};

struct OsdConfig {
  int id = 0;
  std::uint16_t public_port = 6800;
  /// "tp_osd_tp" workers serving the one op queue. Per-PG dispatch keeps
  /// per-object ordering at any count (DESIGN.md §15.1).
  int op_threads = 2;

  /// Passed to this OSD's messenger (the cluster keeps the MsgrCostModel
  /// defaults).
  msgr::MessengerConfig msgr;

  sim::Duration heartbeat_interval = 1'000'000'000;   // 1 s
  sim::Duration heartbeat_grace = 4'000'000'000;      // 4 s
  sim::Duration tick_interval = 500'000'000;          // 500 ms

  /// OSD bookkeeping CPU per request (dispatch, PG lookup, repop
  /// accounting), charged on tp_osd_tp threads.
  sim::Duration per_op_cost = 15'000;  // 15 us

  /// Recovery scans defer while a PG has seen writes within this window:
  /// scan-based diffing cannot distinguish in-flight replication from
  /// genuinely missing objects, and (like Ceph throttling recovery under
  /// client load) catching up proceeds once the PG quiesces.
  sim::Duration recovery_quiesce = 5'000'000'000;  // 5 s

  // ---- admission control (DESIGN.md §14.1). Client writes are also
  // bounced once the store's fullness() reaches os::kNearfullRatio. -------
  /// Bound on the op queue: a client op arriving while the queue holds this
  /// many entries is bounced with Errc::throttled instead of enqueued.
  /// Repops are never throttled.
  std::size_t max_queue_depth = 256;
  /// Per-client in-flight cap enforced at dispatch.
  int max_conn_inflight = 128;
};

/// Server-suggested client backoff carried in throttled replies.
inline constexpr sim::Duration kThrottleRetryDelay = 2'000'000;  // 2 ms

/// The Object Storage Daemon: client request handling, PG-based
/// primary-copy replication, heartbeats/failure reporting, and scan-based
/// recovery, over a pluggable ObjectStore — the component DoCeph relocates
/// onto the DPU wholesale (paper §3.1: everything here runs on the DPU's
/// ARM cores in DoCeph mode; only the ObjectStore behind it stays on the
/// host, reached through the ProxyObjectStore).
class OSD final : public msgr::Dispatcher {
 public:
  /// `store` must already be mounted. `domain` hosts all OSD threads:
  /// the host CPU domain in Baseline, the DPU domain in DoCeph mode.
  OSD(sim::Env& env, net::Fabric& fabric, net::NetNode& node,
      sim::CpuDomain* domain, os::ObjectStore& store, net::Address mon_addr,
      OsdConfig cfg);
  ~OSD() override;

  /// Boot: bind, fetch the map, announce to the MON, start workers. Must be
  /// called from a sim thread. Returns once the MON marked this OSD up.
  Status init();

  void shutdown();

  /// Power-loss variant of shutdown(): the messenger dies FIRST, so nothing
  /// the dying daemon does afterwards is externally visible — no error
  /// replies or repops escape the dead node (peers just see silence, as
  /// with a real power cut). Store completion callbacks arriving after this
  /// land on closed connections and are dropped. Call from a sim thread.
  void hard_kill();

  [[nodiscard]] int id() const noexcept { return cfg_.id; }
  [[nodiscard]] net::Address addr() const { return msgr_.addr(); }
  [[nodiscard]] crush::epoch_t map_epoch() const { return monc_.epoch(); }

  /// Ops fully processed as primary (diagnostics).
  [[nodiscard]] std::uint64_t ops_served() const noexcept { return ops_served_.load(); }

  // ---- observability ----------------------------------------------------------
  /// Admin command surface ("perf dump", "dump_ops_in_flight", ...). Commands
  /// are registered by init() and unregistered by shutdown().
  [[nodiscard]] AdminSocket& admin_socket() noexcept { return admin_; }
  /// All perf-counter blocks of this daemon ("osd" + its messenger's "msgr").
  [[nodiscard]] perf::Collection& perf_collection() noexcept { return perf_; }
  [[nodiscard]] const perf::PerfCountersRef& perf_counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] OpTracker& op_tracker() noexcept { return tracker_; }

  /// True when every PG this OSD leads has verified replica parity since the
  /// last map change (i.e. recovery is complete).
  [[nodiscard]] bool all_clean();

  // msgr::Dispatcher
  void ms_dispatch(const msgr::MessageRef& m) override;
  void ms_handle_reset(const msgr::ConnectionRef& con) override;

 private:
  /// Shared teardown tail: stop and join op workers and the ticker, then
  /// close the read gate (a read callback arriving later is dropped, like a
  /// dead node's reply).
  void stop_threads();

  // ---- op pipeline -----------------------------------------------------------
  /// Queue `fn` for a tp_osd_tp worker. A nonzero `ord` (per-PG token)
  /// keeps the PG's ops in queue order: an entry dispatches only when no
  /// earlier entry of its token is still queued and no op of its token is
  /// executing, so per-PG store submissions happen in arrival order with any
  /// number of workers. A client read (`read`) also holds its PG from
  /// dispatch until its store callback: later reads may pass it, but a
  /// tokened write or repop waits until the PG has no read in flight.
  /// Entries of other PGs dispatch past a waiting one (DESIGN.md §15.1).
  void enqueue_op(std::function<void()> fn, std::uint64_t ord = 0, bool read = false);
  /// Index of the first entry of op_queue_ a worker may take, or
  /// op_queue_.size() when none may.
  [[nodiscard]] std::size_t next_ready_op() const DOCEPH_REQUIRES(queue_mutex_);
  void op_worker();

  /// `ord` is the op's PG token; a read releases that PG's read hold from
  /// its store callback.
  void handle_client_op(const msgr::MessageRef& m, const TrackedOpRef& op,
                        std::uint64_t ord);
  void handle_repop(const msgr::MessageRef& m);
  void handle_repop_reply(const msgr::MessageRef& m);
  void handle_ping(const msgr::MessageRef& m);
  void handle_pg_scan(const msgr::MessageRef& m);
  void handle_pg_scan_reply(const msgr::MessageRef& m);

  void reply_client(const msgr::MessageRef& req, std::int32_t result,
                    std::uint64_t version = 0, std::uint64_t size = 0,
                    BufferList data = {}, const TrackedOpRef& op = nullptr);

  /// Bounce a client op with Errc::throttled + the suggested retry delay.
  /// `counter` is the per-cause l_osd_throttle_* index. Throttled ops are
  /// never tracked and never touch the in-flight accounting.
  void throttle_client(const msgr::MessageRef& req, int counter, sim::Time recv);

  /// Stamp "reply_sent", feed the stage histograms, retire the tracked op.
  /// Runs on the messenger worker once the reply is encoded.
  void account_op(const TrackedOpRef& op);
  void register_admin_commands();

  /// Prepend create_collection if this OSD has not materialized the PG yet.
  void ensure_pg_collection(const crush::pg_t& pg, os::Transaction& txn);

  // ---- replication ------------------------------------------------------------
  struct InFlightOp {
    msgr::MessageRef client_msg;
    TrackedOpRef tracked;
    std::set<int> waiting_on;  ///< replica osds + (-1) for the local commit
    std::int32_t result = 0;
    std::uint64_t version = 0;
  };
  void start_write(const msgr::MessageRef& m, const crush::pg_t& pg,
                   const std::vector<int>& acting, const TrackedOpRef& op);
  void complete_if_done(std::uint64_t tid);

  // ---- heartbeats / recovery ---------------------------------------------------
  void tick_thread();
  void do_heartbeats();
  void check_recovery();
  void recover_pg(const crush::pg_t& pg, const std::vector<int>& acting);
  Result<std::vector<msgr::ObjectSummary>> scan_pg_local(const crush::pg_t& pg);
  Result<std::vector<msgr::ObjectSummary>> scan_pg_remote(const crush::pg_t& pg, int osd);
  struct ScanHandle;  // in-flight remote scan (parallel recovery fan-out)
  ScanHandle start_pg_scan(const crush::pg_t& pg, int osd);
  Result<std::vector<msgr::ObjectSummary>> wait_pg_scan(ScanHandle& h);
  Status push_object(const crush::pg_t& pg, int target, const std::string& name,
                     bool remove);

  sim::Env& env_;
  OsdConfig cfg_;
  sim::CpuDomain* domain_;
  os::ObjectStore& store_;
  msgr::Messenger msgr_;
  mon::MonClient monc_;

  // The op queue feeding the op_threads tp_osd_tp workers. queue_depth_
  // mirrors its size so admission control reads it without the queue lock.
  struct QueuedOp {
    std::uint64_t ord = 0;  ///< 0 = unordered; else per-PG serial token
    bool read = false;      ///< a client read: may pass reads in flight
    std::function<void()> fn;
  };
  dbg::Mutex queue_mutex_{"osd.queue"};
  dbg::CondVar queue_cv_;
  std::deque<QueuedOp> op_queue_ DOCEPH_GUARDED_BY(queue_mutex_);
  /// Ordering tokens with an op currently executing on a worker, i.e. not
  /// yet submitted to the store. Their queued entries wait: two workers
  /// running consecutive same-PG ops concurrently would let their store
  /// submissions race and acked writes reorder.
  std::unordered_set<std::uint64_t> executing_ DOCEPH_GUARDED_BY(queue_mutex_);
  /// Per-token count of client reads submitted whose callback has not run
  /// yet. A tokened non-read entry waits while its token is in here, so a
  /// write never overtakes an earlier read of its PG.
  std::unordered_map<std::uint64_t, int> reading_ DOCEPH_GUARDED_BY(queue_mutex_);
  bool queue_stopping_ DOCEPH_GUARDED_BY(queue_mutex_) = false;
  std::atomic<std::size_t> queue_depth_{0};
  std::vector<sim::Thread> op_workers_;
  dbg::Mutex tick_mutex_{"osd.tick"};
  bool stopping_ DOCEPH_GUARDED_BY(tick_mutex_) = false;  // ticker only
  dbg::CondVar tick_cv_;
  sim::Thread ticker_;

  dbg::Mutex mutex_{"osd.state"};  // in-flight ops, pg state, heartbeat state
  std::atomic<std::uint64_t> next_tid_{1};
  std::map<std::uint64_t, InFlightOp> in_flight_ DOCEPH_GUARDED_BY(mutex_);
  std::set<os::coll_t> created_colls_ DOCEPH_GUARDED_BY(mutex_);

  // Per-client admitted-op counts (only maintained when max_conn_inflight
  // is enabled; decremented when the reply goes out).
  std::map<std::uint64_t, int> client_inflight_ DOCEPH_GUARDED_BY(mutex_);

  // Heartbeat bookkeeping: peer -> last reply time.
  std::map<int, sim::Time> last_heard_ DOCEPH_GUARDED_BY(mutex_);
  std::set<int> reported_ DOCEPH_GUARDED_BY(mutex_);

  // Recovery bookkeeping: PGs whose acting set changed since last clean scan.
  std::set<crush::pg_t> dirty_pgs_ DOCEPH_GUARDED_BY(mutex_);
  std::map<crush::pg_t, sim::Time> last_pg_write_ DOCEPH_GUARDED_BY(mutex_);
  crush::epoch_t last_seen_epoch_ DOCEPH_GUARDED_BY(mutex_) = 0;

  // Pending remote scans (tick thread blocks on the reply).
  struct PendingScan {
    dbg::CondVar cv;
    bool done = false;
    std::vector<msgr::ObjectSummary> objects;
    explicit PendingScan(sim::TimeKeeper& tk) : cv(tk, "osd.scan") {}
  };
  std::map<std::uint64_t, std::shared_ptr<PendingScan>> pending_scans_
      DOCEPH_GUARDED_BY(mutex_);
  struct ScanHandle {
    std::uint64_t tid = 0;
    std::shared_ptr<PendingScan> pending;  // null when the send failed
    Status error;
  };

  std::atomic<std::uint64_t> ops_served_{0};
  bool started_ = false;
  /// Every read_async callback runs through this gate: a read can complete
  /// after a restart destroyed this OSD or a power cut crashed its store.
  std::shared_ptr<dbg::IoGate> read_gate_ = std::make_shared<dbg::IoGate>();

  // ---- observability ----------------------------------------------------------
  OpTracker tracker_;
  perf::PerfCountersRef counters_;
  perf::Collection perf_;
  AdminSocket admin_;
};

}  // namespace doceph::osd
