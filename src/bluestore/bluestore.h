#pragma once

#include <atomic>
#include <deque>
#include <list>
#include <memory>
#include <set>
#include <unordered_map>

#include "bluestore/allocator.h"
#include "bluestore/block_device.h"
#include "bluestore/kv.h"
#include "common/perf_counters.h"
#include "dbg/cond_var.h"
#include "dbg/mutex.h"
#include "os/object_store.h"
#include "sim/cpu_model.h"

namespace doceph::bluestore {

/// Metric indices of the store's "bluestore" PerfCounters block.
enum {
  l_bstore_first = 95000,
  l_bstore_txns,        ///< transactions committed
  l_bstore_commit_lat,  ///< queue_transaction -> commit callback, ns histogram
  l_bstore_free_bytes,  ///< gauge: allocator free bytes
  l_bstore_kv_bytes,    ///< gauge: KV map resident bytes (checkpoint pressure)
  l_bstore_nearfull,    ///< gauge: 1 when fullness() >= os::kNearfullRatio
  l_bstore_kv_shard_bytes_hw,  ///< gauge: resident bytes of the fullest KV shard
  l_bstore_kv_shard_cross,     ///< gauge: cross-shard chained commits completed
  l_bstore_kv_ckpt_bytes,      ///< KV checkpoint chunk bytes written to the device
  l_bstore_kv_ckpt_chunks,     ///< KV checkpoint chunk records written
  l_bstore_last,
};

struct BlueStoreConfig {
  BlockDeviceConfig device;

  std::uint64_t wal_off = 4096;        ///< KV write-ahead-log region start
  std::uint64_t wal_len = 64 << 20;    ///< two 32 MiB segments
  /// KV shard count: the WAL region and the map split into this many
  /// independent group-commit streams, keyed by collection (DESIGN.md §15).
  /// Clamped to >= 1 at the BlueStore ctor; 1 = the unsharded legacy store.
  int kv_shards = 1;
  std::uint64_t alloc_unit = 64 << 10;
  /// Objects at or below this size live inline in their onode (the
  /// metadata-only path standing in for BlueStore's deferred small writes).
  std::uint64_t inline_threshold = 64 << 10;

  KvCostModel kv_costs;
  sim::Duration per_op_prep = 3000;    ///< ns per transaction op, caller thread
  double csum_per_byte_ns = 0.12;      ///< data checksumming, "bstore_aio" thread
  sim::Duration per_aio = 2000;        ///< ns per device IO completion

  std::size_t onode_cache_capacity = 65536;
};

/// BlueStore-lite: the host-resident storage backend (paper Fig. 3, right).
///
/// Write path (copy-on-write): bulk payloads go to freshly allocated extents
/// via async device writes; the onode update commits atomically through the
/// WAL'd KV store ("bstore_kv_sync" group commit); superseded extents are
/// released only after commit. Small objects are inlined in their onode.
/// Crash at any instant leaves either the old or the new object state.
///
/// Thread taxonomy matches Ceph for the paper's attribution: transaction
/// prep charges the calling thread (tp_osd_tp), device-completion work runs
/// on "bstore_aio", KV commit on "bstore_kv_sync".
class BlueStore final : public os::ObjectStore {
 public:
  BlueStore(sim::Env& env, sim::CpuDomain* domain, BlueStoreConfig cfg,
            std::shared_ptr<DeviceBacking> backing = nullptr);
  ~BlueStore() override;

  /// Format the device (fresh KV checkpoint). Call once before first mount.
  Status mkfs();

  Status mount() override;
  Status umount() override;

  /// Simulated power loss: everything not yet committed through the WAL is
  /// gone; remounting replays the WAL. The DeviceBacking survives.
  void simulate_crash();

  /// False after simulate_crash()/umount(); restart paths use this to tell
  /// a hard-killed store (needs a remount + WAL replay) from a live one.
  [[nodiscard]] bool is_mounted() const noexcept { return mounted_; }

  void queue_transaction(os::Transaction txn, OnCommit on_commit) override;

  /// Reads the overlapping extents one after another, each issued from the
  /// previous one's device completion, which also completes the read.
  void read_async(const os::coll_t& c, const os::ghobject_t& o, std::uint64_t off,
                  std::uint64_t len, OnRead on_read,
                  const trace::TraceContext& ctx = {}) override;
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

  [[nodiscard]] std::string store_type() const override { return "bluestore"; }

  [[nodiscard]] BlockDevice& device() noexcept { return *dev_; }
  [[nodiscard]] KvStore& kv() noexcept { return *kv_; }
  [[nodiscard]] std::uint64_t free_bytes() const { return alloc_->free_bytes(); }
  [[nodiscard]] std::shared_ptr<DeviceBacking> backing() const {
    return dev_->backing();
  }
  [[nodiscard]] const BlueStoreConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] perf::PerfCountersRef perf_counters() const override {
    return counters_;
  }

  /// Max over allocator pressure (1 - free/total) and KV checkpoint
  /// pressure (map bytes vs the chained-checkpoint ceiling of both WAL
  /// segments; 1.0 is the point past which rolls fail with no_space).
  /// 0 while unmounted.
  [[nodiscard]] double fullness() const override;

 private:
  struct Onode {
    std::uint64_t size = 0;
    std::uint64_t version = 0;
    BufferList inline_data;            // content when size <= inline_threshold
    std::vector<Extent> extents;       // content otherwise, in logical order
    std::map<std::string, BufferList> omap;

    void encode(BufferList& bl) const;
    bool decode(BufferList::Cursor& cur);
  };

  /// One queued transaction moving through aio -> kv -> commit.
  struct TxContext {
    os::coll_t seq_cid;                 // sequencer key (first op's collection)
    KvTxn kv;
    std::vector<std::vector<Extent>> release_after_commit;
    OnCommit on_commit;
    Status build_status;
    // pending_ios/ios_done/submitted are guarded by the owning store's
    // mutex_ while the txc sits in a sequencer — a cross-object guard the
    // static analysis cannot express per instance.
    int pending_ios = 0;
    bool ios_done = false;
    bool submitted = false;
    std::atomic<bool> finished{false};
  };
  using TxRef = std::shared_ptr<TxContext>;

  /// One read_async in flight: its device ranges in logical order, and the bytes so far.
  struct ExtentRead {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pieces;  ///< (dev off, len)
    std::size_t next = 0;
    BufferList out;
    OnRead on_read;
  };
  /// Issue `rd`'s next device read, or complete it when none is left.
  void read_next(const std::shared_ptr<ExtentRead>& rd);

  static std::string onode_key(const os::coll_t& c, const os::ghobject_t& o);
  static std::string coll_key(const os::coll_t& c);
  static std::string coll_prefix(const os::coll_t& c);

  /// Fetch an onode into the cache (nullopt if absent). Requires mutex_.
  std::optional<Onode> get_onode_locked(const os::coll_t& c, const os::ghobject_t& o)
      DOCEPH_REQUIRES(mutex_);
  void put_onode_locked(const std::string& key, const Onode& onode)
      DOCEPH_REQUIRES(mutex_);
  void erase_onode_locked(const std::string& key) DOCEPH_REQUIRES(mutex_);

  /// Build phase: translate `txn` into kv mutations + device writes.
  /// `prefetched` carries whole-object content for RMW ops, read before the
  /// store mutex is taken (device reads block in simulated time and must
  /// never happen under a real mutex).
  void build_txc(os::Transaction& txn, const TxRef& txc,
                 std::vector<std::pair<std::uint64_t, BufferList>>& writes,
                 std::map<std::string, BufferList>& prefetched);

  /// Write `content` for an object, choosing inline vs extents. Appends
  /// device writes to `writes` and returns the new extent list.
  std::vector<Extent> place_content(const BufferList& content, Onode& onode,
                                    std::vector<std::pair<std::uint64_t, BufferList>>& writes);

  void on_ios_complete(const TxRef& txc);
  void submit_ready_locked(const os::coll_t& cid) DOCEPH_REQUIRES(mutex_);
  void finish_txc(const TxRef& txc, Status st);

  /// Hand a completion task to the "bstore_aio" thread (device callbacks run
  /// on the event scheduler, which must never block or charge CPU).
  void aio_enqueue(std::function<void()> task);
  void aio_thread_loop();
  void start_aio_thread();
  void stop_aio_thread();

  /// Wait until every queued transaction for `cid` has committed (used by
  /// read-modify-write paths that must observe stable device extents).
  void flush_collection(const os::coll_t& cid);

  sim::Env& env_;
  sim::CpuDomain* domain_;
  BlueStoreConfig cfg_;
  std::unique_ptr<BlockDevice> dev_;
  std::unique_ptr<KvStore> kv_;
  std::unique_ptr<ExtentAllocator> alloc_;
  bool mounted_ = false;
  perf::PerfCountersRef counters_;
  // KvStore checkpoint totals already added to the counters.
  std::atomic<std::uint64_t> ckpt_bytes_seen_{0};
  std::atomic<std::uint64_t> ckpt_chunks_seen_{0};

  dbg::Mutex mutex_{"bluestore.store"};  // onode cache + sequencers
  dbg::CondVar seq_drained_;

  // Onode LRU cache.
  struct CacheEntry {
    Onode onode;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, CacheEntry> onode_cache_
      DOCEPH_GUARDED_BY(mutex_);
  std::list<std::string> lru_ DOCEPH_GUARDED_BY(mutex_);
  /// Collections whose create has been *built* (possibly not yet committed):
  /// concurrent transactions against a brand-new PG must see it. Guarded by
  /// mutex_; cleared on unmount.
  std::set<std::string> coll_cache_ DOCEPH_GUARDED_BY(mutex_);

  std::map<os::coll_t, std::deque<TxRef>> sequencers_ DOCEPH_GUARDED_BY(mutex_);

  // "bstore_aio" completion thread.
  dbg::Mutex aio_mutex_{"bluestore.aio"};
  dbg::CondVar aio_cv_;
  std::deque<std::function<void()>> aio_queue_ DOCEPH_GUARDED_BY(aio_mutex_);
  bool aio_stop_ DOCEPH_GUARDED_BY(aio_mutex_) = true;
  sim::Thread aio_thread_;
};

}  // namespace doceph::bluestore
