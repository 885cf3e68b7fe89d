#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bluestore/block_device.h"
#include "common/encoding.h"
#include "dbg/cond_var.h"
#include "dbg/mutex.h"
#include "dbg/shared_mutex.h"
#include "sim/cpu_model.h"
#include "sim/thread.h"

namespace doceph::bluestore {

/// One atomic KV mutation batch.
struct KvTxn {
  std::map<std::string, BufferList> sets;
  std::vector<std::string> rms;

  [[nodiscard]] std::uint64_t bytes() const noexcept {
    std::uint64_t n = 0;
    for (const auto& [k, v] : sets) n += k.size() + v.length();
    for (const auto& k : rms) n += k.size();
    return n;
  }

  void encode(BufferList& bl) const {
    doceph::encode(sets, bl);
    doceph::encode(rms, bl);
  }
  bool decode(BufferList::Cursor& cur) {
    return doceph::decode(sets, cur) && doceph::decode(rms, cur);
  }
};

/// CPU cost of KV work, charged on the "bstore_kv_sync" thread.
struct KvCostModel {
  sim::Duration per_txn = 6000;   ///< ns per committed transaction
  double per_byte_ns = 0.05;      ///< serialization of keys/values
};

/// Ordered in-memory KV store with a crash-safe write-ahead log on a block
/// device region — the metadata engine under BlueStore-lite (RocksDB's role
/// in real BlueStore). A dedicated "bstore_kv_sync" thread group-commits
/// queued transactions, exactly like Ceph's kv_sync_thread.
///
/// Sharding (`shards > 1`): the map and the WAL group-commit stream split
/// into `shards` independent shards. A key routes by a deterministic FNV-1a
/// hash of its shard token (`shard_key` extracts the token — BlueStore
/// passes the collection component so one object's onode and collection
/// keys colocate); each shard owns an equal WAL sub-region, its own
/// checkpoint chain, and its own "bstore_kv_sync" thread. A transaction
/// touching several shards falls back to an ordered chained commit
/// (ascending shard index, each link queued after the previous link's
/// record is durable); the caller's callback fires after the LAST link, so
/// an acknowledged cross-shard txn is durable on every shard. With
/// `shards == 1` (the default) layout, thread naming and timing are
/// byte-identical to the unsharded store.
///
/// WAL layout (per shard): the sub-region is split into two segments;
/// records are appended to the active segment. When it fills, the segment
/// rolls: the other segment opens under a higher generation and a
/// checkpoint (the shard map's snapshot at the roll) heads it. mount()
/// locates the newest checkpoint and replays the txn records of its
/// generation.
///
/// A checkpoint is written as CHUNK records, each tagged with
/// (chunk_index, total_chunks) and carrying a contiguous key range of the
/// snapshot. The common case is PACED: the roll copies the map (values are
/// refcounted, so the copy shares their bytes) and writes nothing; each
/// group commit in the new segment then carries one chunk ahead of its txn
/// records, sized from the snapshot bytes left and the segment space left so
/// the snapshot completes before the segment fills (total_chunks reads 0 on
/// every chunk but the last). Txn records only fit while the segment keeps
/// room for the unwritten remainder, and a roll that finds the checkpoint
/// still open writes the remainder synchronously first — so the previous
/// segment, whose checkpoint and txns replay in place of an incomplete one,
/// is never overwritten while the current checkpoint is incomplete.
///
/// A snapshot too large to leave journal headroom in one segment (and the
/// roll right after one) is written synchronously at the roll instead: a
/// single chunk, or a chain of two whose remainder spills once into the
/// head of the other segment instead of failing permanently (the degraded
/// spanning regime). The spill overwrites the previous checkpoint, so write
/// order (target segment first) keeps the old generation recoverable until
/// the chain completes; a crash between the two chunk writes of a SECOND
/// consecutive spanning roll is the one window with no complete chain on
/// disk — strictly narrower than the pre-chain behavior, which wedged the
/// store with `no_space` at the first oversized snapshot. The near-full
/// gauge (`max_shard_bytes()` vs the chained ceiling) exists so upper layers
/// throttle before the ceiling becomes fatal.
class KvStore {
 public:
  using OnCommit = std::function<void(Status)>;
  /// Extracts the routing token from a key; keys with equal tokens land on
  /// the same shard. Default (empty fn): the whole key.
  using ShardKeyFn = std::function<std::string_view(const std::string&)>;

  KvStore(sim::Env& env, BlockDevice& dev, std::uint64_t wal_off,
          std::uint64_t wal_len, sim::CpuDomain* domain, KvCostModel costs = {},
          int shards = 1, ShardKeyFn shard_key = {});
  ~KvStore();

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Initialize an empty store on the device (writes the first checkpoint
  /// of every shard).
  Status mkfs();

  /// Load state from the WAL (checkpoint + replay, per shard) and start the
  /// sync threads.
  Status mount();

  /// Graceful stop: drain queued transactions and stop the threads. A paced
  /// checkpoint still open stays open; the next mount() resumes it.
  Status umount();

  /// Simulated power loss: stop without checkpoint or drain. Queued but
  /// uncommitted transactions are lost; committed ones replay on mount.
  /// A cross-shard chain whose tail links were still queued loses those
  /// links — but the caller was never acked, so the contract holds.
  void crash();

  /// Queue a transaction; `cb` fires after the WAL record is durable (for a
  /// cross-shard txn: after the last link of the chain is durable). A
  /// transaction whose serialized record does not fit a WAL segment even
  /// right after a fresh checkpoint (the map snapshot shares the segment)
  /// fails with `no_space` — it is never written partially or past the
  /// segment end.
  void queue(KvTxn txn, OnCommit cb);

  /// Synchronous commit helper.
  Status submit(KvTxn txn);

  [[nodiscard]] std::optional<BufferList> get(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const;

  /// Visit all keys with `prefix`, in sorted key order across every shard
  /// (snapshot semantics not guaranteed across concurrent commits; callers
  /// serialize at a higher level). Sorted order is load-bearing: allocator
  /// rebuild, list_objects and replica scrubs iterate through here.
  void for_each_prefix(const std::string& prefix,
                       const std::function<void(const std::string&,
                                                const BufferList&)>& fn) const;

  [[nodiscard]] std::size_t num_keys() const;

  /// Total bytes of keys + values resident across all shard maps.
  [[nodiscard]] std::uint64_t map_bytes() const;

  /// Bytes resident in the FULLEST shard — the size its next checkpoint
  /// snapshot will serialize to. Compared against one shard's WAL segment
  /// this is the KV-pressure half of BlueStore's fullness() gauge (the
  /// fullest shard hits the chained-checkpoint ceiling first).
  [[nodiscard]] std::uint64_t max_shard_bytes() const;

  /// Checkpoint pressure in [0, ~1]: fullest shard's resident bytes over
  /// its WAL sub-region. With shards == 1 this is exactly the pre-sharding
  /// map_bytes()/wal_len figure.
  [[nodiscard]] double checkpoint_pressure() const;

  /// Committed transaction count (diagnostics). A cross-shard txn counts
  /// once per shard link.
  [[nodiscard]] std::uint64_t committed() const noexcept { return committed_; }

  /// Checkpoint chunk records written and their device bytes (every shard,
  /// mkfs included): the checkpoint share of the WAL's device writes.
  [[nodiscard]] std::uint64_t ckpt_chunks() const noexcept { return ckpt_chunks_; }
  [[nodiscard]] std::uint64_t ckpt_bytes() const noexcept { return ckpt_bytes_; }

  /// Cross-shard chained commits completed (0 unless shards > 1).
  [[nodiscard]] std::uint64_t cross_shard_commits() const noexcept {
    return cross_shard_commits_;
  }

  [[nodiscard]] int shards() const noexcept {
    return static_cast<int>(shards_.size());
  }

  /// Shard a key routes to (tests use this to craft cross-shard txns).
  [[nodiscard]] std::size_t shard_of(const std::string& key) const;

  /// WAL append cursor of one shard: absolute device offset where its next
  /// record lands. Diagnostics/tests only — racy against a concurrently
  /// committing sync thread; read it while the store is quiesced (or
  /// crashed).
  [[nodiscard]] std::uint64_t append_offset(int shard = 0) const noexcept {
    return shards_[static_cast<std::size_t>(shard)]->append_off;
  }

  /// Whether one shard's newest checkpoint is still being paced out.
  /// Diagnostics/tests only, with the same raciness as append_offset().
  [[nodiscard]] bool checkpoint_open(int shard = 0) const noexcept {
    return shards_[static_cast<std::size_t>(shard)]->ckpt != nullptr;
  }

 private:
  using Map = std::map<std::string, BufferList>;
  struct Stream;  // replay scan state, kv.cpp

  /// A paced checkpoint in flight: the entries of the map as of the roll
  /// that are not yet on media (written ones are dropped, releasing values
  /// overwritten since). Sync thread only (and mount).
  struct PendingCheckpoint {
    Map rest;
    std::uint32_t next_index = 0;  ///< chunk index of the next record
    std::uint64_t bytes_left = 0;  ///< encoded entry bytes of `rest`
  };

  /// All per-shard state. Every shard mutex belongs to the same lock class
  /// ("bluestore.kv_map"/"bluestore.kv_queue"); no code path ever holds two
  /// instances of a class at once — cross-shard work is CHAINED through the
  /// commit queues, never nested under two shard locks (DESIGN.md §15).
  struct Shard {
    Shard(sim::TimeKeeper& tk, std::size_t idx)
        : index(idx), queue_cv(tk, "bluestore.kv_queue_cv") {}

    const std::size_t index;  ///< position in shards_ (fixes the WAL sub-region)

    mutable dbg::SharedMutex map_mutex{"bluestore.kv_map"};
    Map map DOCEPH_GUARDED_BY(map_mutex);
    std::uint64_t map_bytes DOCEPH_GUARDED_BY(map_mutex) = 0;

    // Sync-thread state.
    dbg::Mutex queue_mutex{"bluestore.kv_queue"};
    dbg::CondVar queue_cv;
    std::deque<std::pair<KvTxn, OnCommit>> queue DOCEPH_GUARDED_BY(queue_mutex);
    bool stopping DOCEPH_GUARDED_BY(queue_mutex) = false;
    sim::Thread thread;

    // WAL positions (sync thread only, except at mount).
    int active_segment = 0;
    std::uint64_t append_off = 0;  // absolute device offset
    std::uint64_t generation = 1;
    std::uint64_t next_seq = 1;
    /// Open paced checkpoint of `generation` (null once complete).
    std::unique_ptr<PendingCheckpoint> ckpt;
    /// The newest checkpoint spans both segments (its spill heads the
    /// active one): the next roll must be written in one piece.
    bool ckpt_spans = false;
  };

  /// State of an in-flight cross-shard chained commit.
  struct Chain {
    std::vector<std::pair<std::size_t, KvTxn>> links;  // ascending shard idx
    OnCommit cb;
  };

  void sync_thread(Shard& s);
  void enqueue_shard(Shard& s, KvTxn txn, OnCommit cb);
  void queue_chain_link(const std::shared_ptr<Chain>& chain, std::size_t i);
  Status write_checkpoint(Shard& s, int segment, std::uint64_t generation,
                          const Map& snapshot);
  Status roll(Shard& s);
  Status finish_checkpoint(Shard& s);
  void apply_locked(Shard& s, const KvTxn& txn) DOCEPH_REQUIRES(s.map_mutex);
  Status replay(Shard& s);
  bool scan_stream(const Shard& s, int seg, std::uint64_t off, Stream& st);
  void count_chunk(std::uint64_t len) noexcept {
    ckpt_chunks_.fetch_add(1, std::memory_order_relaxed);
    ckpt_bytes_.fetch_add(len, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t shard_wal_off(const Shard& s) const noexcept;
  [[nodiscard]] std::uint64_t shard_wal_len() const noexcept {
    return wal_len_ / shards_.size();
  }
  [[nodiscard]] std::uint64_t segment_off(const Shard& s, int seg) const noexcept {
    return shard_wal_off(s) +
           static_cast<std::uint64_t>(seg) * (shard_wal_len() / 2);
  }
  [[nodiscard]] std::uint64_t segment_len() const noexcept {
    return shard_wal_len() / 2;
  }

  sim::Env& env_;
  BlockDevice& dev_;
  std::uint64_t wal_off_;
  std::uint64_t wal_len_;
  sim::CpuDomain* domain_;
  KvCostModel costs_;
  ShardKeyFn shard_key_;

  std::vector<std::unique_ptr<Shard>> shards_;
  bool running_ = false;  // mount/umount/crash caller thread only
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::uint64_t> cross_shard_commits_{0};
  std::atomic<std::uint64_t> ckpt_chunks_{0};
  std::atomic<std::uint64_t> ckpt_bytes_{0};
};

}  // namespace doceph::bluestore
