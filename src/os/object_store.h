#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/perf_counters.h"
#include "common/result.h"
#include "os/transaction.h"

namespace doceph::os {

/// The pluggable storage-backend interface (Ceph's ObjectStore). The OSD is
/// written against this; DoCeph exploits exactly this seam: on the DPU the
/// OSD holds a ProxyObjectStore that forwards calls to a host-side BlueStore.
///
/// Writes and reads are asynchronous: queue_transaction and read_async return
/// at once, and their callbacks fire (possibly inline or on an internal thread)
/// once the batch is durable or the bytes are in hand. read() is the blocking
/// adapter over read_async for callers that may park (OSD recovery scans and
/// pushes, scrub); the OSD serves client reads from read_async's callback.
class ObjectStore {
 public:
  using OnCommit = std::function<void(Status)>;
  using OnRead = std::function<void(Result<BufferList>)>;

  virtual ~ObjectStore() = default;

  virtual Status mount() = 0;
  virtual Status umount() = 0;

  /// Apply `txn` atomically; `on_commit` fires after durability. Callbacks
  /// for transactions queued from the same thread fire in queue order.
  virtual void queue_transaction(Transaction txn, OnCommit on_commit) = 0;

  /// Read [off, off+len) of an object (len 0 = whole object). `on_read`
  /// runs exactly once, errors included, and must not block: it may run on
  /// a device completion context. `ctx` parents the store's spans, as
  /// Transaction::trace() does for writes.
  virtual void read_async(const coll_t& c, const ghobject_t& o, std::uint64_t off,
                          std::uint64_t len, OnRead on_read,
                          const trace::TraceContext& ctx = {}) = 0;
  /// Blocking adapter over read_async: parks the calling sim thread.
  virtual Result<BufferList> read(const coll_t& c, const ghobject_t& o,
                                  std::uint64_t off, std::uint64_t len,
                                  const trace::TraceContext& ctx = {}) = 0;

  virtual Result<ObjectInfo> stat(const coll_t& c, const ghobject_t& o) = 0;
  virtual bool exists(const coll_t& c, const ghobject_t& o) = 0;

  virtual Result<std::map<std::string, BufferList>> omap_get(const coll_t& c,
                                                             const ghobject_t& o) = 0;

  /// Objects in a collection, sorted.
  virtual Result<std::vector<ghobject_t>> list_objects(const coll_t& c) = 0;
  virtual std::vector<coll_t> list_collections() = 0;
  virtual bool collection_exists(const coll_t& c) = 0;

  /// Human-readable backend kind ("memstore", "bluestore", "proxy").
  [[nodiscard]] virtual std::string store_type() const = 0;

  /// The store's PerfCounters block, if it exports one (may be null). The
  /// owning daemon folds it into its perf collection for "perf dump".
  [[nodiscard]] virtual perf::PerfCountersRef perf_counters() const {
    return nullptr;
  }

  /// Fraction of backend capacity in use — the max over allocator pressure
  /// and KV/WAL checkpoint pressure for BlueStore-backed stores (it can
  /// exceed 1.0 in the degraded spanning regime). 0 when unknown; the OSD's
  /// near-full admission throttle compares this against kNearfullRatio.
  [[nodiscard]] virtual double fullness() const { return 0.0; }
};

/// Near-full high-water of ObjectStore::fullness(): BlueStore's
/// l_bstore_nearfull gauge reads 1 at or above it, and the OSD sheds client
/// writes there (DESIGN.md §14.3).
inline constexpr double kNearfullRatio = 0.85;

using ObjectStoreRef = std::unique_ptr<ObjectStore>;

}  // namespace doceph::os
