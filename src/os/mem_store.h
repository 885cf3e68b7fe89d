#pragma once

#include <map>
#include <string>

#include "dbg/mutex.h"
#include "os/object_store.h"

namespace doceph::os {

/// Trivial in-memory ObjectStore: applies transactions synchronously and
/// fires on_commit inline. The reference implementation for store semantics
/// (BlueStore-lite and the proxy are tested against it) and the backend for
/// unit tests that don't need a device model.
class MemStore final : public ObjectStore {
 public:
  Status mount() override { return Status::OK(); }
  Status umount() override { return Status::OK(); }

  void queue_transaction(Transaction txn, OnCommit on_commit) override;

  /// Completes inline, on the calling thread.
  void read_async(const coll_t& c, const ghobject_t& o, std::uint64_t off,
                  std::uint64_t len, OnRead on_read,
                  const trace::TraceContext& ctx = {}) override;
  Result<BufferList> read(const coll_t& c, const ghobject_t& o, std::uint64_t off,
                          std::uint64_t len,
                          const trace::TraceContext& ctx = {}) override;
  Result<ObjectInfo> stat(const coll_t& c, const ghobject_t& o) override;
  bool exists(const coll_t& c, const ghobject_t& o) override;
  Result<std::map<std::string, BufferList>> omap_get(const coll_t& c,
                                                     const ghobject_t& o) override;
  Result<std::vector<ghobject_t>> list_objects(const coll_t& c) override;
  std::vector<coll_t> list_collections() override;
  bool collection_exists(const coll_t& c) override;

  [[nodiscard]] std::string store_type() const override { return "memstore"; }

  /// Apply one transaction to an object map (shared with tests; must hold
  /// external synchronization).
  struct Object {
    std::string content;
    std::map<std::string, BufferList> omap;
    std::uint64_t version = 0;
  };
  using Collection = std::map<ghobject_t, Object>;

 private:
  Status apply_locked(const Transaction& txn);

  dbg::Mutex mutex_{"os.mem_store"};
  std::map<coll_t, Collection> colls_;
};

}  // namespace doceph::os
