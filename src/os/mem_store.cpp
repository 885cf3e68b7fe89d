#include "os/mem_store.h"

#include <algorithm>
#include <optional>

namespace doceph::os {

void MemStore::queue_transaction(Transaction txn, OnCommit on_commit) {
  Status st;
  {
    const dbg::LockGuard lk(mutex_);
    st = apply_locked(txn);
  }
  if (on_commit) on_commit(st);
}

Status MemStore::apply_locked(const Transaction& txn) {
  for (const auto& op : txn.ops()) {
    switch (op.op) {
      case TxnOp::create_collection:
        colls_.try_emplace(op.cid);
        continue;
      case TxnOp::remove_collection:
        colls_.erase(op.cid);
        continue;
      default:
        break;
    }

    auto cit = colls_.find(op.cid);
    if (cit == colls_.end())
      return Status(Errc::not_found, "collection " + op.cid.to_string());
    Collection& coll = cit->second;

    if (op.op == TxnOp::remove) {
      coll.erase(op.oid);
      continue;
    }

    Object& obj = coll[op.oid];  // touch/write create on demand
    obj.version++;
    switch (op.op) {
      case TxnOp::touch:
        break;
      case TxnOp::write: {
        const std::size_t end = op.off + op.data.length();
        if (obj.content.size() < end) obj.content.resize(end, '\0');
        op.data.copy_out(0, op.data.length(), obj.content.data() + op.off);
        break;
      }
      case TxnOp::write_full:
        obj.content = op.data.to_string();
        break;
      case TxnOp::zero: {
        const std::size_t end = op.off + op.len;
        if (obj.content.size() < end) obj.content.resize(end, '\0');
        std::fill_n(obj.content.begin() + static_cast<long>(op.off), op.len, '\0');
        break;
      }
      case TxnOp::truncate:
        obj.content.resize(op.off, '\0');
        break;
      case TxnOp::omap_set:
        for (const auto& [k, v] : op.kv) obj.omap[k] = v;
        break;
      case TxnOp::omap_rm_keys:
        for (const auto& k : op.keys) obj.omap.erase(k);
        break;
      default:
        return Status(Errc::not_supported, "bad txn op");
    }
  }
  return Status::OK();
}

void MemStore::read_async(const coll_t& c, const ghobject_t& o, std::uint64_t off,
                          std::uint64_t len, OnRead on_read, const trace::TraceContext&) {
  on_read([&]() -> Result<BufferList> {
    const dbg::LockGuard lk(mutex_);
    auto cit = colls_.find(c);
    if (cit == colls_.end()) return Status(Errc::not_found, "collection");
    auto oit = cit->second.find(o);
    if (oit == cit->second.end()) return Status(Errc::not_found, o.to_string());
    const std::string& content = oit->second.content;
    if (off >= content.size()) return BufferList{};
    const std::uint64_t n = len == 0 ? content.size() - off
                                     : std::min<std::uint64_t>(len, content.size() - off);
    return BufferList::copy_of(content.data() + off, n);
  }());
}

Result<BufferList> MemStore::read(const coll_t& c, const ghobject_t& o,
                                  std::uint64_t off, std::uint64_t len,
                                  const trace::TraceContext& ctx) {
  std::optional<Result<BufferList>> out;
  read_async(c, o, off, len, [&](Result<BufferList> r) { out.emplace(std::move(r)); },
             ctx);
  return std::move(*out);
}

Result<ObjectInfo> MemStore::stat(const coll_t& c, const ghobject_t& o) {
  const dbg::LockGuard lk(mutex_);
  auto cit = colls_.find(c);
  if (cit == colls_.end()) return Status(Errc::not_found, "collection");
  auto oit = cit->second.find(o);
  if (oit == cit->second.end()) return Status(Errc::not_found, o.to_string());
  return ObjectInfo{oit->second.content.size(), oit->second.version};
}

bool MemStore::exists(const coll_t& c, const ghobject_t& o) {
  const dbg::LockGuard lk(mutex_);
  auto cit = colls_.find(c);
  return cit != colls_.end() && cit->second.contains(o);
}

Result<std::map<std::string, BufferList>> MemStore::omap_get(const coll_t& c,
                                                             const ghobject_t& o) {
  const dbg::LockGuard lk(mutex_);
  auto cit = colls_.find(c);
  if (cit == colls_.end()) return Status(Errc::not_found, "collection");
  auto oit = cit->second.find(o);
  if (oit == cit->second.end()) return Status(Errc::not_found, o.to_string());
  return oit->second.omap;
}

Result<std::vector<ghobject_t>> MemStore::list_objects(const coll_t& c) {
  const dbg::LockGuard lk(mutex_);
  auto cit = colls_.find(c);
  if (cit == colls_.end()) return Status(Errc::not_found, "collection");
  std::vector<ghobject_t> out;
  out.reserve(cit->second.size());
  for (const auto& [oid, obj] : cit->second) out.push_back(oid);
  return out;
}

std::vector<coll_t> MemStore::list_collections() {
  const dbg::LockGuard lk(mutex_);
  std::vector<coll_t> out;
  out.reserve(colls_.size());
  for (const auto& [cid, coll] : colls_) out.push_back(cid);
  return out;
}

bool MemStore::collection_exists(const coll_t& c) {
  const dbg::LockGuard lk(mutex_);
  return colls_.contains(c);
}

}  // namespace doceph::os
