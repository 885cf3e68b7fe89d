#include "bluestore/bluestore.h"

#include <algorithm>
#include <cassert>

#include "common/logger.h"

namespace doceph::bluestore {

// ---- Onode encoding -----------------------------------------------------------

void BlueStore::Onode::encode(BufferList& bl) const {
  doceph::encode(size, bl);
  doceph::encode(version, bl);
  doceph::encode(inline_data, bl);
  doceph::encode(extents, bl);
  doceph::encode(omap, bl);
}

bool BlueStore::Onode::decode(BufferList::Cursor& cur) {
  return doceph::decode(size, cur) && doceph::decode(version, cur) &&
         doceph::decode(inline_data, cur) && doceph::decode(extents, cur) &&
         doceph::decode(omap, cur);
}

// ---- keys ----------------------------------------------------------------------

std::string BlueStore::onode_key(const os::coll_t& c, const os::ghobject_t& o) {
  return "O/" + c.to_string() + "/" + o.name;
}
std::string BlueStore::coll_key(const os::coll_t& c) { return "C/" + c.to_string(); }
std::string BlueStore::coll_prefix(const os::coll_t& c) {
  return "O/" + c.to_string() + "/";
}

// ---- lifecycle -----------------------------------------------------------------

BlueStore::BlueStore(sim::Env& env, sim::CpuDomain* domain, BlueStoreConfig cfg,
                     std::shared_ptr<DeviceBacking> backing)
    : env_(env), domain_(domain), cfg_(cfg), seq_drained_(env.keeper(), "bluestore.seq_drained"),
      aio_cv_(env.keeper(), "bluestore.aio_cv") {
  dev_ = std::make_unique<BlockDevice>(env_, cfg_.device, std::move(backing));
  cfg_.kv_shards = std::max(1, cfg_.kv_shards);  // shard-bounds: knob >= 1
  // Shard router: keys are "O/<coll>/<name>" and "C/<coll>" — route by the
  // collection token so one object's onode and its collection key colocate
  // and every single-object transaction stays single-shard.
  KvStore::ShardKeyFn shard_key;
  if (cfg_.kv_shards > 1) {
    shard_key = [](const std::string& key) -> std::string_view {
      const std::string_view k(key);
      const auto a = k.find('/');
      if (a == std::string_view::npos) return k;
      const auto b = k.find('/', a + 1);
      return k.substr(a + 1, b == std::string_view::npos ? b : b - a - 1);
    };
  }
  kv_ = std::make_unique<KvStore>(env_, *dev_, cfg_.wal_off, cfg_.wal_len, domain_,
                                  cfg_.kv_costs, cfg_.kv_shards,
                                  std::move(shard_key));
  counters_ = perf::Builder("bluestore", l_bstore_first, l_bstore_last)
                  .add_counter(l_bstore_txns, "txns")
                  .add_histogram(l_bstore_commit_lat, "commit_lat")
                  .add_gauge(l_bstore_free_bytes, "free_bytes")
                  .add_gauge(l_bstore_kv_bytes, "kv_bytes")
                  .add_gauge(l_bstore_nearfull, "nearfull")
                  .add_gauge(l_bstore_kv_shard_bytes_hw, "kv_shard_bytes_hw")
                  .add_gauge(l_bstore_kv_shard_cross, "kv_shard_cross")
                  .add_counter(l_bstore_kv_ckpt_bytes, "kv_ckpt_bytes")
                  .add_counter(l_bstore_kv_ckpt_chunks, "kv_ckpt_chunks")
                  .create();
}

BlueStore::~BlueStore() {  // NOLINT(bugprone-exception-escape): teardown must complete; a throw terminates, by design
  if (mounted_) simulate_crash();
}

Status BlueStore::mkfs() { return kv_->mkfs(); }

Status BlueStore::mount() {
  assert(!mounted_);
  const Status st = kv_->mount();
  if (!st.ok()) return st;

  // Rebuild the allocator from the onodes: everything not referenced by an
  // onode extent (and outside the WAL region) is free.
  const std::uint64_t data_base =
      (cfg_.wal_off + cfg_.wal_len + cfg_.alloc_unit - 1) / cfg_.alloc_unit *
      cfg_.alloc_unit;
  alloc_ = std::make_unique<ExtentAllocator>(
      data_base, dev_->size() - data_base, cfg_.alloc_unit);
  Status rebuild = Status::OK();
  kv_->for_each_prefix("O/", [&](const std::string& key, const BufferList& val) {
    Onode onode;
    BufferList::Cursor cur(val);
    if (!onode.decode(cur)) {
      rebuild = Status(Errc::corrupt, "bad onode " + key);
      return;
    }
    for (const auto& e : onode.extents) alloc_->mark_used(e.off, e.len);
  });
  if (!rebuild.ok()) {
    (void)kv_->umount();
    return rebuild;
  }
  start_aio_thread();
  mounted_ = true;
  return Status::OK();
}

Status BlueStore::umount() {
  if (!mounted_) return Status::OK();
  // Drain all in-flight transactions.
  {
    dbg::UniqueLock lk(mutex_);
    seq_drained_.wait(lk, [&] {
      mutex_.assert_held();  // predicate runs as a separate function
      return sequencers_.empty();
    });
    onode_cache_.clear();
    lru_.clear();
    coll_cache_.clear();
  }
  const Status st = kv_->umount();
  stop_aio_thread();
  mounted_ = false;
  return st;
}

void BlueStore::simulate_crash() {
  std::vector<TxRef> pending;
  {
    const dbg::LockGuard lk(mutex_);
    for (auto& [cid, dq] : sequencers_)
      for (auto& txc : dq) pending.push_back(txc);
    sequencers_.clear();
    onode_cache_.clear();
    lru_.clear();
    coll_cache_.clear();
    seq_drained_.notify_all();
  }
  kv_->crash();
  stop_aio_thread();
  for (auto& txc : pending) {
    if (txc->on_commit && !txc->submitted)
      txc->on_commit(Status(Errc::shutting_down, "bluestore crashed"));
  }
  mounted_ = false;
}

// ---- onode cache ---------------------------------------------------------------

std::optional<BlueStore::Onode> BlueStore::get_onode_locked(const os::coll_t& c,
                                                            const os::ghobject_t& o) {
  const std::string key = onode_key(c, o);
  auto it = onode_cache_.find(key);
  if (it != onode_cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.onode;
  }
  auto val = kv_->get(key);
  if (!val) return std::nullopt;
  Onode onode;
  BufferList::Cursor cur(*val);
  if (!onode.decode(cur)) return std::nullopt;
  put_onode_locked(key, onode);
  return onode;
}

void BlueStore::put_onode_locked(const std::string& key, const Onode& onode) {
  auto it = onode_cache_.find(key);
  if (it != onode_cache_.end()) {
    it->second.onode = onode;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(key);
  onode_cache_[key] = CacheEntry{onode, lru_.begin()};
  if (onode_cache_.size() > cfg_.onode_cache_capacity) {
    onode_cache_.erase(lru_.back());
    lru_.pop_back();
  }
}

void BlueStore::erase_onode_locked(const std::string& key) {
  auto it = onode_cache_.find(key);
  if (it == onode_cache_.end()) return;
  lru_.erase(it->second.lru_it);
  onode_cache_.erase(it);
}

// ---- content IO ----------------------------------------------------------------

std::vector<Extent> BlueStore::place_content(
    const BufferList& content, Onode& onode,
    std::vector<std::pair<std::uint64_t, BufferList>>& writes) {
  onode.size = content.length();
  if (content.length() <= cfg_.inline_threshold) {
    onode.inline_data = content;
    onode.extents.clear();
    return {};
  }
  auto extents = alloc_->allocate(content.length());
  if (!extents.ok()) {
    // Signalled via empty extents + caller checks build_status.
    return {};
  }
  onode.inline_data.clear();
  onode.extents = *extents;
  std::uint64_t pos = 0;
  for (const auto& e : *extents) {
    const std::uint64_t n = std::min<std::uint64_t>(e.len, content.length() - pos);
    writes.emplace_back(e.off, content.substr(pos, n));
    pos += n;
    if (pos >= content.length()) break;
  }
  return *extents;
}

// ---- transaction build / commit -------------------------------------------------

void BlueStore::queue_transaction(os::Transaction txn, OnCommit on_commit) {
  if (!mounted_) {
    if (on_commit) on_commit(Status(Errc::shutting_down, "not mounted"));
    return;
  }
  if (domain_ != nullptr)
    domain_->charge(cfg_.per_op_prep * static_cast<sim::Duration>(txn.num_ops()));

  auto txc = std::make_shared<TxContext>();
  txc->seq_cid = txn.ops().empty() ? os::coll_t{} : txn.ops().front().cid;
  // Per-shard txn parent: with kv_shards > 1 the span's domain names the KV
  // shard this transaction commits through (collection-token routing), so a
  // trace shows which group-commit stream carried it. The default store
  // keeps the legacy domain — byte-identical dumps.
  std::string span_domain = "bluestore." + cfg_.device.name;
  if (kv_->shards() > 1) {
    span_domain += ".kv" + std::to_string(kv_->shard_of(coll_key(txc->seq_cid)));
  }
  // Shared, not captured by value: Span is move-only and on_commit is a
  // copyable std::function. No-op unless the transaction's op was sampled.
  auto sp = std::make_shared<trace::Span>(env_.tracer().span(
      "bluestore.txn", span_domain, txn.trace(), env_.now()));
  txc->on_commit = [this, sp, queued = env_.now(),
                    cb = std::move(on_commit)](Status st) {
    sp->end(env_.now());
    counters_->inc(l_bstore_txns);
    counters_->rec(l_bstore_commit_lat, env_.now() - queued);
    if (cb) cb(std::move(st));
  };

  // Read-modify-write ops must observe stable device content: wait for the
  // collection's in-flight data writes first (write_full — the hot path —
  // never needs this).
  bool needs_rmw = false;
  for (const auto& op : txn.ops()) {
    if (op.op == os::TxnOp::write || op.op == os::TxnOp::zero ||
        op.op == os::TxnOp::truncate)
      needs_rmw = true;
  }
  std::map<std::string, BufferList> prefetched;
  if (needs_rmw) {
    flush_collection(txc->seq_cid);
    // Read current whole-object content for every RMW target, without
    // holding the store mutex (device reads block in simulated time). The
    // PG layer serializes writers per object, so the content is stable.
    for (const auto& op : txn.ops()) {
      if (op.op != os::TxnOp::write && op.op != os::TxnOp::zero &&
          op.op != os::TxnOp::truncate)
        continue;
      const std::string okey = onode_key(op.cid, op.oid);
      if (prefetched.contains(okey)) continue;
      auto content = read(op.cid, op.oid, 0, 0);
      prefetched[okey] = content.ok() ? std::move(*content) : BufferList{};
    }
  }

  std::vector<std::pair<std::uint64_t, BufferList>> writes;
  build_txc(txn, txc, writes, prefetched);

  {
    const dbg::LockGuard lk(mutex_);
    txc->pending_ios = static_cast<int>(writes.size());
    if (txc->pending_ios == 0) txc->ios_done = true;
    sequencers_[txc->seq_cid].push_back(txc);
    if (txc->ios_done) submit_ready_locked(txc->seq_cid);
  }

  for (auto& [off, data] : writes) {
    const std::uint64_t bytes = data.length();
    dev_->aio_write(off, std::move(data), [this, txc, bytes](Status st) {
      // Device completion arrives on the event scheduler thread, which must
      // never block; hand the (CPU-charged) completion work to "bstore_aio".
      aio_enqueue([this, txc, bytes, st] {
        if (domain_ != nullptr)
          domain_->charge(cfg_.per_aio +
                          static_cast<sim::Duration>(cfg_.csum_per_byte_ns *
                                                     static_cast<double>(bytes)));
        if (!st.ok()) txc->build_status = st;
        on_ios_complete(txc);
      });
    });
  }
}

void BlueStore::aio_enqueue(std::function<void()> task) {
  const dbg::LockGuard lk(aio_mutex_);
  if (aio_stop_) return;  // post-crash stray completion: drop
  aio_queue_.push_back(std::move(task));
  aio_cv_.notify_one();
}

void BlueStore::aio_thread_loop() {
  while (true) {
    std::function<void()> task;
    {
      dbg::UniqueLock lk(aio_mutex_);
      aio_cv_.wait(lk, [&] {
        aio_mutex_.assert_held();
        return aio_stop_ || !aio_queue_.empty();
      });
      if (aio_queue_.empty() && aio_stop_) return;
      task = std::move(aio_queue_.front());
      aio_queue_.pop_front();
    }
    task();
  }
}

void BlueStore::start_aio_thread() {
  {
    const dbg::LockGuard lk(aio_mutex_);
    aio_stop_ = false;
  }
  aio_thread_ = sim::Thread(env_.keeper(), env_.stats(), "bstore_aio", domain_,
                            [this] { aio_thread_loop(); }, /*daemon=*/true);
}

void BlueStore::stop_aio_thread() {
  {
    const dbg::LockGuard lk(aio_mutex_);
    if (aio_stop_) return;
    aio_stop_ = true;
    aio_cv_.notify_all();
  }
  aio_thread_.join();
}

void BlueStore::build_txc(os::Transaction& txn, const TxRef& txc,
                          std::vector<std::pair<std::uint64_t, BufferList>>& writes,
                          std::map<std::string, BufferList>& prefetched) {
  const dbg::LockGuard lk(mutex_);
  for (auto& op : txn.ops()) {
    const std::string okey = onode_key(op.cid, op.oid);
    switch (op.op) {
      case os::TxnOp::create_collection: {
        txc->kv.sets[coll_key(op.cid)] = BufferList{};
        coll_cache_.insert(coll_key(op.cid));
        continue;
      }
      case os::TxnOp::remove_collection: {
        txc->kv.rms.push_back(coll_key(op.cid));
        coll_cache_.erase(coll_key(op.cid));
        kv_->for_each_prefix(coll_prefix(op.cid),
                             [&](const std::string& key, const BufferList& val) {
                               Onode onode;
                               BufferList::Cursor cur(val);
                               if (onode.decode(cur) && !onode.extents.empty())
                                 txc->release_after_commit.push_back(onode.extents);
                               txc->kv.rms.push_back(key);
                               erase_onode_locked(key);
                             });
        continue;
      }
      default:
        break;
    }

    if (!kv_->contains(coll_key(op.cid)) && !coll_cache_.contains(coll_key(op.cid))) {
      txc->build_status = Status(Errc::not_found, "collection " + op.cid.to_string());
      continue;
    }

    if (op.op == os::TxnOp::remove) {
      auto onode = get_onode_locked(op.cid, op.oid);
      if (onode && !onode->extents.empty())
        txc->release_after_commit.push_back(onode->extents);
      txc->kv.rms.push_back(okey);
      erase_onode_locked(okey);
      continue;
    }

    Onode onode = get_onode_locked(op.cid, op.oid).value_or(Onode{});
    onode.version++;

    switch (op.op) {
      case os::TxnOp::touch:
        break;
      case os::TxnOp::write_full: {
        if (!onode.extents.empty()) txc->release_after_commit.push_back(onode.extents);
        place_content(op.data, onode, writes);
        if (op.data.length() > cfg_.inline_threshold && onode.extents.empty()) {
          txc->build_status = Status(Errc::no_space, "allocation failed");
          continue;
        }
        break;
      }
      case os::TxnOp::write:
      case os::TxnOp::zero:
      case os::TxnOp::truncate: {
        // COW read-modify-write of the whole object, using the content
        // prefetched before the store mutex was taken.
        std::string content = prefetched[okey].to_string();
        if (op.op == os::TxnOp::write) {
          const std::size_t end = op.off + op.data.length();
          if (content.size() < end) content.resize(end, '\0');
          op.data.copy_out(0, op.data.length(), content.data() + op.off);
        } else if (op.op == os::TxnOp::zero) {
          const std::size_t end = op.off + op.len;
          if (content.size() < end) content.resize(end, '\0');
          std::fill_n(content.begin() + static_cast<long>(op.off), op.len, '\0');
        } else {
          content.resize(op.off, '\0');
        }
        if (!onode.extents.empty()) txc->release_after_commit.push_back(onode.extents);
        const BufferList content_bl = BufferList::copy_of(content);
        place_content(content_bl, onode, writes);
        if (content_bl.length() > cfg_.inline_threshold && onode.extents.empty()) {
          txc->build_status = Status(Errc::no_space, "allocation failed");
          continue;
        }
        break;
      }
      case os::TxnOp::omap_set:
        for (auto& [k, v] : op.kv) onode.omap[k] = v;
        break;
      case os::TxnOp::omap_rm_keys:
        for (const auto& k : op.keys) onode.omap.erase(k);
        break;
      default:
        txc->build_status = Status(Errc::not_supported, "txn op");
        continue;
    }

    BufferList encoded;
    onode.encode(encoded);
    txc->kv.sets[okey] = std::move(encoded);
    put_onode_locked(okey, onode);
  }
}

void BlueStore::on_ios_complete(const TxRef& txc) {
  const dbg::LockGuard lk(mutex_);
  if (--txc->pending_ios > 0) return;
  txc->ios_done = true;
  submit_ready_locked(txc->seq_cid);
}

void BlueStore::submit_ready_locked(const os::coll_t& cid) {
  auto it = sequencers_.find(cid);
  if (it == sequencers_.end()) return;
  auto& dq = it->second;
  while (!dq.empty() && dq.front()->ios_done && !dq.front()->submitted) {
    TxRef txc = dq.front();
    txc->submitted = true;
    dq.pop_front();
    if (!txc->build_status.ok()) {
      // Nothing reached the device/kv atomically; report the build error.
      finish_txc(txc, txc->build_status);
      continue;
    }
    kv_->queue(std::move(txc->kv), [this, txc](Status st) { finish_txc(txc, st); });
  }
  if (dq.empty()) {
    sequencers_.erase(it);
    seq_drained_.notify_all();
  }
}

void BlueStore::finish_txc(const TxRef& txc, Status st) {
  if (txc->finished.exchange(true)) {
    std::fprintf(stderr,
                 "BUG: finish_txc called twice (st=%s, build=%s, submitted=%d)\n",
                 st.to_string().c_str(), txc->build_status.to_string().c_str(),
                 txc->submitted ? 1 : 0);
    return;
  }
  if (st.ok()) {
    for (const auto& extents : txc->release_after_commit) alloc_->release(extents);
  }
  // Refresh the capacity gauges on every commit: allocator headroom, KV
  // checkpoint pressure, and the near-full flag the OSD's admission
  // throttle mirrors (both compare fullness() with os::kNearfullRatio).
  counters_->set(l_bstore_free_bytes, alloc_->free_bytes());
  counters_->set(l_bstore_kv_bytes, kv_->map_bytes());
  counters_->set(l_bstore_nearfull, fullness() >= os::kNearfullRatio ? 1 : 0);
  // Checkpoint writes go in as deltas of the KV totals, so a counter reset
  // opens a clean window. Shard sync threads race here: only the caller
  // that advances `seen` adds the difference.
  auto add_delta = [this](int idx, std::atomic<std::uint64_t>& seen,
                          std::uint64_t total) {
    std::uint64_t prev = seen.load(std::memory_order_relaxed);
    while (prev < total && !seen.compare_exchange_weak(prev, total)) {
    }
    if (prev < total) counters_->inc(idx, total - prev);
  };
  add_delta(l_bstore_kv_ckpt_bytes, ckpt_bytes_seen_, kv_->ckpt_bytes());
  add_delta(l_bstore_kv_ckpt_chunks, ckpt_chunks_seen_, kv_->ckpt_chunks());
  if (kv_->shards() > 1) {
    counters_->set(l_bstore_kv_shard_bytes_hw, kv_->max_shard_bytes());
    counters_->set(l_bstore_kv_shard_cross, kv_->cross_shard_commits());
  }
  if (txc->on_commit) txc->on_commit(st);
}

double BlueStore::fullness() const {
  if (!mounted_ || !alloc_) return 0.0;
  const double total = static_cast<double>(alloc_->total_bytes());
  const double alloc_used =
      total > 0 ? 1.0 - static_cast<double>(alloc_->free_bytes()) / total : 0.0;
  // KV pressure against the chained-checkpoint ceiling: a snapshot may span
  // both WAL segments of its shard (two max-packed chunks), so 1.0 is the
  // hard limit beyond which checkpoint rolls fail with no_space. Above ~0.5
  // the shard is already in the degraded spanning regime (rolls rewrite
  // both segments); os::kNearfullRatio, between the two, sheds load before
  // the ceiling becomes fatal. Sharded stores gauge the FULLEST shard — it
  // hits the ceiling first, and hash imbalance makes it the binding
  // constraint.
  return std::max(alloc_used, kv_->checkpoint_pressure());
}

void BlueStore::flush_collection(const os::coll_t& cid) {
  dbg::UniqueLock lk(mutex_);
  seq_drained_.wait(lk, [&] {
    mutex_.assert_held();
    return !sequencers_.contains(cid);
  });
}

// ---- reads ----------------------------------------------------------------------

void BlueStore::read_async(const os::coll_t& c, const os::ghobject_t& o,
                           std::uint64_t off, std::uint64_t len, OnRead on_read,
                           const trace::TraceContext&) {
  bool coll = false;
  std::optional<Onode> onode;
  {
    const dbg::LockGuard lk(mutex_);
    coll = kv_->contains(coll_key(c));
    if (coll) onode = get_onode_locked(c, o);
  }
  if (!coll) return on_read(Status(Errc::not_found, "collection"));
  if (!onode) return on_read(Status(Errc::not_found, o.to_string()));
  if (off >= onode->size) return on_read(BufferList{});
  const std::uint64_t want =
      len == 0 ? onode->size - off : std::min<std::uint64_t>(len, onode->size - off);
  if (onode->extents.empty()) return on_read(onode->inline_data.substr(off, want));

  // Read only the extents overlapping [off, off+want).
  auto rd = std::make_shared<ExtentRead>();
  rd->on_read = std::move(on_read);
  std::uint64_t logical = 0;
  std::uint64_t got = 0;
  for (const auto& e : onode->extents) {
    if (got >= want) break;
    const std::uint64_t e_end = logical + e.len;
    const std::uint64_t read_from = std::max(off + got, logical);
    if (read_from < e_end) {
      const std::uint64_t n = std::min<std::uint64_t>(e_end - read_from, want - got);
      rd->pieces.emplace_back(e.off + (read_from - logical), n);
      got += n;
    }
    logical = e_end;
  }
  read_next(rd);
}

void BlueStore::read_next(const std::shared_ptr<ExtentRead>& rd) {
  if (rd->next == rd->pieces.size()) return rd->on_read(std::move(rd->out));
  const auto [dev_off, n] = rd->pieces[rd->next++];
  // Runs on the device completion context: no blocking, no CPU charge.
  dev_->aio_read(dev_off, n, [this, rd](Result<BufferList> r) {
    if (!r.ok()) return rd->on_read(r.status());
    rd->out.claim_append(*r);
    read_next(rd);
  });
}

Result<BufferList> BlueStore::read(const os::coll_t& c, const os::ghobject_t& o,
                                   std::uint64_t off, std::uint64_t len,
                                   const trace::TraceContext& ctx) {
  return dbg::await<Result<BufferList>>(
      env_.keeper(), "bluestore.read_wait",
      [&](OnRead done) { read_async(c, o, off, len, std::move(done), ctx); });
}

Result<os::ObjectInfo> BlueStore::stat(const os::coll_t& c, const os::ghobject_t& o) {
  const dbg::LockGuard lk(mutex_);
  if (!kv_->contains(coll_key(c))) return Status(Errc::not_found, "collection");
  auto onode = get_onode_locked(c, o);
  if (!onode) return Status(Errc::not_found, o.to_string());
  return os::ObjectInfo{onode->size, onode->version};
}

bool BlueStore::exists(const os::coll_t& c, const os::ghobject_t& o) {
  const dbg::LockGuard lk(mutex_);
  return kv_->contains(onode_key(c, o));
}

Result<std::map<std::string, BufferList>> BlueStore::omap_get(const os::coll_t& c,
                                                              const os::ghobject_t& o) {
  const dbg::LockGuard lk(mutex_);
  if (!kv_->contains(coll_key(c))) return Status(Errc::not_found, "collection");
  auto onode = get_onode_locked(c, o);
  if (!onode) return Status(Errc::not_found, o.to_string());
  return onode->omap;
}

Result<std::vector<os::ghobject_t>> BlueStore::list_objects(const os::coll_t& c) {
  if (!kv_->contains(coll_key(c))) return Status(Errc::not_found, "collection");
  std::vector<os::ghobject_t> out;
  const std::string prefix = coll_prefix(c);
  kv_->for_each_prefix(prefix, [&](const std::string& key, const BufferList&) {
    out.push_back(os::ghobject_t{c.pool, key.substr(prefix.size())});
  });
  return out;
}

std::vector<os::coll_t> BlueStore::list_collections() {
  std::vector<os::coll_t> out;
  kv_->for_each_prefix("C/", [&](const std::string& key, const BufferList&) {
    const std::string id = key.substr(2);
    const auto dot = id.find('.');
    if (dot == std::string::npos) return;
    out.push_back(os::coll_t{
        static_cast<os::pool_t>(std::stoul(id.substr(0, dot))),
        static_cast<std::uint32_t>(std::stoul(id.substr(dot + 1)))});
  });
  return out;
}

bool BlueStore::collection_exists(const os::coll_t& c) {
  return kv_->contains(coll_key(c));
}

}  // namespace doceph::bluestore
