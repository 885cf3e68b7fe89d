#include "bluestore/kv.h"

#include <algorithm>
#include <cassert>

#include "common/crc32c.h"
#include "common/logger.h"
#include "common/shard.h"

namespace doceph::bluestore {
namespace {

constexpr std::uint32_t kWalMagic = 0xB1E57A6E;
constexpr std::uint8_t kKindCheckpoint = 1;
constexpr std::uint8_t kKindTxn = 2;
constexpr std::size_t kRecHeader = 4 + 1 + 8 + 8 + 4;  // magic kind gen seq len
constexpr std::size_t kRecTrailer = 4;                 // crc
constexpr std::size_t kChunkHdr = 4 + 4;  // checkpoint chunk_index + total_chunks

/// Serialize one WAL record.
BufferList make_record(std::uint8_t kind, std::uint64_t gen, std::uint64_t seq,
                       const BufferList& payload) {
  BufferList rec;
  doceph::encode(kWalMagic, rec);
  doceph::encode(kind, rec);
  doceph::encode(gen, rec);
  doceph::encode(seq, rec);
  doceph::encode(static_cast<std::uint32_t>(payload.length()), rec);
  rec.append(payload);
  // CRC over everything after the magic.
  const BufferList body = rec.substr(4, rec.length() - 4);
  doceph::encode(body.crc32c(), rec);
  return rec;
}

struct ParsedRecord {
  std::uint8_t kind = 0;
  std::uint64_t gen = 0;
  std::uint64_t seq = 0;
  BufferList payload;
  std::uint64_t total_len = 0;
};

}  // namespace

KvStore::KvStore(sim::Env& env, BlockDevice& dev, std::uint64_t wal_off,
                 std::uint64_t wal_len, sim::CpuDomain* domain, KvCostModel costs,
                 int shards, ShardKeyFn shard_key)
    : env_(env),
      dev_(dev),
      wal_off_(wal_off),
      wal_len_(wal_len),
      domain_(domain),
      costs_(costs),
      shard_key_(std::move(shard_key)) {
  shards = std::max(1, shards);  // *_shards knobs are clamped to >= 1 at parse
  assert(wal_len_ / static_cast<std::uint64_t>(shards) >= 2 << 20 &&
         "WAL sub-region per shard too small");
  shards_.reserve(static_cast<std::size_t>(shards));
  for (std::size_t i = 0; i < static_cast<std::size_t>(shards); ++i)
    shards_.push_back(std::make_unique<Shard>(env.keeper(), i));
}

KvStore::~KvStore() {  // NOLINT(bugprone-exception-escape): teardown must complete; a throw terminates, by design
  if (running_) crash();
}

std::uint64_t KvStore::shard_wal_off(const Shard& s) const noexcept {
  return wal_off_ + s.index * shard_wal_len();
}

std::size_t KvStore::shard_of(const std::string& key) const {
  if (shards_.size() == 1) return 0;
  const std::string_view token =
      shard_key_ ? shard_key_(key) : std::string_view(key);
  return common::shard_of_key(token, shards_.size());
}

Status KvStore::mkfs() {
  assert(!running_);
  for (auto& sp : shards_) {
    Shard& s = *sp;
    {
      const dbg::WriteLockGuard lk(s.map_mutex);
      s.map.clear();
      s.map_bytes = 0;
    }
    s.generation = 1;
    s.active_segment = 0;
    const Status st = write_checkpoint(s, 0, 1);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status KvStore::write_checkpoint(Shard& s, int segment, std::uint64_t generation) {
  BufferList snapshot;
  {
    const dbg::ReadLockGuard lk(s.map_mutex);
    doceph::encode(s.map, snapshot);
  }
  // Chained checkpoint: one or two kKindCheckpoint records, each carrying
  // (chunk_index, total_chunks) ahead of its slice of the snapshot (the seq
  // field doubles as the chunk index). The common case is a single chunk at
  // the head of `segment`; an oversized snapshot spills its remainder once
  // into the head of the other segment. Write order — target segment first,
  // spill second — keeps the previous generation's checkpoint recoverable
  // until the chain is complete (the spill write is what overwrites it).
  // Journal headroom: the segment where appends resume after the roll must
  // keep room for subsequent txn records, or the store wedges — every roll
  // would rewrite the same snapshot and still reject the record that forced
  // it. A snapshot that would leave less than this in its own segment
  // spills into the other one instead (the spill chunk is small there, so
  // appends after it see nearly a full segment).
  const std::uint64_t chunk_cap =
      segment_len() - (kRecHeader + kChunkHdr + kRecTrailer);
  const std::uint64_t headroom =
      std::min<std::uint64_t>(4 << 20, segment_len() / 8);
  const std::uint64_t single_cap = chunk_cap - headroom;
  const std::uint32_t total = snapshot.length() > single_cap ? 2 : 1;
  const std::uint64_t first_len =
      std::min<std::uint64_t>(snapshot.length(), chunk_cap);
  const std::uint64_t spill_len = snapshot.length() - first_len;
  if (spill_len > single_cap) {
    return Status(Errc::no_space,
                  "KV checkpoint exceeds WAL region: snapshot " +
                      std::to_string(snapshot.length()) + " B > " +
                      std::to_string(chunk_cap + single_cap) +
                      " B chained capacity");
  }
  auto chunk_record = [&](std::uint32_t index, std::uint64_t off,
                          std::uint64_t len) {
    BufferList payload;
    doceph::encode(index, payload);
    doceph::encode(total, payload);
    payload.append(snapshot.substr(off, len));
    return make_record(kKindCheckpoint, generation, index, payload);
  };

  BufferList first = chunk_record(0, 0, first_len);
  int end_seg = segment;
  std::uint64_t end_off = segment_off(s, segment) + first.length();
  Status st = dev_.write(segment_off(s, segment), first);
  if (!st.ok()) return st;
  if (total == 2) {
    BufferList second = chunk_record(1, first_len, spill_len);
    end_seg = 1 - segment;
    end_off = segment_off(s, end_seg) + second.length();
    st = dev_.write(segment_off(s, end_seg), second);
    if (!st.ok()) return st;
  }
  s.active_segment = end_seg;
  s.generation = generation;
  s.append_off = end_off;
  s.next_seq = 1;
  return Status::OK();
}

Status KvStore::mount() {
  assert(!running_);
  for (auto& sp : shards_) {
    const Status st = replay(*sp);
    if (!st.ok()) return st;
  }
  for (auto& sp : shards_) {
    const dbg::LockGuard lk(sp->queue_mutex);
    sp->stopping = false;
  }
  running_ = true;
  for (auto& sp : shards_) {
    Shard& s = *sp;
    // Shard 0 keeps the exact legacy thread name: sim/stats classifies by
    // the "bstore_" prefix and the default single-shard store must stay
    // byte-identical.
    const std::string name =
        s.index == 0 ? "bstore_kv_sync"
                     : "bstore_kv_sync." + std::to_string(s.index);
    s.thread = sim::Thread(env_.keeper(), env_.stats(), name, domain_,
                           [this, &s] { sync_thread(s); }, /*daemon=*/true);
  }
  return Status::OK();
}

Status KvStore::replay(Shard& s) {
  // Helper to parse one record at an absolute offset within a segment.
  auto read_record = [&](std::uint64_t off, std::uint64_t seg_end)
      -> std::optional<ParsedRecord> {
    if (off + kRecHeader + kRecTrailer > seg_end) return std::nullopt;
    auto hdr = dev_.read(off, kRecHeader);
    if (!hdr.ok()) return std::nullopt;
    BufferList::Cursor cur(*hdr);
    std::uint32_t magic = 0;
    ParsedRecord rec;
    std::uint32_t payload_len = 0;
    if (!doceph::decode(magic, cur) || magic != kWalMagic ||
        !doceph::decode(rec.kind, cur) || !doceph::decode(rec.gen, cur) ||
        !doceph::decode(rec.seq, cur) || !doceph::decode(payload_len, cur))
      return std::nullopt;
    if (off + kRecHeader + payload_len + kRecTrailer > seg_end) return std::nullopt;
    auto rest = dev_.read(off + kRecHeader, payload_len + kRecTrailer);
    if (!rest.ok()) return std::nullopt;
    rec.payload = rest->substr(0, payload_len);
    const BufferList crc_bl = rest->substr(payload_len, kRecTrailer);
    BufferList::Cursor ccur(crc_bl);
    std::uint32_t stored_crc = 0;
    (void)doceph::decode(stored_crc, ccur);
    BufferList body = hdr->substr(4, kRecHeader - 4);
    body.append(rec.payload);
    if (body.crc32c() != stored_crc) return std::nullopt;
    rec.total_len = kRecHeader + payload_len + kRecTrailer;
    return rec;
  };

  // Reassemble one checkpoint chain starting at `seg`'s head: a chunk-0
  // record, plus (for a spanning checkpoint) the matching chunk-1 record at
  // the other segment's head. Incomplete chains (crash between the two
  // chunk writes) yield nullopt so discovery falls back to the other
  // generation.
  struct FoundChain {
    std::uint64_t gen = 0;
    BufferList snapshot;
    int end_seg = 0;
    std::uint64_t end_off = 0;
  };
  auto chunk_of = [](const ParsedRecord& rec)
      -> std::optional<std::pair<std::uint32_t, std::uint32_t>> {
    if (rec.kind != kKindCheckpoint || rec.payload.length() < kChunkHdr)
      return std::nullopt;
    BufferList::Cursor cur(rec.payload);
    std::uint32_t index = 0;
    std::uint32_t total = 0;
    if (!doceph::decode(index, cur) || !doceph::decode(total, cur))
      return std::nullopt;
    return std::make_pair(index, total);
  };
  auto read_chain = [&](int seg) -> std::optional<FoundChain> {
    auto head =
        read_record(segment_off(s, seg), segment_off(s, seg) + segment_len());
    if (!head) return std::nullopt;
    auto ct = chunk_of(*head);
    if (!ct || ct->first != 0 || ct->second < 1 || ct->second > 2)
      return std::nullopt;
    FoundChain chain;
    chain.gen = head->gen;
    chain.snapshot =
        head->payload.substr(kChunkHdr, head->payload.length() - kChunkHdr);
    chain.end_seg = seg;
    chain.end_off = segment_off(s, seg) + head->total_len;
    if (ct->second == 2) {
      const int other = 1 - seg;
      auto spill = read_record(segment_off(s, other),
                               segment_off(s, other) + segment_len());
      if (!spill || spill->gen != head->gen) return std::nullopt;
      auto sct = chunk_of(*spill);
      if (!sct || sct->first != 1 || sct->second != 2) return std::nullopt;
      chain.snapshot.append(
          spill->payload.substr(kChunkHdr, spill->payload.length() - kChunkHdr));
      chain.end_seg = other;
      chain.end_off = segment_off(s, other) + spill->total_len;
    }
    return chain;
  };

  // Find the newest complete checkpoint chain.
  std::optional<FoundChain> best;
  for (int seg = 0; seg < 2; ++seg) {
    auto chain = read_chain(seg);
    if (chain && (!best || chain->gen >= best->gen)) best = std::move(chain);
  }
  if (!best) return Status(Errc::corrupt, "no KV checkpoint found (mkfs?)");
  const std::uint64_t best_gen = best->gen;

  {
    const dbg::WriteLockGuard lk(s.map_mutex);
    s.map.clear();
    BufferList::Cursor cur(best->snapshot);
    if (!doceph::decode(s.map, cur))
      return Status(Errc::corrupt, "bad KV checkpoint payload");
    s.map_bytes = 0;
    for (const auto& [k, v] : s.map) s.map_bytes += k.size() + v.length();
  }

  // Replay txn records after the checkpoint. Valid records carry strictly
  // increasing seq under the checkpoint's generation; replay stops at the
  // first hole — a torn/corrupt record (bad CRC), a stale-generation
  // record, or a non-increasing seq. Gaps in seq are tolerated (historical
  // logs could skip numbers when a mid-roll write failed; since the chunked
  // sync_thread stamps seqs only on durable writes, new logs are gapless).
  const std::uint64_t seg_end = segment_off(s, best->end_seg) + segment_len();
  std::uint64_t off = best->end_off;
  std::uint64_t seq = 0;
  while (true) {
    auto rec = read_record(off, seg_end);
    if (!rec || rec->kind != kKindTxn || rec->gen != best_gen || rec->seq <= seq)
      break;
    KvTxn txn;
    BufferList::Cursor cur(rec->payload);
    if (!txn.decode(cur)) break;
    {
      const dbg::WriteLockGuard lk(s.map_mutex);
      apply_locked(s, txn);
    }
    seq = rec->seq;
    off += rec->total_len;
  }

  s.active_segment = best->end_seg;
  s.generation = best_gen;
  s.append_off = off;
  s.next_seq = seq + 1;
  return Status::OK();
}

Status KvStore::umount() {
  if (!running_) return Status::OK();
  for (auto& sp : shards_) {
    const dbg::LockGuard lk(sp->queue_mutex);
    sp->stopping = true;
    sp->queue_cv.notify_all();
  }
  for (auto& sp : shards_) sp->thread.join();
  running_ = false;
  return Status::OK();
}

void KvStore::crash() {
  std::deque<std::pair<KvTxn, OnCommit>> dropped;
  for (auto& sp : shards_) {
    const dbg::LockGuard lk(sp->queue_mutex);
    sp->stopping = true;
    // Power loss: queued txns never reach the WAL (collected in shard
    // order; callbacks fire after every thread has stopped).
    for (auto& item : sp->queue) dropped.push_back(std::move(item));
    sp->queue.clear();
    sp->queue_cv.notify_all();
  }
  for (auto& sp : shards_) sp->thread.join();
  running_ = false;
  for (auto& [txn, cb] : dropped) {
    if (cb) cb(Status(Errc::shutting_down, "kv store crashed"));
  }
}

void KvStore::enqueue_shard(Shard& s, KvTxn txn, OnCommit cb) {
  bool rejected = false;
  {
    const dbg::LockGuard lk(s.queue_mutex);
    // A chain link can land after crash()/umount() already stopped this
    // shard's thread (its predecessor committed on another shard first);
    // enqueuing would strand it, so fail it like a crash-dropped txn.
    if (s.stopping) {
      rejected = true;
    } else {
      s.queue.emplace_back(std::move(txn), std::move(cb));
      s.queue_cv.notify_one();
    }
  }
  if (rejected && cb) cb(Status(Errc::shutting_down, "kv store stopping"));
}

void KvStore::queue_chain_link(const std::shared_ptr<Chain>& chain,
                               std::size_t i) {
  auto& [shard_idx, part] = chain->links[i];
  enqueue_shard(*shards_[shard_idx], std::move(part),
                [this, chain, i](Status st) {
                  // Runs on the link's sync thread, outside any shard lock.
                  if (!st.ok()) {
                    // Later links are never queued: an error truncates the
                    // chain and the caller sees the failure. Links already
                    // durable stay durable (DESIGN.md §15: atomicity is
                    // all-links-durable-once-acked, not all-or-nothing).
                    if (chain->cb) chain->cb(st);
                    return;
                  }
                  if (i + 1 < chain->links.size()) {
                    queue_chain_link(chain, i + 1);
                    return;
                  }
                  cross_shard_commits_.fetch_add(1, std::memory_order_relaxed);
                  if (chain->cb) chain->cb(Status::OK());
                });
}

void KvStore::queue(KvTxn txn, OnCommit cb) {
  assert(running_);
  if (shards_.size() == 1) {
    enqueue_shard(*shards_[0], std::move(txn), std::move(cb));
    return;
  }

  // Partition by shard. The common case (every key of one txn in one shard
  // — BlueStore's collection-token routing guarantees it for single-object
  // txns) must not pay for the split.
  std::map<std::size_t, KvTxn> parts;
  for (auto& [k, v] : txn.sets) parts[shard_of(k)].sets[k] = std::move(v);
  for (auto& k : txn.rms) parts[shard_of(k)].rms.push_back(std::move(k));
  if (parts.empty()) {
    enqueue_shard(*shards_[0], {}, std::move(cb));  // empty txn: still acked
    return;
  }
  if (parts.size() == 1) {
    auto& [idx, part] = *parts.begin();
    enqueue_shard(*shards_[idx], std::move(part), std::move(cb));
    return;
  }

  // Cross-shard: ordered chained commit in ascending shard index. Each link
  // is queued only after the previous link's record is durable; the
  // caller's cb fires after the last link (see DESIGN.md §15).
  auto chain = std::make_shared<Chain>();
  chain->links.reserve(parts.size());
  for (auto& [idx, part] : parts) chain->links.emplace_back(idx, std::move(part));
  chain->cb = std::move(cb);
  queue_chain_link(chain, 0);
}

Status KvStore::submit(KvTxn txn) {
  return dbg::await<Status>(env_.keeper(), "bluestore.kv_submit", [&](OnCommit done) {
    queue(std::move(txn), std::move(done));
  });
}

void KvStore::sync_thread(Shard& s) {
  while (true) {
    std::deque<std::pair<KvTxn, OnCommit>> batch;
    {
      dbg::UniqueLock lk(s.queue_mutex);
      s.queue_cv.wait(lk, [&] {
        s.queue_mutex.assert_held();  // predicate runs as a separate function
        return s.stopping || !s.queue.empty();
      });
      if (s.queue.empty() && s.stopping) return;
      batch.swap(s.queue);
    }

    // Serialize every txn once; records are stamped per chunk below, so a
    // failed write never consumes sequence numbers (no replay-visible gaps).
    std::vector<BufferList> payloads;
    payloads.reserve(batch.size());
    std::uint64_t bytes = 0;
    for (const auto& [txn, cb] : batch) {
      BufferList payload;
      txn.encode(payload);
      bytes += payload.length() + kRecHeader + kRecTrailer;
      payloads.push_back(std::move(payload));
    }

    if (domain_ != nullptr) {
      domain_->charge(costs_.per_txn * static_cast<sim::Duration>(batch.size()) +
                      static_cast<sim::Duration>(costs_.per_byte_ns *
                                                 static_cast<double>(bytes)));
    }

    // Group commit in segment-sized chunks: pack consecutive records while
    // they fit the active segment, make the chunk durable, apply + ack it,
    // then roll to the other segment and continue with the remainder. Each
    // chunk is applied to the map BEFORE any roll so the roll's checkpoint
    // (a map snapshot) covers every record already acknowledged.
    std::size_t idx = 0;
    bool at_fresh_checkpoint = false;  // nothing appended since the last roll
    while (idx < batch.size()) {
      const std::uint64_t seg_end =
          segment_off(s, s.active_segment) + segment_len();
      BufferList wal_bl;
      std::size_t end = idx;
      while (end < batch.size()) {
        BufferList rec = make_record(kKindTxn, s.generation,
                                     s.next_seq + (end - idx), payloads[end]);
        if (s.append_off + wal_bl.length() + rec.length() > seg_end) break;
        wal_bl.claim_append(rec);
        ++end;
      }

      if (end == idx) {
        // The next record does not fit the active segment's tail.
        if (at_fresh_checkpoint) {
          // ... not even at the head of a freshly checkpointed segment: the
          // record can never be stored. Reject it; writing it anyway would
          // overflow into the other segment's checkpoint and the record
          // would silently vanish at the next replay.
          if (auto& cb = batch[idx].second)
            cb(Status(Errc::no_space, "KV txn record exceeds WAL segment"));
          ++idx;
          continue;
        }
        const Status st =
            write_checkpoint(s, 1 - s.active_segment, s.generation + 1);
        if (!st.ok()) {
          // The roll failed before anything was stamped under the new
          // generation: generation/next_seq are untouched, so no sequence
          // numbers leak. Fail the remainder of the batch — committing a
          // later chunk after dropping an earlier one would reorder writes.
          for (std::size_t i = idx; i < batch.size(); ++i)
            if (auto& cb = batch[i].second) cb(st);
          break;
        }
        at_fresh_checkpoint = true;
        continue;
      }

      const Status st = dev_.write(s.append_off, wal_bl);  // durable before apply
      if (!st.ok()) {
        // The media is untouched and this chunk's sequence numbers were
        // never consumed; fail the remainder (ordering, as above).
        for (std::size_t i = idx; i < batch.size(); ++i)
          if (auto& cb = batch[i].second) cb(st);
        break;
      }
      s.append_off += wal_bl.length();
      s.next_seq += end - idx;
      at_fresh_checkpoint = false;
      {
        const dbg::WriteLockGuard lk(s.map_mutex);
        for (std::size_t i = idx; i < end; ++i) apply_locked(s, batch[i].first);
      }
      committed_.fetch_add(end - idx, std::memory_order_relaxed);
      for (std::size_t i = idx; i < end; ++i)
        if (auto& cb = batch[i].second) cb(Status::OK());
      idx = end;
    }
  }
}

void KvStore::apply_locked(Shard& s, const KvTxn& txn) {
  for (const auto& [k, v] : txn.sets) {
    auto it = s.map.find(k);
    if (it != s.map.end())
      s.map_bytes -= k.size() + it->second.length();
    s.map_bytes += k.size() + v.length();
    s.map[k] = v;
  }
  for (const auto& k : txn.rms) {
    auto it = s.map.find(k);
    if (it != s.map.end()) {
      s.map_bytes -= k.size() + it->second.length();
      s.map.erase(it);
    }
  }
}

std::optional<BufferList> KvStore::get(const std::string& key) const {
  const Shard& s = *shards_[shard_of(key)];
  const dbg::ReadLockGuard lk(s.map_mutex);
  auto it = s.map.find(key);
  if (it == s.map.end()) return std::nullopt;
  return it->second;
}

bool KvStore::contains(const std::string& key) const {
  const Shard& s = *shards_[shard_of(key)];
  const dbg::ReadLockGuard lk(s.map_mutex);
  return s.map.contains(key);
}

void KvStore::for_each_prefix(
    const std::string& prefix,
    const std::function<void(const std::string&, const BufferList&)>& fn) const {
  if (shards_.size() == 1) {
    const Shard& s = *shards_[0];
    const dbg::ReadLockGuard lk(s.map_mutex);
    for (auto it = s.map.lower_bound(prefix);
         it != s.map.end() && it->first.starts_with(prefix); ++it) {
      fn(it->first, it->second);
    }
    return;
  }
  // Gather per shard (one lock at a time — shard map mutexes share a lock
  // class and must never nest), then merge so callers see globally sorted
  // key order exactly like the unsharded store.
  std::map<std::string, BufferList> merged;
  for (const auto& sp : shards_) {
    const dbg::ReadLockGuard lk(sp->map_mutex);
    for (auto it = sp->map.lower_bound(prefix);
         it != sp->map.end() && it->first.starts_with(prefix); ++it) {
      merged.emplace(it->first, it->second);
    }
  }
  for (const auto& [k, v] : merged) fn(k, v);
}

std::size_t KvStore::num_keys() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) {
    const dbg::ReadLockGuard lk(sp->map_mutex);
    n += sp->map.size();
  }
  return n;
}

std::uint64_t KvStore::map_bytes() const {
  std::uint64_t n = 0;
  for (const auto& sp : shards_) {
    const dbg::ReadLockGuard lk(sp->map_mutex);
    n += sp->map_bytes;
  }
  return n;
}

std::uint64_t KvStore::max_shard_bytes() const {
  std::uint64_t hw = 0;
  for (const auto& sp : shards_) {
    const dbg::ReadLockGuard lk(sp->map_mutex);
    hw = std::max(hw, sp->map_bytes);
  }
  return hw;
}

double KvStore::checkpoint_pressure() const {
  const double cap = static_cast<double>(shard_wal_len());
  return cap > 0 ? static_cast<double>(max_shard_bytes()) / cap : 0.0;
}

}  // namespace doceph::bluestore
