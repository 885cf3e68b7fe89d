#include "bluestore/kv.h"

#include <algorithm>
#include <array>
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
constexpr std::size_t kMapHdr = 4;        // entry count of a chunk's key range
/// Device bytes a checkpoint chunk record adds on top of its entries.
constexpr std::uint64_t kChunkOverhead = kRecHeader + kChunkHdr + kMapHdr + kRecTrailer;
/// Smallest paced chunk worth a record of its own.
constexpr std::uint64_t kMinChunk = 4 << 10;

using Map = std::map<std::string, BufferList>;

/// Encoded size of one map entry inside a chunk (length-prefixed key + value).
std::uint64_t entry_bytes(const Map::value_type& e) {
  return 4 + e.first.size() + 4 + e.second.length();
}

std::uint64_t range_bytes(Map::const_iterator first, Map::const_iterator last) {
  std::uint64_t n = 0;
  for (; first != last; ++first) n += entry_bytes(*first);
  return n;
}

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

/// One checkpoint chunk record: (chunk_index, total_chunks) ahead of the
/// key range [first, last) encoded as a map (the seq field doubles as the
/// chunk index). total_chunks is 0 on a paced chunk that is not the last.
BufferList chunk_record(std::uint64_t gen, std::uint32_t index, std::uint32_t total,
                        Map::const_iterator first, Map::const_iterator last) {
  BufferList entries;
  std::uint32_t count = 0;
  for (; first != last; ++first, ++count) {
    doceph::encode(first->first, entries);
    doceph::encode(first->second, entries);
  }
  BufferList payload;
  doceph::encode(index, payload);
  doceph::encode(total, payload);
  doceph::encode(count, payload);
  payload.claim_append(entries);
  return make_record(kKindCheckpoint, gen, index, payload);
}

struct ParsedRecord {
  std::uint8_t kind = 0;
  std::uint64_t gen = 0;
  std::uint64_t seq = 0;
  BufferList payload;
  std::uint64_t total_len = 0;
};

/// Parse one record at an absolute offset; nullopt past `seg_end`, on a read
/// error, a bad magic or a bad CRC.
std::optional<ParsedRecord> read_record(BlockDevice& dev, std::uint64_t off,
                                        std::uint64_t seg_end) {
  if (off + kRecHeader + kRecTrailer > seg_end) return std::nullopt;
  auto hdr = dev.read(off, kRecHeader);
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
  auto rest = dev.read(off + kRecHeader, payload_len + kRecTrailer);
  if (!rest.ok()) return std::nullopt;
  rec.payload = rest->substr(0, payload_len);
  const BufferList crc_bl = rest->substr(payload_len, kRecTrailer);
  BufferList::Cursor ccur(crc_bl);
  std::uint32_t stored_crc = 0;
  (void)doceph::decode(stored_crc, ccur);
  BufferList body = hdr->substr(4, kRecHeader - 4);
  body.append(rec.payload);
  if (body.crc32c_verify() != stored_crc) return std::nullopt;
  rec.total_len = kRecHeader + payload_len + kRecTrailer;
  return rec;
}

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
    const Status st = write_checkpoint(s, 0, 1, Map{});
    if (!st.ok()) return st;
  }
  return Status::OK();
}

namespace {

/// Entry bytes one chunk holds when it fills a segment alone.
std::uint64_t chunk_cap(std::uint64_t segment_len) {
  return segment_len - kChunkOverhead;
}

/// Entry bytes a checkpoint may hold in one segment while leaving the
/// journal headroom for the appends that follow it. A snapshot that would
/// leave less spills into the other segment instead, or the store wedges —
/// every roll would rewrite the same snapshot and still reject the record
/// that forced it.
std::uint64_t single_cap(std::uint64_t segment_len) {
  const std::uint64_t headroom = std::min<std::uint64_t>(4 << 20, segment_len / 8);
  return chunk_cap(segment_len) - headroom;
}

}  // namespace

Status KvStore::write_checkpoint(Shard& s, int segment, std::uint64_t generation,
                                 const Map& snapshot) {
  // Synchronous checkpoint: one chunk at the head of `segment`, or — for a
  // snapshot past single_cap — a chain whose remainder spills once into the
  // head of the other segment. Write order — target segment first, spill
  // second — keeps the previous generation's checkpoint recoverable until
  // the chain is complete (the spill write is what overwrites it).
  const std::uint64_t bytes = range_bytes(snapshot.begin(), snapshot.end());
  auto split = snapshot.end();
  std::uint32_t total = 1;
  if (bytes > single_cap(segment_len())) {
    total = 2;
    split = snapshot.begin();
    std::uint64_t first = 0;
    while (split != snapshot.end() &&
           first + entry_bytes(*split) <= chunk_cap(segment_len())) {
      first += entry_bytes(*split);
      ++split;
    }
    if (bytes - first > single_cap(segment_len())) {
      return Status(Errc::no_space,
                    "KV checkpoint exceeds WAL region: snapshot " +
                        std::to_string(bytes) + " B > " +
                        std::to_string(chunk_cap(segment_len()) +
                                       single_cap(segment_len())) +
                        " B chained capacity");
    }
  }

  const BufferList head = chunk_record(generation, 0, total, snapshot.begin(), split);
  int end_seg = segment;
  std::uint64_t end_off = segment_off(s, segment) + head.length();
  Status st = dev_.write(segment_off(s, segment), head);
  if (!st.ok()) return st;
  count_chunk(head.length());
  if (total == 2) {
    const BufferList spill = chunk_record(generation, 1, 2, split, snapshot.end());
    end_seg = 1 - segment;
    end_off = segment_off(s, end_seg) + spill.length();
    st = dev_.write(segment_off(s, end_seg), spill);
    if (!st.ok()) return st;
    count_chunk(spill.length());
  }
  s.active_segment = end_seg;
  s.generation = generation;
  s.append_off = end_off;
  s.next_seq = 1;
  s.ckpt.reset();
  s.ckpt_spans = total == 2;
  return Status::OK();
}

Status KvStore::finish_checkpoint(Shard& s) {
  // The remainder as one chunk at the active segment's tail: txn records
  // only fit while the segment keeps room for it, so it always fits here.
  PendingCheckpoint& ck = *s.ckpt;
  const BufferList rec = chunk_record(s.generation, ck.next_index, ck.next_index + 1,
                                      ck.rest.cbegin(), ck.rest.cend());
  assert(s.append_off + rec.length() <=
         segment_off(s, s.active_segment) + segment_len());
  const Status st = dev_.write(s.append_off, rec);
  if (!st.ok()) return st;
  s.append_off += rec.length();
  count_chunk(rec.length());
  s.ckpt.reset();
  return Status::OK();
}

Status KvStore::roll(Shard& s) {
  // The previous segment's checkpoint and txns stand in for an incomplete
  // checkpoint of the segment about to open, so the active segment's own
  // checkpoint must be complete before the roll.
  if (s.ckpt) {
    const Status st = finish_checkpoint(s);
    if (!st.ok()) return st;
  }
  Map snapshot;
  {
    const dbg::ReadLockGuard lk(s.map_mutex);
    snapshot = s.map;  // shares the values' bytes
  }
  const int target = 1 - s.active_segment;
  const std::uint64_t bytes = range_bytes(snapshot.begin(), snapshot.end());
  // A spanning checkpoint's head chunk sits at `target`: the next checkpoint
  // overwrites it, so it must land in one write. An oversized snapshot
  // spans itself. Both keep the synchronous chain.
  if (s.ckpt_spans || bytes > single_cap(segment_len()))
    return write_checkpoint(s, target, s.generation + 1, snapshot);
  auto ck = std::make_unique<PendingCheckpoint>();
  ck->rest = std::move(snapshot);
  ck->bytes_left = bytes;
  s.active_segment = target;
  s.generation += 1;
  s.append_off = segment_off(s, target);
  s.next_seq = 1;
  s.ckpt = std::move(ck);
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

/// One segment's record stream under one generation, as replay found it.
struct KvStore::Stream {
  std::uint64_t gen = 0;
  Map ckpt;                  ///< checkpoint entries of the chunks seen
  std::uint32_t chunks = 0;  ///< chunks seen, contiguous from index 0
  std::uint32_t total = 0;   ///< chain length once known (0: paced, open)
  std::vector<KvTxn> txns;   ///< in stream order
  int seg = 0;               ///< segment the stream ends in
  std::uint64_t end_off = 0;
  std::uint64_t seq = 0;     ///< last txn seq

  [[nodiscard]] bool complete() const noexcept { return total != 0 && chunks == total; }
};

bool KvStore::scan_stream(const Shard& s, int seg, std::uint64_t off, Stream& st) {
  // Valid records carry the head chunk's generation; checkpoint chunks come
  // in index order, and txn records carry strictly increasing seq. The
  // first hole — a torn/corrupt record (bad CRC), a stale-generation record,
  // a non-increasing seq — ends the stream. Gaps in seq are tolerated
  // (historical logs could skip numbers when a mid-roll write failed; since
  // the chunked sync_thread stamps seqs only on durable writes, new logs are
  // gapless).
  const std::uint64_t seg_end = segment_off(s, seg) + segment_len();
  while (auto rec = read_record(dev_, off, seg_end)) {
    if (st.chunks == 0) st.gen = rec->gen;
    if (rec->gen != st.gen) break;
    BufferList::Cursor cur(rec->payload);
    if (rec->kind == kKindCheckpoint) {
      std::uint32_t index = 0;
      std::uint32_t total = 0;
      Map part;
      if (!doceph::decode(index, cur) || !doceph::decode(total, cur) ||
          index != st.chunks || (st.total != 0 && total != st.total) ||
          (total != 0 && total <= index) || !doceph::decode(part, cur))
        break;
      st.ckpt.merge(part);  // chunks hold disjoint key ranges
      ++st.chunks;
      st.total = total;
    } else if (rec->kind == kKindTxn && st.chunks > 0 && rec->seq > st.seq) {
      KvTxn txn;
      if (!txn.decode(cur)) break;
      st.txns.push_back(std::move(txn));
      st.seq = rec->seq;
    } else {
      break;
    }
    off += rec->total_len;
  }
  st.seg = seg;
  st.end_off = off;
  return st.chunks > 0;
}

Status KvStore::replay(Shard& s) {
  // Each segment head opens one generation's stream. A spanning chain's
  // spill chunk heads the other segment, and its stream continues there.
  std::array<Stream, 2> st;
  std::array<bool, 2> found{};
  for (int seg = 0; seg < 2; ++seg) {
    found[seg] = scan_stream(s, seg, segment_off(s, seg), st[seg]);
    if (found[seg] && st[seg].total == 2 && st[seg].chunks == 1)
      (void)scan_stream(s, 1 - seg, segment_off(s, 1 - seg), st[seg]);
  }
  int newest = -1;
  for (int seg = 0; seg < 2; ++seg) {
    if (found[seg] && (newest < 0 || st[seg].gen > st[newest].gen)) newest = seg;
  }
  if (newest < 0) return Status(Errc::corrupt, "no KV checkpoint found (mkfs?)");

  // The newest checkpoint complete: its chunks plus its generation's txns.
  // Incomplete (a crash mid-pacing, or between a spanning chain's writes):
  // the previous generation's checkpoint and txns, which the roll left
  // intact, then the newest stream's txns on top.
  Stream* base = &st[newest];
  Stream* open = nullptr;
  if (!base->complete()) {
    Stream& prev = st[1 - newest];
    if (!found[1 - newest] || !prev.complete() || prev.gen + 1 != base->gen)
      return Status(Errc::corrupt, "no complete KV checkpoint found");
    if (base->total == 0) open = base;
    base = &prev;
  }

  std::unique_ptr<PendingCheckpoint> ck;
  {
    const dbg::WriteLockGuard lk(s.map_mutex);
    s.map = std::move(base->ckpt);
    s.map_bytes = 0;
    for (const auto& [k, v] : s.map) s.map_bytes += k.size() + v.length();
    for (const auto& txn : base->txns) apply_locked(s, txn);
    if (open != nullptr) {
      // The open checkpoint's snapshot is the map as of its roll: resume
      // pacing after the last key its durable chunks cover.
      ck = std::make_unique<PendingCheckpoint>();
      ck->rest = s.map;
      if (!open->ckpt.empty()) {
        ck->rest.erase(ck->rest.begin(),
                       ck->rest.upper_bound(open->ckpt.rbegin()->first));
      }
      ck->next_index = open->chunks;
      ck->bytes_left = range_bytes(ck->rest.cbegin(), ck->rest.cend());
      for (const auto& txn : open->txns) apply_locked(s, txn);
    }
  }

  const Stream& tail = open != nullptr ? *open : *base;
  s.active_segment = tail.seg;
  s.generation = tail.gen;
  s.append_off = tail.end_off;
  s.next_seq = tail.seq + 1;
  s.ckpt = std::move(ck);
  s.ckpt_spans = base->total == 2 && open == nullptr;
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
      // While a checkpoint is open, txn records leave room for one paced
      // chunk plus the remainder as one chunk (what a roll would write).
      const std::uint64_t reserve =
          s.ckpt ? s.ckpt->bytes_left + 2 * kChunkOverhead : 0;
      BufferList wal_bl;
      std::size_t end = idx;
      while (end < batch.size()) {
        BufferList rec = make_record(kKindTxn, s.generation,
                                     s.next_seq + (end - idx), payloads[end]);
        if (s.append_off + wal_bl.length() + rec.length() + reserve > seg_end) break;
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
        const Status st = roll(s);
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

      // An open checkpoint rides ahead of the txn records: its chunk spreads
      // the snapshot bytes left over the txn space left, so it completes
      // before the segment fills (the reserve above guarantees the fit).
      BufferList out;
      std::uint64_t ckpt_taken = 0;
      auto ckpt_last = Map::const_iterator{};
      if (s.ckpt) {
        const PendingCheckpoint& ck = *s.ckpt;
        const std::uint64_t txn_space = seg_end - s.append_off - reserve;
        const std::uint64_t budget = std::max<std::uint64_t>(
            kMinChunk, static_cast<std::uint64_t>(
                           static_cast<double>(wal_bl.length()) *
                           static_cast<double>(ck.bytes_left) /
                           static_cast<double>(txn_space)));
        ckpt_last = ck.rest.cbegin();
        while (ckpt_last != ck.rest.cend() && ckpt_taken < budget)
          ckpt_taken += entry_bytes(*ckpt_last++);
        const bool last = ckpt_last == ck.rest.cend();
        out = chunk_record(s.generation, ck.next_index, last ? ck.next_index + 1 : 0,
                           ck.rest.cbegin(), ckpt_last);
      }
      const std::uint64_t ckpt_len = out.length();
      out.claim_append(wal_bl);
      const Status st = dev_.write(s.append_off, out);  // durable before apply
      if (!st.ok()) {
        // The media is untouched and this chunk's sequence numbers were
        // never consumed; fail the remainder (ordering, as above).
        for (std::size_t i = idx; i < batch.size(); ++i)
          if (auto& cb = batch[i].second) cb(st);
        break;
      }
      s.append_off += out.length();
      if (s.ckpt) {
        count_chunk(ckpt_len);
        if (ckpt_last == s.ckpt->rest.cend()) {
          s.ckpt.reset();
        } else {
          s.ckpt->rest.erase(s.ckpt->rest.cbegin(), ckpt_last);
          s.ckpt->bytes_left -= ckpt_taken;
          ++s.ckpt->next_index;
        }
      }
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
