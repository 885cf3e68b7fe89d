#pragma once

#include <cstdint>
#include <vector>

#include "common/encoding.h"
#include "os/transaction.h"

namespace doceph::proxy {

/// Operations of the Proxy Interface between the DPU-resident
/// ProxyObjectStore and the host-resident backend (paper §3.2). The binary
/// classification the paper describes: submit_txn/read_obj are data-plane
/// (payload moves through the shared DMA region when possible), the rest are
/// control-plane RPCs over the CommChannel.
enum class ProxyOp : std::uint8_t {
  ping = 1,
  submit_txn = 2,
  read_obj = 3,
  stage_segment = 11,  ///< one DMA'd segment is ready in the write region
  // 12 is retired: the host answers it not_supported, so do not reuse it.
  stat = 4,
  exists = 5,
  omap_get = 6,
  list_objects = 7,
  list_collections = 8,
  coll_exists = 9,
  abort_txn = 13,      ///< oneway: drop staged segments of an aborted token
};

/// Payloads up to this many bytes ride the control channel inline: a write
/// this small skips the DMA path, and so does a read reply.
inline constexpr std::uint64_t kInlineMax = 4096;

/// Where one chunk of an op's bulk payload lives. `staged`: it was DMA'd
/// into the shared region and already copied by the host into that
/// request's write buffer (stage_segment), indexed by a per-request sequence
/// number — Fig. 4's staging-buffer -> write-buffer handoff, which lets the
/// scarce region bytes recycle immediately. `inline` data rides in the RPC
/// itself (control fallback after a DMA error, or tiny payloads). Read
/// replies alone point into the exported host region directly (`region`,
/// an extent of the read landing), since the DPU drains them; the host
/// rejects a write that carries one.
struct DataRef {
  enum class Kind : std::uint8_t { inline_ = 0, staged = 1, region = 2 };
  Kind kind = Kind::inline_;
  /// staged: per-request segment seq; region: byte offset into the region.
  std::uint32_t index = 0;
  std::uint32_t len = 0;
  BufferList data;          ///< used when kind == inline_

  [[nodiscard]] bool inline_data() const noexcept { return kind == Kind::inline_; }

  void encode(BufferList& bl) const {
    doceph::encode(kind, bl);
    doceph::encode(index, bl);
    doceph::encode(len, bl);
    if (kind == Kind::inline_) doceph::encode(data, bl);
  }
  bool decode(BufferList::Cursor& cur) {
    if (!doceph::decode(kind, cur) || !doceph::decode(index, cur) ||
        !doceph::decode(len, cur))
      return false;
    return kind != Kind::inline_ || doceph::decode(data, cur);
  }
};

/// stage_segment request: segment `seg_index` of request `token` has landed
/// at byte offset `off` of the write region; the host copies it out so the
/// bytes can recycle.
struct StageSegment {
  std::uint64_t token = 0;
  std::uint32_t seg_index = 0;
  std::uint32_t off = 0;
  std::uint32_t len = 0;

  void encode(BufferList& bl) const {
    doceph::encode(token, bl);
    doceph::encode(seg_index, bl);
    doceph::encode(off, bl);
    doceph::encode(len, bl);
  }
  bool decode(BufferList::Cursor& cur) {
    return doceph::decode(token, cur) && doceph::decode(seg_index, cur) &&
           doceph::decode(off, cur) && doceph::decode(len, cur);
  }
};

/// A transaction with its bulk payload externalized: `meta` carries the ops
/// with empty data; `parts[i]` lists where op i's payload chunks live.
/// `token` keys the host-side staged segments of this request.
struct WireTxn {
  std::uint64_t token = 0;
  os::Transaction meta;
  std::vector<std::vector<DataRef>> parts;

  void encode(BufferList& bl) const {
    doceph::encode(token, bl);
    meta.encode(bl);
    doceph::encode(parts, bl);
  }
  bool decode(BufferList::Cursor& cur) {
    return doceph::decode(token, cur) && meta.decode(cur) &&
           doceph::decode(parts, cur);
  }
};

/// Response to submit_txn, with the host-side commit time (paper Table 3's
/// "Host write" row comes from here). `fullness_permille` piggybacks the
/// host store's fullness() (x1000) so the DPU-side OSD can run nearfull
/// admission checks without an extra control RPC.
struct TxnReply {
  std::int32_t result = 0;
  std::int64_t host_write_ns = 0;
  std::uint32_t fullness_permille = 0;

  void encode(BufferList& bl) const {
    doceph::encode(result, bl);
    doceph::encode(host_write_ns, bl);
    doceph::encode(fullness_permille, bl);
  }
  bool decode(BufferList::Cursor& cur) {
    return doceph::decode(result, cur) && doceph::decode(host_write_ns, cur) &&
           doceph::decode(fullness_permille, cur);
  }
};

/// read_obj request: the DPU offers the read-landing extent [buf_off,
/// buf_off+buf_len) of the exported host region it has reserved (buf_len 0:
/// none); the host fills it (or replies inline when the result is tiny).
struct ReadRequest {
  os::coll_t cid;
  os::ghobject_t oid;
  std::uint64_t off = 0;
  std::uint64_t len = 0;
  std::uint64_t inline_max = kInlineMax;
  std::uint32_t buf_off = 0;
  std::uint32_t buf_len = 0;

  void encode(BufferList& bl) const {
    cid.encode(bl);
    oid.encode(bl);
    doceph::encode(off, bl);
    doceph::encode(len, bl);
    doceph::encode(inline_max, bl);
    doceph::encode(buf_off, bl);
    doceph::encode(buf_len, bl);
  }
  bool decode(BufferList::Cursor& cur) {
    return cid.decode(cur) && oid.decode(cur) && doceph::decode(off, cur) &&
           doceph::decode(len, cur) && doceph::decode(inline_max, cur) &&
           doceph::decode(buf_off, cur) && doceph::decode(buf_len, cur);
  }
};

/// read_obj response: either inline data, or the filled landing layout the
/// DPU should DMA out (host->DPU).
struct ReadReply {
  std::int32_t result = 0;
  bool inline_data = false;
  BufferList data;                       ///< when inline
  std::vector<DataRef> refs;             ///< region refs when not inline
  std::uint64_t total_len = 0;

  void encode(BufferList& bl) const {
    doceph::encode(result, bl);
    doceph::encode(inline_data, bl);
    doceph::encode(total_len, bl);
    if (inline_data) doceph::encode(data, bl);
    doceph::encode(refs, bl);
  }
  bool decode(BufferList::Cursor& cur) {
    if (!doceph::decode(result, cur) || !doceph::decode(inline_data, cur) ||
        !doceph::decode(total_len, cur))
      return false;
    if (inline_data && !doceph::decode(data, cur)) return false;
    return doceph::decode(refs, cur);
  }
};

}  // namespace doceph::proxy
