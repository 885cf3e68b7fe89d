#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "msgr/message.h"

/// Concrete message types. Complex payloads that belong to higher layers
/// (OSDMap, ObjectStore::Transaction) travel as opaque BufferLists so the
/// messenger stays independent of those modules — endpoints decode them.
namespace doceph::msgr {

/// Client object operations (the subset of librados this system exposes).
enum class OsdOpType : std::uint8_t {
  write_full = 1,  ///< replace object content with `data`
  write = 2,       ///< write `data` at offset
  read = 3,
  stat = 4,
  remove = 5,
};

[[nodiscard]] constexpr std::string_view osd_op_type_name(OsdOpType t) noexcept {
  switch (t) {
    case OsdOpType::write_full: return "write_full";
    case OsdOpType::write: return "write";
    case OsdOpType::read: return "read";
    case OsdOpType::stat: return "stat";
    case OsdOpType::remove: return "remove";
  }
  return "unknown";
}

/// Client -> primary OSD I/O request (Ceph's MOSDOp).
class MOSDOp final : public Message {
 public:
  OsdOpType op = OsdOpType::write_full;
  std::uint64_t client_id = 0;
  std::uint32_t pool = 0;
  std::string object;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;         ///< read length (writes use data.length())
  std::uint32_t map_epoch = 0;      ///< client's view, for primary validation

  [[nodiscard]] MsgType type() const noexcept override { return MsgType::osd_op; }
  void encode_payload(BufferList& out) const override {
    encode(op, out);
    encode(client_id, out);
    encode(pool, out);
    encode(object, out);
    encode(offset, out);
    encode(length, out);
    encode(map_epoch, out);
  }
  [[nodiscard]] bool decode_payload(BufferList::Cursor& cur) override {
    return decode(op, cur) && decode(client_id, cur) && decode(pool, cur) &&
           decode(object, cur) && decode(offset, cur) && decode(length, cur) &&
           decode(map_epoch, cur);
  }
};

/// Primary OSD -> client completion (Ceph's MOSDOpReply). Read results ride
/// in `data`.
class MOSDOpReply final : public Message {
 public:
  std::int32_t result = 0;         ///< 0 ok, else -(Errc)
  std::uint64_t object_version = 0;
  std::uint64_t object_size = 0;   ///< for stat
  std::uint32_t map_epoch = 0;     ///< primary's epoch (client refresh hint)
  std::uint64_t retry_after_ns = 0;  ///< throttled: server-suggested backoff

  [[nodiscard]] MsgType type() const noexcept override { return MsgType::osd_op_reply; }
  void encode_payload(BufferList& out) const override {
    encode(result, out);
    encode(object_version, out);
    encode(object_size, out);
    encode(map_epoch, out);
    encode(retry_after_ns, out);
  }
  [[nodiscard]] bool decode_payload(BufferList::Cursor& cur) override {
    return decode(result, cur) && decode(object_version, cur) &&
           decode(object_size, cur) && decode(map_epoch, cur) &&
           decode(retry_after_ns, cur);
  }
};

/// Primary -> replica replicated transaction (Ceph's MOSDRepOp). The
/// serialized ObjectStore::Transaction is opaque here; the bulk payload
/// rides inside `txn` (its write ops' data), sharing the client message's
/// slices, and `data` stays empty.
class MOSDRepOp final : public Message {
 public:
  std::uint32_t pool = 0;
  std::uint32_t pg_seed = 0;
  std::int32_t from_osd = -1;
  std::uint32_t map_epoch = 0;
  bool recovery_push = false;  ///< true for recovery pushes (idempotent)
  BufferList txn;  ///< encoded Transaction, payloads included

  [[nodiscard]] MsgType type() const noexcept override { return MsgType::osd_repop; }
  void encode_payload(BufferList& out) const override {
    encode(pool, out);
    encode(pg_seed, out);
    encode(from_osd, out);
    encode(map_epoch, out);
    encode(recovery_push, out);
    encode(txn, out);
  }
  [[nodiscard]] bool decode_payload(BufferList::Cursor& cur) override {
    return decode(pool, cur) && decode(pg_seed, cur) && decode(from_osd, cur) &&
           decode(map_epoch, cur) && decode(recovery_push, cur) && decode(txn, cur);
  }
};

/// Replica -> primary commit acknowledgment.
class MOSDRepOpReply final : public Message {
 public:
  std::int32_t result = 0;
  std::int32_t from_osd = -1;

  [[nodiscard]] MsgType type() const noexcept override {
    return MsgType::osd_repop_reply;
  }
  void encode_payload(BufferList& out) const override {
    encode(result, out);
    encode(from_osd, out);
  }
  [[nodiscard]] bool decode_payload(BufferList::Cursor& cur) override {
    return decode(result, cur) && decode(from_osd, cur);
  }
};

/// OSD <-> OSD heartbeat (Ceph's MOSDPing).
class MOSDPing final : public Message {
 public:
  enum class Op : std::uint8_t { ping = 1, reply = 2 };
  Op op = Op::ping;
  std::int32_t from_osd = -1;
  std::int64_t stamp_ns = 0;

  [[nodiscard]] MsgType type() const noexcept override { return MsgType::osd_ping; }
  void encode_payload(BufferList& out) const override {
    encode(op, out);
    encode(from_osd, out);
    encode(stamp_ns, out);
  }
  [[nodiscard]] bool decode_payload(BufferList::Cursor& cur) override {
    return decode(op, cur) && decode(from_osd, cur) && decode(stamp_ns, cur);
  }
};

/// MON -> everyone: full map publication (opaque encoded OSDMap).
class MOSDMap final : public Message {
 public:
  std::uint32_t epoch = 0;
  BufferList map_bl;

  [[nodiscard]] MsgType type() const noexcept override { return MsgType::osd_map; }
  void encode_payload(BufferList& out) const override {
    encode(epoch, out);
    encode(map_bl, out);
  }
  [[nodiscard]] bool decode_payload(BufferList::Cursor& cur) override {
    return decode(epoch, cur) && decode(map_bl, cur);
  }
};

/// * -> MON: fetch the current map.
class MMonGetMap final : public Message {
 public:
  [[nodiscard]] MsgType type() const noexcept override { return MsgType::mon_get_map; }
  void encode_payload(BufferList&) const override {}
  [[nodiscard]] bool decode_payload(BufferList::Cursor&) override { return true; }
};

/// * -> MON: subscribe to map updates from `start_epoch`.
class MMonSubscribe final : public Message {
 public:
  std::uint32_t start_epoch = 0;

  [[nodiscard]] MsgType type() const noexcept override { return MsgType::mon_subscribe; }
  void encode_payload(BufferList& out) const override { encode(start_epoch, out); }
  [[nodiscard]] bool decode_payload(BufferList::Cursor& cur) override {
    return decode(start_epoch, cur);
  }
};

/// OSD -> MON: boot announcement with the OSD's public address.
class MOSDBoot final : public Message {
 public:
  std::int32_t osd_id = -1;
  net::Address addr;

  [[nodiscard]] MsgType type() const noexcept override { return MsgType::osd_boot; }
  void encode_payload(BufferList& out) const override {
    encode(osd_id, out);
    encode(addr, out);
  }
  [[nodiscard]] bool decode_payload(BufferList::Cursor& cur) override {
    return decode(osd_id, cur) && decode(addr, cur);
  }
};

/// OSD -> MON: report a peer that stopped answering heartbeats.
class MOSDFailure final : public Message {
 public:
  std::int32_t failed_osd = -1;
  std::int32_t reporter = -1;

  [[nodiscard]] MsgType type() const noexcept override { return MsgType::osd_failure; }
  void encode_payload(BufferList& out) const override {
    encode(failed_osd, out);
    encode(reporter, out);
  }
  [[nodiscard]] bool decode_payload(BufferList::Cursor& cur) override {
    return decode(failed_osd, cur) && decode(reporter, cur);
  }
};

/// Administrative command (pool creation etc.); free-form strings.
class MMonCommand final : public Message {
 public:
  std::vector<std::string> args;

  [[nodiscard]] MsgType type() const noexcept override { return MsgType::mon_command; }
  void encode_payload(BufferList& out) const override { encode(args, out); }
  [[nodiscard]] bool decode_payload(BufferList::Cursor& cur) override {
    return decode(args, cur);
  }
};

/// Primary -> replica: request the replica's inventory of one PG, used by
/// recovery to compute the push set.
class MPGScan final : public Message {
 public:
  std::uint32_t pool = 0;
  std::uint32_t pg_seed = 0;

  [[nodiscard]] MsgType type() const noexcept override { return MsgType::pg_scan; }
  void encode_payload(BufferList& out) const override {
    encode(pool, out);
    encode(pg_seed, out);
  }
  [[nodiscard]] bool decode_payload(BufferList::Cursor& cur) override {
    return decode(pool, cur) && decode(pg_seed, cur);
  }
};

/// One object's identity in a PG inventory: name + size + content crc32c.
struct ObjectSummary {
  std::string name;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;

  friend bool operator==(const ObjectSummary&, const ObjectSummary&) = default;

  void encode(BufferList& bl) const {
    doceph::encode(name, bl);
    doceph::encode(size, bl);
    doceph::encode(crc, bl);
  }
  bool decode(BufferList::Cursor& cur) {
    return doceph::decode(name, cur) && doceph::decode(size, cur) &&
           doceph::decode(crc, cur);
  }
};

class MPGScanReply final : public Message {
 public:
  std::uint32_t pool = 0;
  std::uint32_t pg_seed = 0;
  std::vector<ObjectSummary> objects;

  [[nodiscard]] MsgType type() const noexcept override {
    return MsgType::pg_scan_reply;
  }
  void encode_payload(BufferList& out) const override {
    encode(pool, out);
    encode(pg_seed, out);
    encode(objects, out);
  }
  [[nodiscard]] bool decode_payload(BufferList::Cursor& cur) override {
    return decode(pool, cur) && decode(pg_seed, cur) && decode(objects, cur);
  }
};

class MMonCommandReply final : public Message {
 public:
  std::int32_t result = 0;
  std::string output;

  [[nodiscard]] MsgType type() const noexcept override {
    return MsgType::mon_command_reply;
  }
  void encode_payload(BufferList& out) const override {
    encode(result, out);
    encode(output, out);
  }
  [[nodiscard]] bool decode_payload(BufferList::Cursor& cur) override {
    return decode(result, cur) && decode(output, cur);
  }
};

}  // namespace doceph::msgr
