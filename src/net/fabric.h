#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "dbg/mutex.h"
#include "common/result.h"
#include "event/event_center.h"
#include "net/address.h"
#include "net/stack_model.h"
#include "sim/env.h"
#include "sim/resource.h"

namespace doceph::net {

class Fabric;
class Socket;
using SocketRef = std::shared_ptr<Socket>;

/// NIC characteristics of a node: full-duplex bandwidth and one-way wire
/// latency to any peer (the fabric models a non-blocking switch).
struct NicProfile {
  double bw_bytes_per_sec = 100e9 / 8;  ///< 100 Gbps default
  sim::Duration latency = 5000;         ///< 5 us one-way
};

/// One endpoint on the fabric (a host, or a DPU's own network identity).
class NetNode {
 public:
  using AcceptFn = std::function<void(SocketRef)>;

  [[nodiscard]] std::int32_t id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const NicProfile& nic() const noexcept { return nic_; }
  [[nodiscard]] const StackModel& stack() const noexcept { return stack_; }

  /// Accept connections on `port`; `on_accept` is dispatched to `center`
  /// with the server-side socket. Fails with `exists` if the port is taken.
  Status listen(std::uint16_t port, event::EventCenter& center, AcceptFn on_accept);
  void unlisten(std::uint16_t port);

 private:
  friend class Fabric;
  friend class Socket;
  NetNode(Fabric& fabric, std::int32_t id, std::string name, NicProfile nic,
          StackModel stack)
      : fabric_(fabric), id_(id), name_(std::move(name)), nic_(nic), stack_(stack) {}

  struct ListenerEntry {
    event::EventCenter::Handle center;
    AcceptFn on_accept;
  };

  Fabric& fabric_;
  std::int32_t id_;
  std::string name_;
  NicProfile nic_;
  StackModel stack_;

  dbg::Mutex mutex_{"net.node"};
  std::map<std::uint16_t, ListenerEntry> listeners_ DOCEPH_GUARDED_BY(mutex_);
  std::uint16_t next_ephemeral_ DOCEPH_GUARDED_BY(mutex_) = 50000;

  // Full-duplex NIC occupancy.
  sim::SerialResource tx_;
  sim::SerialResource rx_;
};

/// The simulated network: a set of nodes joined by a non-blocking switch.
/// Streams between nodes are rate-limited by both endpoints' NICs and
/// delayed by wire latency; the kernel-stack cost model charges the CPUs.
class Fabric {
 public:
  explicit Fabric(sim::Env& env) : env_(env) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Create a node. Returned reference is stable for the Fabric's lifetime.
  NetNode& add_node(std::string name, NicProfile nic = {}, StackModel stack = {});

  [[nodiscard]] NetNode* node(std::int32_t id);

  /// Open a stream from `from` to `to`. The caller's side is returned
  /// immediately; the acceptor side is delivered to the listener's center
  /// after one wire latency. Read/write handlers are registered on the
  /// returned socket by its owner.
  Result<SocketRef> connect(NetNode& from, Address to);

  [[nodiscard]] sim::Env& env() noexcept { return env_; }

 private:
  friend class Socket;
  sim::Env& env_;
  dbg::Mutex mutex_{"net.fabric"};
  std::vector<std::unique_ptr<NetNode>> nodes_ DOCEPH_GUARDED_BY(mutex_);
};

/// A full-duplex stream socket (the sim analogue of a connected TCP socket).
///
/// Threading contract: the owner registers an EventCenter and handlers;
/// send/recv are called from that owner thread (handlers run there). The
/// fabric delivers data and readiness notifications internally.
///
/// Backpressure: each direction has a window (socket buffer). send() accepts
/// at most the free window and returns the byte count; 0 means would-block —
/// wait for the write handler. recv() opens the window, waking the writer.
class Socket {
 public:
  /// Try to send the contents of `bl`; accepted bytes are *consumed from the
  /// front of bl*. Returns bytes accepted (0 = would-block), or
  /// Errc::not_connected after either side closed.
  Result<std::size_t> send(BufferList& bl);

  /// Drain up to `max` readable bytes (may return empty = would-block).
  BufferList recv(std::size_t max);

  /// Bytes currently readable.
  [[nodiscard]] std::size_t readable() const;

  /// True when the peer closed and all data has been drained.
  [[nodiscard]] bool eof() const;

  /// Close both directions; the peer observes EOF after draining.
  void close();
  [[nodiscard]] bool closed() const;

  /// Readable notification: dispatched to `center` when data (or EOF)
  /// becomes available and the socket was previously drained. The handler
  /// must drain (loop recv until empty) — notifications are edge-style.
  void set_read_handler(event::EventCenter& center, std::function<void()> h);

  /// Writable notification: dispatched after a would-block send once window
  /// space frees up.
  void set_write_handler(event::EventCenter& center, std::function<void()> h);

  /// Detach this side's handlers. In-flight deliveries that already fired
  /// may still invoke the old handler once; deliveries after the owning
  /// EventCenter dies are dropped (handlers are registered via
  /// EventCenter::Handle).
  void clear_handlers();

  [[nodiscard]] Address local_addr() const;
  [[nodiscard]] Address remote_addr() const;

 private:
  friend class Fabric;
  struct Core;
  Socket(std::shared_ptr<Core> core, int side) : core_(std::move(core)), side_(side) {}

  std::shared_ptr<Core> core_;
  int side_;  // 0 = connecting side, 1 = accepting side
};

}  // namespace doceph::net
