#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/perf_counters.h"
#include "common/status.h"
#include "dbg/mutex.h"
#include "event/event_center.h"
#include "msgr/message.h"
#include "net/fabric.h"
#include "sim/cpu_model.h"
#include "sim/env.h"
#include "sim/thread.h"

namespace doceph::msgr {

class Messenger;

/// Receives inbound messages. ms_dispatch runs on a messenger worker thread;
/// implementations must be quick (hand off to a work queue) or accept that
/// they serialize that worker, exactly like Ceph fast dispatch.
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;
  virtual void ms_dispatch(const MessageRef& m) = 0;
  /// The connection dropped; queued/unacked messages are gone.
  virtual void ms_handle_reset(const ConnectionRef& con) { (void)con; }
};

/// Metric indices of the per-messenger "msgr" PerfCounters block.
enum {
  l_msgr_first = 90000,
  l_msgr_msg_recv,    ///< messages fully decoded and dispatched
  l_msgr_msg_send,    ///< messages encoded for transmission
  l_msgr_bytes_recv,  ///< payload bytes (front + data) received
  l_msgr_bytes_send,  ///< payload bytes (front + data) sent
  l_msgr_crc_bytes,   ///< payload bytes crc32c'd: all received, sent less cached
  l_msgr_crc_cached_bytes,  ///< sent payload bytes whose slices' crc was cached
  l_msgr_last,
};

/// CPU cost model of messenger work itself (serialization and checksums),
/// charged on worker threads — together with the socket stack model this is
/// what makes "msgr-worker-*" dominate Ceph CPU usage (paper Fig. 5).
struct MsgrCostModel {
  sim::Duration per_msg_encode = 2500;  ///< ns per message encode + dispatch
  sim::Duration per_msg_decode = 3500;  ///< ns per message decode + deliver
  double crc_per_byte_ns = 0.3;         ///< crc32c per byte hashed (see encode_message)
};

struct MessengerConfig {
  int num_workers = 3;  ///< Ceph default: 3 async msgr workers
  MsgrCostModel costs;
};

/// One wire connection. All state is owned by a single worker's event loop;
/// send_message may be called from any thread.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// Queue `m` for transmission (thread-safe, async). Messages to the same
  /// connection are delivered in send order. `on_sent`, if set, runs once on
  /// the connection's worker: after the frame is encoded (its CPU charged),
  /// or when the message is dropped on a closed connection. It does not run
  /// if the messenger shuts down with the message still queued.
  void send_message(MessageRef m, std::function<void()> on_sent = {});

  /// Peer's advertised (listening) address, once known; the raw socket peer
  /// address before the banner completes.
  [[nodiscard]] net::Address peer_addr() const;

  [[nodiscard]] bool is_connected() const noexcept {
    return state_.load() == State::ready;
  }

  /// Hard-close (Ceph mark_down): peer sees reset; no reconnect here.
  void mark_down();

  /// Messages fully handed to the socket layer (tests/diagnostics).
  [[nodiscard]] std::uint64_t sent_count() const noexcept { return sent_.load(); }
  [[nodiscard]] std::uint64_t received_count() const noexcept { return received_.load(); }

 private:
  friend class Messenger;
  enum class State { banner_wait, ready, closed };

  Connection(Messenger& msgr, event::EventCenter& center, net::SocketRef sock,
             bool incoming);

  // All run in the owner worker thread:
  void start();
  void handle_readable();
  void handle_writable();
  void enqueue_locked_bytes(BufferList bytes);
  void try_flush();
  void process_rx();
  [[nodiscard]] bool parse_one();
  void fail(const Status& why);
  BufferList encode_message(const Message& m);

  Messenger& msgr_;
  event::EventCenter& center_;
  net::SocketRef sock_;
  std::atomic<State> state_{State::banner_wait};
  bool incoming_;

  net::Address peer_advertised_;  // learned from banner

  // Owner-thread data:
  BufferList rx_buf_;
  BufferList tx_buf_;
  std::uint64_t next_seq_ = 1;

  // Parser state.
  bool have_header_ = false;
  sim::Time hdr_stamp_ = 0;  // when the current message's header arrived
  struct WireHeader {
    MsgType type = MsgType::none;
    std::uint64_t seq = 0;
    std::uint64_t tid = 0;
    std::uint32_t front_len = 0;
    std::uint32_t data_len = 0;
    net::Address src;
    trace::TraceContext trace;
  } hdr_;

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> received_{0};
};

/// Async messenger: N worker event loops, a listener, outgoing connection
/// cache, and message framing with crc32c integrity (header/front/data/
/// footer), closely following Ceph's AsyncMessenger structure.
class Messenger {
 public:
  /// `entity_name` is used for worker thread names' suffix and diagnostics
  /// (e.g. "osd.0" => threads "msgr-worker-0@osd.0"). `domain` is the CPU
  /// domain charged for all messenger work — the host in Baseline, the DPU
  /// in DoCeph deployments.
  Messenger(sim::Env& env, net::Fabric& fabric, net::NetNode& node,
            sim::CpuDomain* domain, std::string entity_name, MessengerConfig cfg = {});
  ~Messenger();

  Messenger(const Messenger&) = delete;
  Messenger& operator=(const Messenger&) = delete;

  /// Listen for peers on `port` (optional for pure clients).
  Status bind(std::uint16_t port);

  /// Start the worker threads. Call after bind.
  void start();

  /// Stop workers and close all connections.
  void shutdown();

  void set_dispatcher(Dispatcher* d) noexcept { dispatcher_ = d; }

  /// Find or create a connection to a peer's bound address.
  ConnectionRef get_connection(const net::Address& peer);

  /// Advertised address (node + bound port; port 0 if unbound).
  [[nodiscard]] net::Address addr() const noexcept {
    return {node_.id(), bound_port_};
  }

  [[nodiscard]] sim::Env& env() noexcept { return env_; }
  [[nodiscard]] const MessengerConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::string& entity_name() const noexcept { return entity_; }

  /// The "msgr" perf-counter block (message/byte rates); daemons add it to
  /// their perf::Collection so `perf dump` covers the messenger too.
  [[nodiscard]] const perf::PerfCountersRef& counters() const noexcept {
    return counters_;
  }

 private:
  friend class Connection;

  event::EventCenter& pick_center();
  void accept(net::SocketRef sock);
  void charge(sim::Duration work) const {
    if (domain_ != nullptr) domain_->charge(work);
  }
  void dispatch_message(const MessageRef& m);
  void connection_reset(const ConnectionRef& con);

  sim::Env& env_;
  net::Fabric& fabric_;
  net::NetNode& node_;
  sim::CpuDomain* domain_;
  std::string entity_;
  MessengerConfig cfg_;
  perf::PerfCountersRef counters_;
  Dispatcher* dispatcher_ = nullptr;

  std::uint16_t bound_port_ = 0;
  std::vector<std::unique_ptr<event::EventCenter>> centers_;
  std::vector<sim::Thread> workers_;
  std::atomic<std::size_t> next_center_{0};
  bool started_ = false;

  dbg::Mutex mutex_{"msgr.messenger"};
  // by peer bound addr
  std::map<net::Address, ConnectionRef> outgoing_ DOCEPH_GUARDED_BY(mutex_);
  // inbound connections
  std::vector<ConnectionRef> accepted_ DOCEPH_GUARDED_BY(mutex_);
};

}  // namespace doceph::msgr
