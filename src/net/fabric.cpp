#include "net/fabric.h"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace doceph::net {

// ---- Socket::Core ------------------------------------------------------------

/// Shared state of one connection. half[s] carries data from side s to side
/// 1-s. A single Core is referenced by both endpoint Sockets, so there is no
/// reference cycle and teardown is automatic. Notification lambdas capture a
/// shared_ptr to the Core so queued dispatches survive socket teardown.
struct Socket::Core : std::enable_shared_from_this<Socket::Core> {
  Core(sim::Env& e, NetNode* n0, NetNode* n1, std::uint16_t p0, std::uint16_t p1,
       std::size_t win)
      : env(e), node{n0, n1}, port{p0, p1}, window(win) {}

  sim::Env& env;
  NetNode* node[2];
  std::uint16_t port[2];
  std::size_t window;

  struct Half {
    std::deque<BufferList> q;  // delivered, unread
    std::size_t q_bytes = 0;
    std::size_t in_flight = 0;  // accepted by sender, not yet read by receiver
    bool closed = false;

    event::EventCenter::Handle rd_center;
    std::function<void()> on_readable;
    bool rd_pending = false;  // a readable dispatch is queued

    event::EventCenter::Handle wr_center;
    std::function<void()> on_writable;
    bool wr_blocked = false;  // sender saw would-block
  };

  dbg::Mutex m{"net.socket_core"};
  Half half[2] DOCEPH_GUARDED_BY(m);

  // Earliest permitted delivery time per direction after a net.delay fault;
  // keeps the stream in order. Atomic (not under m) so send() can clamp
  // without taking the core lock on the NIC booking path.
  std::atomic<std::int64_t> min_deliver[2]{};

  /// Queue a readable notification for half[hi] if armed.
  void notify_readable_locked(int hi) DOCEPH_REQUIRES(m) {
    Half& h = half[hi];
    if (h.on_readable == nullptr || h.rd_pending) return;
    h.rd_pending = true;
    h.rd_center.dispatch([self = shared_from_this(), hi] {
      std::function<void()> handler;
      {
        const dbg::LockGuard lk(self->m);
        self->half[hi].rd_pending = false;
        handler = self->half[hi].on_readable;
      }
      if (handler) handler();
    });
  }

  /// Wake a blocked writer on half[hi].
  void notify_writable_locked(int hi) DOCEPH_REQUIRES(m) {
    Half& h = half[hi];
    if (!h.wr_blocked || h.on_writable == nullptr) return;
    h.wr_blocked = false;
    h.wr_center.dispatch([self = shared_from_this(), hi] {
      std::function<void()> handler;
      {
        const dbg::LockGuard lk(self->m);
        handler = self->half[hi].on_writable;
      }
      if (handler) handler();
    });
  }
};

// ---- Socket ------------------------------------------------------------------

Result<std::size_t> Socket::send(BufferList& bl) {
  Core& c = *core_;

  // Fault hooks (free when nothing is armed). Scope is "src>dst" so a spec
  // can target one direction of one link; `match=nodename` hits both
  // directions. Drops and partitions black-hole the chunk after the sender
  // has accepted it — the peer just sees silence, like a real blackhole.
  bool blackhole = false;
  std::uint64_t extra_delay = 0;
  auto& faults = c.env.faults();
  if (faults.any_armed()) {
    const sim::Time fnow = c.env.now();
    const std::string scope = c.node[side_]->name() + ">" + c.node[1 - side_]->name();
    if (faults.should_fire("net.disconnect", fnow, scope)) {
      close();
      return Status(Errc::not_connected, "fault injected: net.disconnect");
    }
    blackhole = faults.should_fire("net.partition", fnow, scope);
    blackhole = faults.should_fire("net.drop", fnow, scope) || blackhole;
    const fault::FaultHit delay_hit = faults.hit("net.delay", fnow, scope);
    if (delay_hit.fired)
      extra_delay = delay_hit.delay_ns != 0 ? delay_hit.delay_ns : 1'000'000;
  }

  std::size_t take = 0;
  BufferList data;
  {
    const dbg::LockGuard lk(c.m);
    Core::Half& h = c.half[side_];
    if (h.closed || c.half[1 - side_].closed)
      return Status(Errc::not_connected, "socket closed");
    const std::size_t avail = c.window > h.in_flight ? c.window - h.in_flight : 0;
    take = std::min(avail, bl.length());
    if (take == 0) {
      h.wr_blocked = true;
      return std::size_t{0};
    }
    h.in_flight += take;
    // substr makes fresh views: no crc a sender's slice cached crosses the
    // wire, so the receiver's checks always hash the bytes it got.
    data = bl.substr(0, take);
  }
  bl = bl.substr(take, bl.length() - take);

  // CPU: user->kernel copy etc., on the calling thread's domain. Done
  // outside the core lock — charging advances simulated time.
  NetNode* src = c.node[side_];
  NetNode* dst = c.node[1 - side_];
  src->stack().charge(take);

  // NIC path: source TX serialization, wire latency, destination RX. The RX
  // side is booked cut-through — it starts when the first bit arrives, so a
  // chunk through equal-speed NICs pays bytes/bw once, not twice.
  const sim::Time now = c.env.now();
  const sim::Duration occ_tx = sim::transfer_time(take, src->nic().bw_bytes_per_sec);
  const sim::Duration occ_rx = sim::transfer_time(take, dst->nic().bw_bytes_per_sec);
  const sim::Time tx_done = src->tx_.reserve(now, occ_tx);
  const sim::Time tx_start = tx_done - occ_tx;
  const sim::Time rx_end = dst->rx_.reserve(tx_start + src->nic().latency, occ_rx);
  sim::Time rx_done = std::max(rx_end, tx_done + src->nic().latency);

  // A black-holed chunk stays charged against the window: the pipe wedges
  // exactly like a real one-way partition until the peer resets it.
  if (blackhole) return take;

  // Delay faults must not reorder the byte stream: remember the latest
  // faulted delivery time per direction and clamp later chunks past it.
  if (extra_delay > 0) {
    sim::Time target = rx_done + static_cast<sim::Duration>(extra_delay);
    std::int64_t cur = c.min_deliver[side_].load(std::memory_order_relaxed);
    while (cur < target && !c.min_deliver[side_].compare_exchange_weak(
                               cur, target, std::memory_order_relaxed)) {
    }
  }
  rx_done = std::max(
      rx_done, sim::Time{c.min_deliver[side_].load(std::memory_order_relaxed)});

  auto core = core_;
  const int side = side_;
  c.env.scheduler().schedule_at(rx_done, [core, side, data = std::move(data)]() mutable {
    const dbg::LockGuard lk(core->m);
    Core::Half& h = core->half[side];
    h.q_bytes += data.length();
    h.q.push_back(std::move(data));
    core->notify_readable_locked(side);
  });
  return take;
}

BufferList Socket::recv(std::size_t max) {
  Core& c = *core_;
  BufferList out;
  {
    const dbg::LockGuard lk(c.m);
    Core::Half& h = c.half[1 - side_];
    while (!h.q.empty() && out.length() < max) {
      BufferList& front = h.q.front();
      const std::size_t want = max - out.length();
      if (front.length() <= want) {
        out.claim_append(front);
        h.q.pop_front();
      } else {
        out.append(front.substr(0, want));
        front = front.substr(want, front.length() - want);
      }
    }
    h.q_bytes -= out.length();
    h.in_flight -= out.length();
    if (out.length() > 0) c.notify_writable_locked(1 - side_);
  }
  // CPU: kernel->user copy for what we took (a bare EAGAIN-style recv still
  // pays the syscall entry).
  c.node[side_]->stack().charge(out.length());
  return out;
}

std::size_t Socket::readable() const {
  const dbg::LockGuard lk(core_->m);
  return core_->half[1 - side_].q_bytes;
}

bool Socket::eof() const {
  const dbg::LockGuard lk(core_->m);
  const Socket::Core::Half& h = core_->half[1 - side_];
  return h.closed && h.q.empty();
}

void Socket::close() {
  Core& c = *core_;
  const dbg::LockGuard lk(c.m);
  if (c.half[side_].closed && c.half[1 - side_].closed) return;
  c.half[side_].closed = true;
  c.half[1 - side_].closed = true;
  // Peer learns via EOF-readability and (if blocked) writability.
  c.notify_readable_locked(side_);      // peer reads half[side_]
  c.notify_writable_locked(1 - side_);  // peer writes half[1 - side_]
}

bool Socket::closed() const {
  const dbg::LockGuard lk(core_->m);
  return core_->half[side_].closed;
}

void Socket::set_read_handler(event::EventCenter& center, std::function<void()> h) {
  const dbg::LockGuard lk(core_->m);
  Core::Half& half = core_->half[1 - side_];
  half.rd_center = center.handle();
  half.on_readable = std::move(h);
  if (half.q_bytes > 0 || half.closed) core_->notify_readable_locked(1 - side_);
}

void Socket::set_write_handler(event::EventCenter& center, std::function<void()> h) {
  const dbg::LockGuard lk(core_->m);
  Core::Half& half = core_->half[side_];
  half.wr_center = center.handle();
  half.on_writable = std::move(h);
}

void Socket::clear_handlers() {
  const dbg::LockGuard lk(core_->m);
  Core::Half& rd = core_->half[1 - side_];
  rd.rd_center = {};
  rd.on_readable = nullptr;
  Core::Half& wr = core_->half[side_];
  wr.wr_center = {};
  wr.on_writable = nullptr;
}

Address Socket::local_addr() const {
  return {core_->node[side_]->id(), core_->port[side_]};
}

Address Socket::remote_addr() const {
  return {core_->node[1 - side_]->id(), core_->port[1 - side_]};
}

// ---- NetNode -----------------------------------------------------------------

Status NetNode::listen(std::uint16_t port, event::EventCenter& center,
                       AcceptFn on_accept) {
  const dbg::LockGuard lk(mutex_);
  if (listeners_.contains(port))
    return Status(Errc::exists, name_ + " port " + std::to_string(port) + " in use");
  listeners_[port] = ListenerEntry{center.handle(), std::move(on_accept)};
  return Status::OK();
}

void NetNode::unlisten(std::uint16_t port) {
  const dbg::LockGuard lk(mutex_);
  listeners_.erase(port);
}

// ---- Fabric ------------------------------------------------------------------

NetNode& Fabric::add_node(std::string name, NicProfile nic, StackModel stack) {
  const dbg::LockGuard lk(mutex_);
  const auto id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(
      std::unique_ptr<NetNode>(new NetNode(*this, id, std::move(name), nic, stack)));
  return *nodes_.back();
}

NetNode* Fabric::node(std::int32_t id) {
  const dbg::LockGuard lk(mutex_);
  if (id < 0 || id >= static_cast<std::int32_t>(nodes_.size())) return nullptr;
  return nodes_[static_cast<std::size_t>(id)].get();
}

Result<SocketRef> Fabric::connect(NetNode& from, Address to) {
  NetNode* dst = node(to.node);
  if (dst == nullptr) return Status(Errc::invalid_argument, "no such node");

  NetNode::ListenerEntry listener;
  {
    const dbg::LockGuard lk(dst->mutex_);
    auto it = dst->listeners_.find(to.port);
    if (it == dst->listeners_.end())
      return Status(Errc::not_connected,
                    "connection refused: " + to.to_string());
    listener = it->second;
  }

  std::uint16_t src_port = 0;
  {
    const dbg::LockGuard lk(from.mutex_);
    src_port = from.next_ephemeral_++;
  }

  constexpr std::size_t kDefaultWindow = 1 << 20;  // 1 MiB per direction
  auto core = std::make_shared<Socket::Core>(env_, &from, dst, src_port, to.port,
                                             kDefaultWindow);
  SocketRef client(new Socket(core, 0));
  SocketRef server(new Socket(core, 1));

  // A partition swallows the SYN: the caller gets its socket and hears
  // nothing back, exactly like connecting into a blackhole.
  if (env_.faults().any_armed() &&
      env_.faults().should_fire("net.partition", env_.now(),
                                from.name() + ">" + dst->name())) {
    return client;
  }

  // Handshake: the acceptor learns about the connection one wire latency
  // later (SYN). Data sent immediately by the client also rides the wire, so
  // ordering is preserved by delivery timestamps.
  env_.scheduler().schedule_after(from.nic().latency, [listener, server]() mutable {
    listener.center.dispatch(
        [on_accept = listener.on_accept, server = std::move(server)]() mutable {
          on_accept(std::move(server));
        });
  });
  return client;
}

}  // namespace doceph::net
