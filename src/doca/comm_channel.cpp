#include "doca/comm_channel.h"

#include <algorithm>
#include <atomic>

#include "dbg/cond_var.h"
#include "dbg/mutex.h"
#include "sim/exec_context.h"

namespace doceph::doca {

struct CommChannel::Core : std::enable_shared_from_this<CommChannel::Core> {
  Core(sim::Env& e, PcieLink& l, CommChannelConfig c) : env(e), link(l), cfg(c) {}

  sim::Env& env;
  PcieLink& link;
  CommChannelConfig cfg;

  struct Side {
    std::deque<BufferList> inbox;  // delivered, unconsumed
    event::EventCenter::Handle center;
    std::function<void(BufferList)> handler;
    bool notify_pending = false;
    std::unique_ptr<dbg::CondVar> recv_cv;  // for blocking recv
  };

  dbg::Mutex m{"doca.comch"};
  Side side[2] DOCEPH_GUARDED_BY(m);
  bool closed DOCEPH_GUARDED_BY(m) = false;

  // Earliest permitted delivery per direction after a comch_stall fault;
  // keeps fragmented RPC messages in order (index = receiving side).
  std::atomic<std::int64_t> min_deliver[2] = {{0}, {0}};

  void deliver(int to, BufferList msg) {
    const dbg::LockGuard lk(m);
    if (closed) return;  // late delivery after teardown: drop
    Side& s = side[to];
    s.inbox.push_back(std::move(msg));
    if (s.recv_cv) s.recv_cv->notify_all();
    arm_locked(to);
  }

  /// Queue a handler drain for side `to` if one is registered and not
  /// already pending. Requires m held.
  void arm_locked(int to) DOCEPH_REQUIRES(m) {
    Side& s = side[to];
    if (s.handler != nullptr && !s.notify_pending && !s.inbox.empty()) {
      s.notify_pending = true;
      s.center.dispatch([self = shared_from_this(), to] {
        // Drain everything available, invoking the handler per message with
        // the marshalling cost charged to the handler thread's domain.
        while (true) {
          BufferList msg;
          std::function<void(BufferList)> handler;
          {
            const dbg::LockGuard lk2(self->m);
            Side& side = self->side[to];
            side.notify_pending = false;
            if (side.inbox.empty() || side.handler == nullptr) return;
            msg = std::move(side.inbox.front());
            side.inbox.pop_front();
            handler = side.handler;
            side.notify_pending = true;  // keep draining in this dispatch
          }
          if (auto* d = sim::ExecContext::current().domain) {
            d->charge(self->cfg.per_msg_overhead +
                      static_cast<sim::Duration>(self->cfg.cpu_ns_per_byte *
                                                 static_cast<double>(msg.length())));
          }
          handler(std::move(msg));
        }
      });
    }
  }
};

std::pair<CommChannelRef, CommChannelRef> CommChannel::create_pair(
    sim::Env& env, PcieLink& link, CommChannelConfig cfg) {
  auto core = std::make_shared<Core>(env, link, cfg);
  CommChannelRef host(new CommChannel(core, 0));
  CommChannelRef dpu(new CommChannel(core, 1));
  return {std::move(host), std::move(dpu)};
}

const CommChannelConfig& CommChannel::config() const noexcept { return core_->cfg; }

Status CommChannel::send(BufferList msg) {
  Core& c = *core_;
  {
    const dbg::LockGuard lk(c.m);
    if (c.closed) return Status(Errc::not_connected, "comm channel closed");
  }
  if (msg.length() > c.cfg.max_msg_size)
    return Status(Errc::too_large, "message exceeds comch cap");

  // Marshalling cost on the sender.
  if (auto* d = sim::ExecContext::current().domain) {
    d->charge(c.cfg.per_msg_overhead +
              static_cast<sim::Duration>(c.cfg.cpu_ns_per_byte *
                                         static_cast<double>(msg.length())));
  }

  const int to = 1 - side_;
  const sim::Time now = c.env.now();
  sim::Time arrival = side_ == 0 ? c.link.reserve_h2d(now, msg.length())
                                 : c.link.reserve_d2h(now, msg.length());
  ++sent_;

  // Fault hooks: a dropped message silently never arrives (the peer sees a
  // stalled channel — this is how chaos tests partition DPU from host); a
  // stall adds delivery latency. Scope is "<name>/h2d" or "<name>/d2h".
  auto& faults = c.env.faults();
  if (faults.any_armed()) {
    const std::string scope = c.cfg.name + (side_ == 0 ? "/h2d" : "/d2h");
    if (faults.should_fire("doca.comch_drop", now, scope)) return Status::OK();
    const fault::FaultHit stall = faults.hit("doca.comch_stall", now, scope);
    if (stall.fired) {
      arrival += static_cast<sim::Duration>(stall.delay_ns != 0 ? stall.delay_ns
                                                                : 1'000'000);
      std::int64_t cur = c.min_deliver[to].load(std::memory_order_relaxed);
      while (cur < arrival && !c.min_deliver[to].compare_exchange_weak(
                                  cur, arrival, std::memory_order_relaxed)) {
      }
    }
  }
  // Outside the fault block: a message sent after the stall spec is cleared
  // must still not overtake the stalled one.
  arrival =
      std::max(arrival, sim::Time{c.min_deliver[to].load(std::memory_order_relaxed)});
  c.env.scheduler().schedule_at(
      arrival, [core = core_, to, msg = std::move(msg)]() mutable {
        core->deliver(to, std::move(msg));
      });
  return Status::OK();
}

void CommChannel::set_recv_handler(event::EventCenter& center,
                                   std::function<void(BufferList)> handler) {
  Core& c = *core_;
  const dbg::LockGuard lk(c.m);
  c.side[side_].center = center.handle();
  c.side[side_].handler = std::move(handler);
  c.arm_locked(side_);  // drain anything queued before the handler existed
}

std::optional<BufferList> CommChannel::recv(sim::Duration timeout) {
  Core& c = *core_;
  dbg::UniqueLock lk(c.m);
  Core::Side& s = c.side[side_];
  if (!s.recv_cv) s.recv_cv = std::make_unique<dbg::CondVar>(c.env.keeper(), "doca.comch.recv");
  const sim::Time deadline = c.env.now() + timeout;
  while (s.inbox.empty() && !c.closed) {
    if (!s.recv_cv->wait_until(lk, deadline)) break;
  }
  if (s.inbox.empty()) return std::nullopt;
  BufferList msg = std::move(s.inbox.front());
  s.inbox.pop_front();
  lk.unlock();
  if (auto* d = sim::ExecContext::current().domain) {
    d->charge(c.cfg.per_msg_overhead +
              static_cast<sim::Duration>(c.cfg.cpu_ns_per_byte *
                                         static_cast<double>(msg.length())));
  }
  return msg;
}

void CommChannel::close() {
  Core& c = *core_;
  const dbg::LockGuard lk(c.m);
  c.closed = true;
  for (auto& s : c.side) {
    // Detach handlers: pending dispatches hold the Core alive, but the
    // registered EventCenters are about to be destroyed by their owners.
    s.center = {};
    s.handler = nullptr;
    if (s.recv_cv) s.recv_cv->notify_all();
  }
}

bool CommChannel::closed() const {
  const dbg::LockGuard lk(core_->m);
  return core_->closed;
}

}  // namespace doceph::doca
