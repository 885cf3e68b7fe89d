#include "client/rados_client.h"

#include <algorithm>

#include "common/logger.h"

namespace doceph::client {

// ---- AioCompletion ----------------------------------------------------------------

Status AioCompletion::wait() {
  dbg::UniqueLock lk(m_);
  cv_.wait(lk, [&] {
    m_.assert_held();  // predicate runs as a separate function
    return done_;
  });
  return status_;
}

bool AioCompletion::complete() const {
  const dbg::LockGuard lk(m_);
  return done_;
}

Status AioCompletion::status() const {
  const dbg::LockGuard lk(m_);
  return status_;
}

// ---- RadosClient ------------------------------------------------------------------

RadosClient::RadosClient(sim::Env& env, net::Fabric& fabric, net::NetNode& node,
                         sim::CpuDomain* domain, net::Address mon_addr,
                         std::uint64_t client_id, ClientConfig cfg)
    : env_(env),
      client_id_(client_id),
      cfg_(cfg),
      msgr_(env, fabric, node, domain, "client." + std::to_string(client_id)),
      monc_(env, msgr_, mon_addr),
      rng_(env.make_rng(0xC11E17 + client_id)),
      counters_(perf::Builder("client", l_client_first, l_client_last)
                    .add_counter(l_client_op, "op")
                    .add_counter(l_client_op_retry, "op_retry")
                    .add_counter(l_client_op_timeout, "op_timeout")
                    .add_histogram(l_client_op_lat, "op_lat")
                    .add_counter(l_client_op_throttled, "op_throttled")
                    .add_gauge(l_client_cwnd, "cwnd")
                    .create()) {
  msgr_.set_dispatcher(this);
  perf_.add(counters_);
  perf_.add(msgr_.counters());
  const dbg::LockGuard lk(mutex_);
  cwnd_ = cfg_.cwnd_init;
  counters_->set(l_client_cwnd, static_cast<std::uint64_t>(cwnd_));
}

RadosClient::~RadosClient() {  // NOLINT(bugprone-exception-escape): teardown disarms timers; a throw terminates, by design
  shutdown();
  // Disarm pending timers (they outlive us on the scheduler) and wait out
  // any timer body already executing.
  timer_gate_->close();
}

void RadosClient::schedule_guarded(sim::Duration delay, std::function<void()> fn) {
  // Dropped if the client is destroyed with the timer pending.
  env_.scheduler().schedule_after(delay, dbg::gated(timer_gate_, std::move(fn)));
}

sim::Duration RadosClient::retry_delay(int attempt) {
  sim::Duration d = cfg_.retry_delay_base;
  for (int i = 1; i < attempt && d < cfg_.retry_delay_max; ++i) d *= 2;
  d = std::min(d, cfg_.retry_delay_max);
  const dbg::LockGuard lk(mutex_);
  return d / 2 + static_cast<sim::Duration>(
                     rng_.uniform(0, static_cast<std::uint64_t>(d / 2)));
}

Status RadosClient::connect() {
  msgr_.start();
  monc_.set_map_callback(
      [this](const crush::OSDMap&) { resend_all_mistargeted(); });
  Status st = monc_.init();
  if (!st.ok()) return st;
  st = monc_.subscribe();
  if (!st.ok()) return st;
  admin_.register_command("perf dump", "dump all perf-counter blocks as JSON",
                          [this](const auto&) { return perf_.dump_json(); });
  admin_.register_command("perf reset", "zero every counter and histogram",
                          [this](const auto&) {
                            perf_.reset_all();
                            return std::string("{}");
                          });
  admin_.register_command(
      "fault", "fault set <point> [k=v ...] | fault list | fault clear [point]",
      [this](const auto& args) { return env_.faults().admin_command(args); });
  admin_.register_command("dump_ops_in_flight", "list currently tracked ops",
                          [this](const auto&) { return tracker_.dump_ops_in_flight(); });
  admin_.register_command(
      "dump_historic_ops", "list recently completed ops with event timelines",
      [this](const auto&) { return tracker_.dump_historic_ops(); });
  admin_.register_command(
      "trace dump",
      "dump completed spans as Chrome trace JSON; optional domain-substring arg",
      [this](const std::vector<std::string>& args) {
        return env_.tracer().dump_chrome_json(args.empty() ? std::string_view{}
                                                           : args.front());
      });
  admin_.register_command("trace reset", "discard recorded spans",
                          [this](const auto&) {
                            env_.tracer().reset();
                            return std::string("{}");
                          });
  admin_.register_command(
      "trace flight", "most recent flight-recorder snapshot (crash dump)",
      [this](const auto&) { return env_.tracer().last_flight_json(); });
  connected_ = true;
  return Status::OK();
}

void RadosClient::shutdown() {
  if (!connected_) return;
  connected_ = false;
  // Fail any stragglers so waiters unblock.
  std::map<std::uint64_t, InFlight> orphans;
  {
    const dbg::LockGuard lk(mutex_);
    orphans.swap(in_flight_);
    admit_queue_.clear();
    admitted_ = 0;
  }
  for (auto& [tid, op] : orphans) {
    if (op.tracked != nullptr) {
      op.tracked->mark_event("done", env_.now());
      op.tracked->span().end(env_.now());
      tracker_.finish_op(op.tracked, env_.now());
    }
    const dbg::LockGuard lk(op.completion->m_);
    op.completion->done_ = true;
    op.completion->status_ = Status(Errc::shutting_down, "client shutdown");
    op.completion->cv_.notify_all();
  }
  msgr_.shutdown();
  admin_.unregister_all();
}

IoCtx RadosClient::io_ctx(os::pool_t pool) { return IoCtx(this, pool); }

Result<std::string> RadosClient::mon_command(std::vector<std::string> args) {
  return monc_.command(std::move(args));
}

AioCompletionRef RadosClient::aio_operate(os::pool_t pool, const std::string& object,
                                          msgr::OsdOpType op, std::uint64_t off,
                                          std::uint64_t len, BufferList data) {
  auto request = std::make_shared<msgr::MOSDOp>();
  request->tid = next_tid_.fetch_add(1);
  request->op = op;
  request->client_id = client_id_;
  request->pool = pool;
  request->object = object;
  request->offset = off;
  request->length = len;
  request->data = std::move(data);

  auto completion = std::make_shared<AioCompletion>(env_.keeper());
  std::string desc = "client_op(";
  desc += msgr::osd_op_type_name(op);
  desc += ' ';
  desc += object;
  desc += ')';
  auto tracked = tracker_.create_op(std::move(desc), env_.now());
  // Sampling decision happens once, here at the root: the op's stable
  // identity hashes to a trace id, and the context rides the request so
  // every downstream layer (msgr, OSD, DPU, host store) joins the tree.
  const trace::TraceContext root =
      env_.tracer().root_context((client_id_ << 32) ^ request->tid);
  if (root.sampled()) {
    auto sp = env_.tracer().span(
        "client.op", "client." + std::to_string(client_id_), root, env_.now());
    request->trace = sp.context();
    tracked->set_trace(sp.context());
    tracked->adopt_span(std::move(sp));
  }
  const std::uint64_t tid = request->tid;
  bool send_now = true;
  {
    const dbg::LockGuard lk(mutex_);
    auto& entry = in_flight_[tid];
    entry = InFlight{request, completion, tracked, -1, 0};
    // Window admission: ops beyond cwnd wait client-side instead of
    // piling onto an OSD that just told us it is overloaded.
    if (admitted_ < static_cast<int>(cwnd_)) {
      ++admitted_;
      entry.admitted = true;
    } else {
      send_now = false;
      admit_queue_.push_back(tid);
      if (tracked != nullptr) tracked->mark_event("admit_wait", env_.now());
    }
  }
  if (send_now) send_op(tid);
  // Hard lifetime bound: whatever faults the cluster is under, the op
  // completes (possibly with timed_out) rather than hanging a caller.
  schedule_guarded(cfg_.op_deadline, [this, tid] {
    fail_op(tid, Status(Errc::timed_out, "op deadline exceeded"));
  });
  return completion;
}

void RadosClient::admit_waiters() {
  std::vector<std::uint64_t> to_send;
  {
    const dbg::LockGuard lk(mutex_);
    while (!admit_queue_.empty() && admitted_ < static_cast<int>(cwnd_)) {
      const std::uint64_t tid = admit_queue_.front();
      admit_queue_.pop_front();
      auto it = in_flight_.find(tid);
      if (it == in_flight_.end()) continue;  // failed while waiting (deadline)
      it->second.admitted = true;
      ++admitted_;
      to_send.push_back(tid);
    }
  }
  for (const auto tid : to_send) send_op(tid);
}

void RadosClient::fail_op(std::uint64_t tid, Status st) {
  AioCompletionRef completion;
  osd::TrackedOpRef tracked;
  {
    const dbg::LockGuard lk(mutex_);
    auto it = in_flight_.find(tid);
    if (it == in_flight_.end()) return;  // completed in time
    completion = it->second.completion;
    tracked = it->second.tracked;
    if (it->second.admitted && admitted_ > 0) --admitted_;
    in_flight_.erase(it);
  }
  admit_waiters();
  counters_->inc(l_client_op_timeout);
  DLOG(warn, "client") << "op tid=" << tid << " failed: " << st.to_string();
  if (tracked != nullptr) {
    tracked->mark_event("done", env_.now());
    tracked->span().end(env_.now());
    tracker_.finish_op(tracked, env_.now());
  }
  const dbg::LockGuard lk(completion->m_);
  completion->done_ = true;
  completion->status_ = std::move(st);
  completion->cv_.notify_all();
}

void RadosClient::on_resend_silence(std::uint64_t tid, int attempt) {
  {
    const dbg::LockGuard lk(mutex_);
    auto it = in_flight_.find(tid);
    if (it == in_flight_.end()) return;     // completed
    if (it->second.attempts != attempt) return;  // already resent elsewhere
  }
  DLOG(info, "client") << "op tid=" << tid << " silent for "
                       << cfg_.resend_timeout / 1'000'000 << " ms; resending";
  send_op(tid);
}

void RadosClient::send_op(std::uint64_t tid) {
  std::shared_ptr<msgr::MOSDOp> request;
  osd::TrackedOpRef tracked;
  int attempt = 0;
  {
    const dbg::LockGuard lk(mutex_);
    auto it = in_flight_.find(tid);
    if (it == in_flight_.end()) return;  // already completed
    tracked = it->second.tracked;
    attempt = ++it->second.attempts;
    if (attempt <= cfg_.max_attempts) {
      request = it->second.request;
      if (attempt > 1) counters_->inc(l_client_op_retry);
    }
  }
  if (request == nullptr) {
    fail_op(tid, Status(Errc::timed_out, "op exhausted retries"));
    return;
  }

  const crush::OSDMap map = monc_.map();
  const auto pg = map.object_to_pg(request->pool, request->object);
  const int primary = map.pg_primary(pg);
  msgr::ConnectionRef con;
  if (primary >= 0) con = msgr_.get_connection(map.osd(primary).addr);
  if (con == nullptr) {
    // No primary yet (PG degraded to zero, or connect refused): back off
    // exponentially with jitter so recovering OSDs aren't hammered in sync.
    schedule_guarded(retry_delay(attempt), [this, tid] { send_op(tid); });
    return;
  }
  {
    const dbg::LockGuard lk(mutex_);
    auto it = in_flight_.find(tid);
    if (it == in_flight_.end()) return;
    it->second.target_osd = primary;
  }
  if (tracked != nullptr) tracked->mark_event("sent", env_.now());
  request->map_epoch = map.epoch();
  con->send_message(request);
  // A partitioned or crashed-but-not-yet-marked-down primary never replies;
  // turn that silence into a resend instead of an op that hangs until the
  // OSD map catches up.
  schedule_guarded(cfg_.resend_timeout,
                   [this, tid, attempt] { on_resend_silence(tid, attempt); });
}

void RadosClient::finish_op(std::uint64_t tid, const msgr::MessageRef& reply) {
  auto* r = static_cast<msgr::MOSDOpReply*>(reply.get());
  if (r->result == -static_cast<std::int32_t>(Errc::throttled)) {
    // Server-side admission bounce: shrink the window multiplicatively and
    // retry after max(server-suggested delay, jittered equal-jitter
    // backoff). The op keeps its window slot — it is still in flight.
    int attempt = 1;
    {
      const dbg::LockGuard lk(mutex_);
      auto it = in_flight_.find(tid);
      if (it == in_flight_.end()) return;  // duplicate reply after resend
      attempt = it->second.attempts;
      cwnd_ = std::max(kCwndMin, cwnd_ / 2.0);
      counters_->set(l_client_cwnd, static_cast<std::uint64_t>(cwnd_));
    }
    counters_->inc(l_client_op_throttled);
    const auto delay = std::max<sim::Duration>(
        static_cast<sim::Duration>(r->retry_after_ns), retry_delay(attempt));
    schedule_guarded(delay, [this, tid] { send_op(tid); });
    return;
  }
  if (r->result == -static_cast<std::int32_t>(Errc::busy)) {
    // Wrong primary: our map is stale (or failover mid-flight). Retry with
    // backoff; the subscription will deliver the fresher map.
    int attempt = 1;
    {
      const dbg::LockGuard lk(mutex_);
      auto it = in_flight_.find(tid);
      if (it != in_flight_.end()) attempt = it->second.attempts;
    }
    schedule_guarded(retry_delay(attempt), [this, tid] { send_op(tid); });
    return;
  }
  AioCompletionRef completion;
  osd::TrackedOpRef tracked;
  {
    const dbg::LockGuard lk(mutex_);
    auto it = in_flight_.find(tid);
    if (it == in_flight_.end()) return;  // duplicate reply after resend
    completion = it->second.completion;
    tracked = it->second.tracked;
    if (it->second.admitted && admitted_ > 0) --admitted_;
    in_flight_.erase(it);
    if (r->result == 0) {
      // Additive increase: +1 per window's worth of successes.
      cwnd_ = std::min(kCwndMax, cwnd_ + 1.0 / std::max(cwnd_, 1.0));
      counters_->set(l_client_cwnd, static_cast<std::uint64_t>(cwnd_));
    }
  }
  admit_waiters();
  if (tracked != nullptr) {
    tracked->mark_event("done", env_.now());
    counters_->inc(l_client_op);
    counters_->rec(l_client_op_lat,
                   static_cast<std::uint64_t>(env_.now() - tracked->initiated_at()));
    tracked->span().end(env_.now());
    tracker_.finish_op(tracked, env_.now());
  }
  const dbg::LockGuard lk(completion->m_);
  completion->done_ = true;
  completion->status_ =
      r->result == 0 ? Status::OK()
                     : Status(static_cast<Errc>(-r->result), "osd error");
  completion->version_ = r->object_version;
  completion->size_ = r->object_size;
  completion->data_ = std::move(r->data);
  completion->cv_.notify_all();
}

void RadosClient::resend_all_mistargeted() {
  const crush::OSDMap map = monc_.map();
  std::vector<std::uint64_t> stale;
  {
    const dbg::LockGuard lk(mutex_);
    for (auto& [tid, op] : in_flight_) {
      const auto pg = map.object_to_pg(op.request->pool, op.request->object);
      if (op.target_osd >= 0 && map.pg_primary(pg) != op.target_osd)
        stale.push_back(tid);
    }
  }
  for (const auto tid : stale) send_op(tid);
}

void RadosClient::ms_dispatch(const msgr::MessageRef& m) {
  if (monc_.handle_message(m)) return;
  if (m->type() == msgr::MsgType::osd_op_reply) {
    finish_op(m->tid, m);
    return;
  }
  DLOG(warn, "client") << "unexpected " << msg_type_name(m->type());
}

void RadosClient::ms_handle_reset(const msgr::ConnectionRef&) {
  // Ops to the dead peer are retried when a new map arrives; additionally
  // nudge everything whose target may be gone.
  resend_all_mistargeted();
}

// ---- IoCtx -----------------------------------------------------------------------

Status IoCtx::write_full(const std::string& object, BufferList data) {
  return client_
      ->aio_operate(pool_, object, msgr::OsdOpType::write_full, 0, 0, std::move(data))
      ->wait();
}

Status IoCtx::write(const std::string& object, std::uint64_t off, BufferList data) {
  return client_
      ->aio_operate(pool_, object, msgr::OsdOpType::write, off, 0, std::move(data))
      ->wait();
}

Result<BufferList> IoCtx::read(const std::string& object, std::uint64_t off,
                               std::uint64_t len) {
  auto c = client_->aio_operate(pool_, object, msgr::OsdOpType::read, off, len, {});
  const Status st = c->wait();
  if (!st.ok()) return st;
  return c->data();
}

Result<os::ObjectInfo> IoCtx::stat(const std::string& object) {
  auto c = client_->aio_operate(pool_, object, msgr::OsdOpType::stat, 0, 0, {});
  const Status st = c->wait();
  if (!st.ok()) return st;
  return os::ObjectInfo{c->object_size(), c->object_version()};
}

Status IoCtx::remove(const std::string& object) {
  return client_->aio_operate(pool_, object, msgr::OsdOpType::remove, 0, 0, {})->wait();
}

AioCompletionRef IoCtx::aio_write_full(const std::string& object, BufferList data) {
  return client_->aio_operate(pool_, object, msgr::OsdOpType::write_full, 0, 0,
                              std::move(data));
}

AioCompletionRef IoCtx::aio_read(const std::string& object, std::uint64_t off,
                                 std::uint64_t len) {
  return client_->aio_operate(pool_, object, msgr::OsdOpType::read, off, len, {});
}

}  // namespace doceph::client
