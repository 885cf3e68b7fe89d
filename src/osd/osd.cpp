#include "osd/osd.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/json.h"
#include "common/logger.h"
#include "sim/stats.h"

namespace doceph::osd {

using crush::pg_t;
using msgr::MessageRef;

namespace {

std::string osd_op_desc(const msgr::MOSDOp& op) {
  std::string desc = "osd_op(";
  desc += msgr::osd_op_type_name(op.op);
  desc += ' ';
  desc += op.object;
  desc += ')';
  return desc;
}

/// Per-PG ordering token for enqueue_op. Bit 63 keeps every token
/// distinct from 0 (the unordered marker); a cross-pool collision below it
/// only over-serializes, never under-serializes.
std::uint64_t pg_ord(std::int64_t pool, std::uint32_t pg_seed) {
  return (1ull << 63) | (static_cast<std::uint64_t>(pool) << 32) | pg_seed;
}

}  // namespace

OSD::OSD(sim::Env& env, net::Fabric& fabric, net::NetNode& node,
         sim::CpuDomain* domain, os::ObjectStore& store, net::Address mon_addr,
         OsdConfig cfg)
    : env_(env),
      cfg_(cfg),
      domain_(domain),
      store_(store),
      msgr_(env, fabric, node, domain, "osd." + std::to_string(cfg.id), cfg.msgr),
      monc_(env, msgr_, mon_addr),
      queue_cv_(env.keeper(), "osd.queue_cv"),
      tick_cv_(env.keeper(), "osd.tick_cv"),
      counters_(perf::Builder("osd", l_osd_first, l_osd_last)
                    .add_counter(l_osd_op, "op")
                    .add_counter(l_osd_op_w, "op_w")
                    .add_counter(l_osd_op_r, "op_r")
                    .add_counter(l_osd_op_in_bytes, "op_in_bytes")
                    .add_counter(l_osd_op_out_bytes, "op_out_bytes")
                    .add_histogram(l_osd_op_lat, "op_lat")
                    .add_histogram(l_osd_op_msgr_lat, "op_msgr_lat")
                    .add_histogram(l_osd_op_queue_lat, "op_queue_lat")
                    .add_histogram(l_osd_op_store_lat, "op_store_lat")
                    .add_histogram(l_osd_op_repl_lat, "op_repl_lat")
                    .add_histogram(l_osd_op_reply_lat, "op_reply_lat")
                    .add_counter(l_osd_op_throttled, "op_throttled")
                    .add_counter(l_osd_throttle_queue, "throttle_queue")
                    .add_counter(l_osd_throttle_conn, "throttle_conn")
                    .add_counter(l_osd_throttle_nearfull, "throttle_nearfull")
                    .add_gauge(l_osd_queue_depth, "queue_depth")
                    .add_gauge(l_osd_queue_depth_hw, "queue_depth_hw")
                    .create()) {
  msgr_.set_dispatcher(this);
  perf_.add(counters_);
  perf_.add(msgr_.counters());
  if (auto store_counters = store_.perf_counters()) perf_.add(store_counters);
}

OSD::~OSD() { shutdown(); }  // NOLINT(bugprone-exception-escape): teardown must complete; a throw terminates, by design

Status OSD::init() {
  Status st = msgr_.bind(cfg_.public_port);
  if (!st.ok()) return st;
  msgr_.start();

  monc_.set_map_callback([this](const crush::OSDMap& map) {
    // Runs on a messenger worker: refresh heartbeat targets and unblock
    // in-flight writes that were waiting on now-dead replicas.
    //
    // A new map proves every up-marked peer was alive moments ago, so the
    // liveness clock resets; keeping a stale pre-crash timestamp would trip
    // the failure detector the instant a rebooted peer rejoins.
    if (map.epoch() > 0 && !map.is_up(cfg_.id) && started_) {
      // The map says we are down but we are demonstrably running (Ceph's
      // "map wrongly marks me down" case): announce ourselves again.
      (void)monc_.send_boot(cfg_.id, msgr_.addr());
    }
    const dbg::LockGuard lk(mutex_);
    const sim::Time now = env_.now();
    for (int p = 0; p < map.num_osds(); ++p) {
      if (p == cfg_.id || !map.is_up(p)) continue;
      last_heard_[p] = now;
      reported_.erase(p);
    }
    std::vector<std::uint64_t> done;
    for (auto& [tid, op] : in_flight_) {
      std::erase_if(op.waiting_on,
                    [&](int osd) { return osd >= 0 && !map.is_up(osd); });
      if (op.waiting_on.empty()) done.push_back(tid);
    }
    for (const std::uint64_t tid : done) {
      // complete_if_done relocks; defer via the op queue.
      enqueue_op([this, tid] { complete_if_done(tid); });
    }
  });

  st = monc_.init();
  if (!st.ok()) return st;
  st = monc_.subscribe();
  if (!st.ok()) return st;
  st = monc_.send_boot(cfg_.id, msgr_.addr());
  if (!st.ok()) return st;
  while (!monc_.map().is_up(cfg_.id)) monc_.wait_for_epoch(monc_.epoch() + 1);

  {
    // Snapshot before locking: in DoCeph mode list_collections() is an RPC
    // that parks on the proxy call condvar, and osd.state must not be held
    // across that wait.
    const auto colls = store_.list_collections();
    const dbg::LockGuard lk(mutex_);
    for (const auto& c : colls) created_colls_.insert(c);
    client_inflight_.clear();  // a restart forgets pre-crash admissions
  }

  {
    const dbg::LockGuard lk(tick_mutex_);
    stopping_ = false;
  }
  {
    const dbg::LockGuard lk(queue_mutex_);
    queue_stopping_ = false;
  }
  // Every worker keeps the exact "tp_osd_tp" name: sim/stats classifies OSD
  // CPU by it.
  for (int i = 0; i < cfg_.op_threads; ++i) {
    op_workers_.emplace_back(env_.keeper(), env_.stats(), "tp_osd_tp", domain_,
                             [this] { op_worker(); }, /*daemon=*/true);
  }
  ticker_ = sim::Thread(env_.keeper(), env_.stats(),
                        "osd-tick." + std::to_string(cfg_.id), domain_,
                        [this] { tick_thread(); }, /*daemon=*/true);
  register_admin_commands();
  started_ = true;
  return Status::OK();
}

void OSD::register_admin_commands() {
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
      "dump_historic_ops", "list recently completed ops with stage breakdowns",
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
  admin_.register_command(
      "dump_thread_stats", "per-thread modeled CPU time and context switches",
      [this](const auto&) {
        JsonWriter w;
        w.begin_object();
        w.key("threads");
        w.begin_array();
        env_.stats().for_each([&](const sim::ThreadStats& ts) {
          w.begin_object();
          w.kv("name", ts.name);
          w.kv("group", ts.group);
          w.kv("class", sim::thread_class_name(ts.cls));
          w.kv("cpu_ns", ts.cpu_ns.load(std::memory_order_relaxed));
          w.kv("ctx_switches", ts.ctx_switches.load(std::memory_order_relaxed));
          w.end_object();
        });
        w.end_array();
        w.end_object();
        return w.str();
      });
}

void OSD::shutdown() {
  if (!started_) return;
  started_ = false;
  stop_threads();
  msgr_.shutdown();
  admin_.unregister_all();
}

void OSD::hard_kill() {
  if (!started_) return;
  started_ = false;
  // Power loss: the NIC goes down with everything else, so peers see
  // silence — replies queued by still-draining threads land on closed
  // connections and vanish instead of escaping as error responses.
  msgr_.shutdown();
  stop_threads();
  admin_.unregister_all();
}

void OSD::stop_threads() {
  {
    const dbg::LockGuard lk(tick_mutex_);
    stopping_ = true;
    tick_cv_.notify_all();
  }
  {
    const dbg::LockGuard lk(queue_mutex_);
    queue_stopping_ = true;
    queue_cv_.notify_all();
  }
  {
    // Unblock any tick-thread scan waits.
    const dbg::LockGuard lk(mutex_);
    for (auto& [tid, scan] : pending_scans_) {
      scan->done = true;
      scan->cv.notify_all();
    }
  }
  op_workers_.clear();  // joins
  ticker_.join();
  read_gate_->close();
}

// ---- dispatch -------------------------------------------------------------------

void OSD::ms_dispatch(const MessageRef& m) {
  if (monc_.handle_message(m)) return;
  switch (m->type()) {
    case msgr::MsgType::osd_op: {
      auto* op = static_cast<msgr::MOSDOp*>(m.get());
      const sim::Time recv = m->recv_stamp != 0 ? m->recv_stamp : env_.now();

      // Admission control, before the op is tracked or queued: a bounced op
      // costs one throttled reply and nothing else. Repops are exempt —
      // throttling mid-replication would wedge the primary's write.
      if (env_.faults().any_armed() &&
          env_.faults().should_fire("osd.overload", env_.now(),
                                    "osd." + std::to_string(cfg_.id))) {
        throttle_client(m, l_osd_throttle_queue, recv);
        break;
      }
      if (queue_depth_.load(std::memory_order_relaxed) >= cfg_.max_queue_depth) {
        throttle_client(m, l_osd_throttle_queue, recv);
        break;
      }
      if (op->op != msgr::OsdOpType::read && op->op != msgr::OsdOpType::stat &&
          store_.fullness() >= os::kNearfullRatio) {
        throttle_client(m, l_osd_throttle_nearfull, recv);
        break;
      }
      bool over = false;
      {
        const dbg::LockGuard lk(mutex_);
        int& n = client_inflight_[op->client_id];
        if (n >= cfg_.max_conn_inflight) {
          over = true;
        } else {
          ++n;  // released when reply_client answers this op
        }
      }
      if (over) {
        throttle_client(m, l_osd_throttle_conn, recv);
        break;
      }

      TrackedOpRef tracked = tracker_.create_op(osd_op_desc(*op), recv);
      if (m->trace.sampled()) {
        // The op-level span opens at the wire receive stamp and lives in the
        // TrackedOp, so a crash leaves it partial in the flight recorder.
        auto sp = env_.tracer().span("osd.op", "osd." + std::to_string(cfg_.id),
                                     m->trace, recv);
        tracked->set_trace(sp.context());
        tracked->adopt_span(std::move(sp));
      }
      tracked->mark_event("queued", env_.now());
      counters_->inc(l_osd_op_in_bytes, m->data.length());
      // object -> pg is epoch-independent, so one object always carries
      // the same ordering token and per-object ordering holds across map
      // churn (DESIGN.md §15.1). The lookup charges no simulated CPU.
      const crush::pg_t pg = monc_.map().object_to_pg(op->pool, op->object);
      const std::uint64_t ord = pg_ord(pg.pool, pg.seed);
      enqueue_op([this, m, tracked, ord] { handle_client_op(m, tracked, ord); },
                 ord, op->op == msgr::OsdOpType::read, tracked);
      break;
    }
    case msgr::MsgType::osd_repop: {
      // Repops carry their PG on the wire: the same token as the primary's
      // client op for that object.
      auto* repop = static_cast<msgr::MOSDRepOp*>(m.get());
      enqueue_op([this, m] { handle_repop(m); }, pg_ord(repop->pool, repop->pg_seed));
      break;
    }
    case msgr::MsgType::osd_repop_reply:
      handle_repop_reply(m);
      break;
    case msgr::MsgType::osd_ping:
      handle_ping(m);
      break;
    case msgr::MsgType::pg_scan:
      enqueue_op([this, m] { handle_pg_scan(m); });
      break;
    case msgr::MsgType::pg_scan_reply:
      handle_pg_scan_reply(m);
      break;
    default:
      DLOG(warn, "osd") << "osd." << cfg_.id << " unexpected "
                        << msg_type_name(m->type());
  }
}

void OSD::ms_handle_reset(const msgr::ConnectionRef&) {}

void OSD::enqueue_op(std::function<void()> fn, std::uint64_t ord, bool read,
                     TrackedOpRef tracked) {
  const dbg::LockGuard lk(queue_mutex_);
  if (queue_stopping_) return;
  op_queue_.push_back(QueuedOp{ord, read, std::move(fn), std::move(tracked)});
  const auto depth = queue_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
  counters_->set(l_osd_queue_depth, depth);
  if (depth > counters_->get(l_osd_queue_depth_hw))
    counters_->set(l_osd_queue_depth_hw, depth);
  queue_cv_.notify_one();
}

std::size_t OSD::next_ready_op() const {
  // Tokens passed over in this scan: each keeps every later entry of its
  // PG queued too, so dispatch skips a waiting PG but never reorders it.
  std::vector<std::uint64_t> held;
  for (std::size_t i = 0; i < op_queue_.size(); ++i) {
    const QueuedOp& e = op_queue_[i];
    if (e.ord == 0) return i;
    if (std::find(held.begin(), held.end(), e.ord) != held.end()) continue;
    if (executing_.contains(e.ord) || (!e.read && reading_.contains(e.ord))) {
      held.push_back(e.ord);
      continue;
    }
    return i;
  }
  return op_queue_.size();
}

void OSD::op_worker() {
  while (true) {
    QueuedOp e;
    {
      dbg::UniqueLock lk(queue_mutex_);
      std::size_t next = 0;
      queue_cv_.wait(lk, [&] {
        queue_mutex_.assert_held();  // predicate runs as a separate function
        if (queue_stopping_) return true;
        next = next_ready_op();
        return next < op_queue_.size();
      });
      if (queue_stopping_) return;
      const auto it = op_queue_.begin() + static_cast<std::ptrdiff_t>(next);
      e = std::move(*it);
      op_queue_.erase(it);
      if (e.ord != 0) executing_.insert(e.ord);
      counters_->set(l_osd_queue_depth,
                     queue_depth_.fetch_sub(1, std::memory_order_relaxed) - 1);
    }
    // The queue stage ends here: the per-op CPU below is the op's work,
    // not its wait.
    if (e.tracked != nullptr) e.tracked->mark_event("dequeued", env_.now());
    if (domain_ != nullptr) domain_->charge(cfg_.per_op_cost);
    e.fn();
    if (e.ord != 0) {
      const dbg::LockGuard lk(queue_mutex_);
      executing_.erase(e.ord);
      queue_cv_.notify_all();  // release entries waiting on this token
    }
  }
}

// ---- client ops ------------------------------------------------------------------

void OSD::reply_client(const MessageRef& req, std::int32_t result,
                       std::uint64_t version, std::uint64_t size, BufferList data,
                       const TrackedOpRef& op) {
  if (req->type() == msgr::MsgType::osd_op) {
    // Release this client's admission slot (taken at dispatch).
    const auto* cop = static_cast<const msgr::MOSDOp*>(req.get());
    const dbg::LockGuard lk(mutex_);
    auto it = client_inflight_.find(cop->client_id);
    if (it != client_inflight_.end() && it->second > 0) --it->second;
  }
  auto reply = std::make_shared<msgr::MOSDOpReply>();
  reply->tid = req->tid;
  reply->result = result;
  reply->object_version = version;
  reply->object_size = size;
  reply->map_epoch = monc_.epoch();
  reply->data = std::move(data);
  reply->trace = req->trace;  // the client messenger traces the reply dispatch
  if (op == nullptr) {
    req->connection->send_message(reply);
    return;
  }
  // Stamped once the reply is encoded, so the reply stage covers the
  // messenger's encode and crc of the payload.
  req->connection->send_message(reply, [this, op] {
    op->mark_event("reply_sent", env_.now());
    account_op(op);
  });
}

void OSD::throttle_client(const MessageRef& req, int counter, sim::Time recv) {
  counters_->inc(l_osd_op_throttled);
  counters_->inc(counter);
  if (req->trace.sampled()) {
    env_.tracer().record_span("osd.throttle", "osd." + std::to_string(cfg_.id),
                              req->trace, recv, env_.now());
  }
  auto reply = std::make_shared<msgr::MOSDOpReply>();
  reply->tid = req->tid;
  reply->result = -static_cast<std::int32_t>(Errc::throttled);
  reply->map_epoch = monc_.epoch();
  reply->retry_after_ns = static_cast<std::uint64_t>(kThrottleRetryDelay);
  reply->trace = req->trace;
  req->connection->send_message(reply);
}

void OSD::account_op(const TrackedOpRef& op) {
  const TrackedOp::StageBreakdown bd = op->stage_breakdown();
  counters_->inc(l_osd_op);
  counters_->rec(l_osd_op_lat, bd.total_ns);
  counters_->rec(l_osd_op_msgr_lat, bd.messenger_ns);
  counters_->rec(l_osd_op_queue_lat, bd.queue_ns);
  counters_->rec(l_osd_op_store_lat, bd.objectstore_ns);
  counters_->rec(l_osd_op_repl_lat, bd.replication_ns);
  counters_->rec(l_osd_op_reply_lat, bd.reply_ns);
  if (op->trace().sampled()) {
    // Retrospective per-stage children of osd.op, rebuilt from the same
    // clamped breakdown the histograms use: boundaries are cumulative, so
    // the stages tile [initiated, reply] exactly (exact-sum by construction).
    const std::string domain = "osd." + std::to_string(cfg_.id);
    auto& tr = env_.tracer();
    const std::int64_t t0 = op->initiated_at();
    const std::int64_t t1 = t0 + static_cast<std::int64_t>(bd.messenger_ns);
    const std::int64_t t2 = t1 + static_cast<std::int64_t>(bd.queue_ns);
    const std::int64_t t3 = t2 + static_cast<std::int64_t>(bd.objectstore_ns);
    const std::int64_t t4 = t3 + static_cast<std::int64_t>(bd.replication_ns);
    const std::int64_t t5 = t4 + static_cast<std::int64_t>(bd.reply_ns);
    tr.record_span("osd.stage.messenger", domain, op->trace(), t0, t1);
    tr.record_span("osd.stage.queue", domain, op->trace(), t1, t2);
    tr.record_span("osd.stage.store", domain, op->trace(), t2, t3);
    tr.record_span("osd.stage.replication", domain, op->trace(), t3, t4);
    tr.record_span("osd.stage.reply", domain, op->trace(), t4, t5);
    op->span().end(t5);
  }
  tracker_.finish_op(op, env_.now());
}

void OSD::ensure_pg_collection(const pg_t& pg, os::Transaction& txn) {
  const dbg::LockGuard lk(mutex_);
  if (created_colls_.contains(pg.to_coll())) return;
  os::Transaction pre;
  pre.create_collection(pg.to_coll());
  pre.append(std::move(txn));
  txn = std::move(pre);
  created_colls_.insert(pg.to_coll());
}

void OSD::handle_client_op(const MessageRef& m, const TrackedOpRef& tracked,
                           std::uint64_t ord) {
  auto* op = static_cast<msgr::MOSDOp*>(m.get());
  const crush::OSDMap map = monc_.map();
  const pg_t pg = map.object_to_pg(op->pool, op->object);
  const auto acting = map.pg_to_acting(pg);
  if (acting.empty() || acting.front() != cfg_.id) {
    // Not the primary (stale client map, or mid-failover).
    reply_client(m, -static_cast<std::int32_t>(Errc::busy), 0, 0, {}, tracked);
    return;
  }

  const os::ghobject_t oid{op->pool, op->object};
  switch (op->op) {
    case msgr::OsdOpType::write_full:
    case msgr::OsdOpType::write:
    case msgr::OsdOpType::remove:
      counters_->inc(l_osd_op_w);
      start_write(m, pg, acting, tracked);
      return;
    case msgr::OsdOpType::read: {
      counters_->inc(l_osd_op_r);
      // The PG stays "reading" until the callback: this worker returns to
      // the queue now, but no later write of the PG is dispatched before the
      // read has its bytes (DESIGN.md §15.1).
      {
        const dbg::LockGuard lk(queue_mutex_);
        ++reading_[ord];
      }
      // Runs on a device completion context, the proxy loop or inline:
      // short locks only, no CPU charge; the reply just goes to the messenger.
      auto on_read = [this, m, tracked, ord](Result<BufferList> r) {
        tracked->mark_event("commit", env_.now());  // read served by the store
        if (r.ok()) {
          ops_served_.fetch_add(1, std::memory_order_relaxed);
          counters_->inc(l_osd_op_out_bytes, r->length());
          reply_client(m, 0, 0, r->length(), std::move(*r), tracked);
        } else {
          reply_client(m, -static_cast<std::int32_t>(r.status().code()), 0, 0, {},
                       tracked);
        }
        const dbg::LockGuard lk(queue_mutex_);
        if (--reading_[ord] == 0) {
          reading_.erase(ord);
          queue_cv_.notify_all();  // release a write waiting on this PG's reads
        }
      };
      store_.read_async(pg.to_coll(), oid, op->offset, op->length,
                        dbg::gated(read_gate_, std::move(on_read)), tracked->trace());
      return;
    }
    case msgr::OsdOpType::stat: {
      counters_->inc(l_osd_op_r);
      auto r = store_.stat(pg.to_coll(), oid);
      tracked->mark_event("commit", env_.now());
      if (!r.ok()) {
        reply_client(m, -static_cast<std::int32_t>(r.status().code()), 0, 0, {},
                     tracked);
        return;
      }
      ops_served_.fetch_add(1, std::memory_order_relaxed);
      reply_client(m, 0, r->version, r->size, {}, tracked);
      return;
    }
  }
  reply_client(m, -static_cast<std::int32_t>(Errc::not_supported), 0, 0, {}, tracked);
}

void OSD::start_write(const MessageRef& m, const pg_t& pg,
                      const std::vector<int>& acting, const TrackedOpRef& tracked) {
  auto* op = static_cast<msgr::MOSDOp*>(m.get());
  const os::ghobject_t oid{op->pool, op->object};

  os::Transaction txn;
  switch (op->op) {
    case msgr::OsdOpType::write_full:
      txn.write_full(pg.to_coll(), oid, op->data);
      break;
    case msgr::OsdOpType::write:
      txn.write(pg.to_coll(), oid, op->offset, op->data);
      break;
    case msgr::OsdOpType::remove:
      txn.remove(pg.to_coll(), oid);
      break;
    default:
      reply_client(m, -static_cast<std::int32_t>(Errc::not_supported), 0, 0, {},
                   tracked);
      return;
  }
  // Travels inside the encoded transaction: replicas and (in DoCeph mode)
  // the host-side store attach their commit spans to this op's trace.
  txn.set_trace(tracked->trace());

  const std::uint64_t tid = next_tid_.fetch_add(1);
  {
    const dbg::LockGuard lk(mutex_);
    last_pg_write_[pg] = env_.now();
    InFlightOp inflight;
    inflight.client_msg = m;
    inflight.tracked = tracked;
    inflight.waiting_on.insert(-1);  // local commit
    for (const int r : acting) {
      if (r != cfg_.id) inflight.waiting_on.insert(r);
    }
    in_flight_[tid] = std::move(inflight);
  }

  // Replicate: the transaction (metadata + payload) to each replica.
  const crush::OSDMap map = monc_.map();
  BufferList txn_bl;
  txn.encode(txn_bl);
  for (const int r : acting) {
    if (r == cfg_.id) continue;
    auto con = msgr_.get_connection(map.osd(r).addr);
    if (con == nullptr) {
      const dbg::LockGuard lk(mutex_);
      in_flight_[tid].waiting_on.erase(r);
      continue;
    }
    auto repop = std::make_shared<msgr::MOSDRepOp>();
    repop->tid = tid;
    repop->pool = pg.pool;
    repop->pg_seed = pg.seed;
    repop->from_osd = cfg_.id;
    repop->map_epoch = map.epoch();
    repop->txn = txn_bl;
    repop->trace = tracked->trace();
    con->send_message(repop);
  }
  tracked->mark_event("sub_op_sent", env_.now());

  // Local apply (may prepend create_collection for this OSD only).
  ensure_pg_collection(pg, txn);
  tracked->mark_event("store_submit", env_.now());
  store_.queue_transaction(std::move(txn), [this, tid, tracked](Status st) {
    tracked->mark_event("commit", env_.now());
    {
      const dbg::LockGuard lk(mutex_);
      auto it = in_flight_.find(tid);
      if (it == in_flight_.end()) return;
      if (!st.ok()) it->second.result = -static_cast<std::int32_t>(st.code());
      it->second.waiting_on.erase(-1);
    }
    complete_if_done(tid);
  });
}

void OSD::complete_if_done(std::uint64_t tid) {
  MessageRef client_msg;
  TrackedOpRef tracked;
  std::int32_t result = 0;
  {
    const dbg::LockGuard lk(mutex_);
    auto it = in_flight_.find(tid);
    if (it == in_flight_.end() || !it->second.waiting_on.empty()) return;
    client_msg = it->second.client_msg;
    tracked = it->second.tracked;
    result = it->second.result;
    in_flight_.erase(it);
  }
  if (client_msg != nullptr) {
    ops_served_.fetch_add(1, std::memory_order_relaxed);
    reply_client(client_msg, result, 0, 0, {}, tracked);
  }
}

// ---- replica side ----------------------------------------------------------------

void OSD::handle_repop(const MessageRef& m) {
  auto* repop = static_cast<msgr::MOSDRepOp*>(m.get());
  os::Transaction txn;
  BufferList::Cursor cur(repop->txn);
  if (!txn.decode(cur)) {
    DLOG(warn, "osd") << "osd." << cfg_.id << " undecodable repop";
    return;
  }
  const pg_t pg{repop->pool, repop->pg_seed};
  {
    const dbg::LockGuard lk(mutex_);
    last_pg_write_[pg] = env_.now();
  }
  ensure_pg_collection(pg, txn);
  auto con = m->connection;
  const std::uint64_t tid = m->tid;
  const trace::TraceContext ctx = txn.trace();
  store_.queue_transaction(std::move(txn), [this, con, tid, ctx](Status st) {
    auto reply = std::make_shared<msgr::MOSDRepOpReply>();
    reply->tid = tid;
    reply->from_osd = cfg_.id;
    reply->result = st.ok() ? 0 : -static_cast<std::int32_t>(st.code());
    reply->trace = ctx;
    con->send_message(reply);
  });
}

void OSD::handle_repop_reply(const MessageRef& m) {
  auto* reply = static_cast<msgr::MOSDRepOpReply*>(m.get());
  TrackedOpRef tracked;
  {
    const dbg::LockGuard lk(mutex_);
    auto it = in_flight_.find(m->tid);
    if (it == in_flight_.end()) return;  // recovery push ack, or late reply
    if (reply->result != 0) it->second.result = reply->result;
    it->second.waiting_on.erase(reply->from_osd);
    tracked = it->second.tracked;
  }
  if (tracked != nullptr) tracked->mark_event("repl_ack", env_.now());
  complete_if_done(m->tid);
}

// ---- heartbeats ------------------------------------------------------------------

void OSD::handle_ping(const MessageRef& m) {
  auto* ping = static_cast<msgr::MOSDPing*>(m.get());
  if (ping->op == msgr::MOSDPing::Op::ping) {
    auto reply = std::make_shared<msgr::MOSDPing>();
    reply->op = msgr::MOSDPing::Op::reply;
    reply->from_osd = cfg_.id;
    reply->stamp_ns = ping->stamp_ns;
    m->connection->send_message(reply);
    return;
  }
  const dbg::LockGuard lk(mutex_);
  last_heard_[ping->from_osd] = env_.now();
}

void OSD::tick_thread() {
  sim::Time next_hb = env_.now();
  while (true) {
    {
      dbg::UniqueLock lk(tick_mutex_);
      (void)tick_cv_.wait_for(lk, cfg_.tick_interval);
      if (stopping_) return;
    }
    if (env_.now() >= next_hb) {
      do_heartbeats();
      next_hb = env_.now() + cfg_.heartbeat_interval;
    }
    check_recovery();
  }
}

void OSD::do_heartbeats() {
  const crush::OSDMap map = monc_.map();
  const sim::Time now = env_.now();
  for (int p = 0; p < map.num_osds(); ++p) {
    if (p == cfg_.id || !map.is_up(p)) continue;
    auto con = msgr_.get_connection(map.osd(p).addr);
    if (con != nullptr) {
      auto ping = std::make_shared<msgr::MOSDPing>();
      ping->op = msgr::MOSDPing::Op::ping;
      ping->from_osd = cfg_.id;
      ping->stamp_ns = now;
      con->send_message(ping);
    }
    // Grace check.
    bool report = false;
    {
      const dbg::LockGuard lk(mutex_);
      auto it = last_heard_.find(p);
      if (it == last_heard_.end()) {
        last_heard_[p] = now;
      } else if (now - it->second > cfg_.heartbeat_grace &&
                 !reported_.contains(p)) {
        reported_.insert(p);
        report = true;
      }
    }
    if (report) {
      DLOG(info, "osd") << "osd." << cfg_.id << " reporting osd." << p
                        << " as failed";
      (void)monc_.report_failure(p, cfg_.id);
    }
  }
}

// ---- recovery --------------------------------------------------------------------

bool OSD::all_clean() {
  const crush::epoch_t e = monc_.epoch();
  const dbg::LockGuard lk(mutex_);
  return last_seen_epoch_ == e && dirty_pgs_.empty();
}

void OSD::check_recovery() {
  const crush::OSDMap map = monc_.map();
  {
    const dbg::LockGuard lk(mutex_);
    if (map.epoch() != last_seen_epoch_) {
      last_seen_epoch_ = map.epoch();
      dirty_pgs_.clear();
      for (const auto& [pool_id, pool] : map.pools()) {
        for (std::uint32_t s = 0; s < pool.pg_num; ++s) {
          const pg_t pg{pool_id, s};
          // Recovery is driven by the AUTHORITATIVE acting member (longest
          // up), not necessarily the primary: a freshly rejoined primary has
          // stale data and must not push it over the survivor's.
          if (map.pg_authority(pg) == cfg_.id) dirty_pgs_.insert(pg);
        }
      }
    }
  }

  std::set<pg_t> todo;
  {
    const dbg::LockGuard lk(mutex_);
    todo = dirty_pgs_;
  }
  for (const auto& pg : todo) {
    const auto acting = map.pg_to_acting(pg);
    const auto* pool = map.pool(pg.pool);
    if (pool == nullptr) continue;
    if (acting.size() < pool->size) continue;  // degraded: wait for peers
    {
      // Defer while the PG is taking writes: the scan diff cannot tell
      // in-flight replication apart from loss, and pushing against live
      // traffic would thrash (and full-content scans are expensive).
      const dbg::LockGuard lk(mutex_);
      auto it = last_pg_write_.find(pg);
      if (it != last_pg_write_.end() &&
          env_.now() - it->second < cfg_.recovery_quiesce)
        continue;
    }
    recover_pg(pg, acting);
    if (monc_.epoch() != map.epoch()) return;  // map moved: restart next tick
  }
}

Result<std::vector<msgr::ObjectSummary>> OSD::scan_pg_local(const pg_t& pg) {
  std::vector<msgr::ObjectSummary> out;
  if (!store_.collection_exists(pg.to_coll())) return out;
  auto objects = store_.list_objects(pg.to_coll());
  if (!objects.ok()) return objects.status();
  for (const auto& oid : *objects) {
    auto content = store_.read(pg.to_coll(), oid, 0, 0);
    if (!content.ok()) continue;
    out.push_back({oid.name, content->length(), content->crc32c_verify()});
  }
  return out;
}

OSD::ScanHandle OSD::start_pg_scan(const pg_t& pg, int osd) {
  ScanHandle h;
  const crush::OSDMap map = monc_.map();
  if (!map.is_up(osd)) {
    h.error = Status(Errc::not_connected, "peer down");
    return h;
  }
  auto con = msgr_.get_connection(map.osd(osd).addr);
  if (con == nullptr) {
    h.error = Status(Errc::not_connected, "peer unreachable");
    return h;
  }
  auto scan = std::make_shared<msgr::MPGScan>();
  scan->tid = next_tid_.fetch_add(1);
  scan->pool = pg.pool;
  scan->pg_seed = pg.seed;
  h.tid = scan->tid;
  h.pending = std::make_shared<PendingScan>(env_.keeper());
  {
    const dbg::LockGuard lk(mutex_);
    pending_scans_[h.tid] = h.pending;
  }
  con->send_message(scan);
  return h;
}

Result<std::vector<msgr::ObjectSummary>> OSD::wait_pg_scan(ScanHandle& h) {
  if (h.pending == nullptr) return h.error;
  dbg::UniqueLock lk(mutex_);
  const bool ok = h.pending->cv.wait_until(lk, env_.now() + cfg_.heartbeat_grace,
                                           [&] { return h.pending->done; });
  pending_scans_.erase(h.tid);
  if (!ok) return Status(Errc::timed_out, "pg scan");
  return h.pending->objects;
}

void OSD::handle_pg_scan(const MessageRef& m) {
  auto* scan = static_cast<msgr::MPGScan*>(m.get());
  auto local = scan_pg_local(pg_t{scan->pool, scan->pg_seed});
  auto reply = std::make_shared<msgr::MPGScanReply>();
  reply->tid = m->tid;
  reply->pool = scan->pool;
  reply->pg_seed = scan->pg_seed;
  if (local.ok()) reply->objects = std::move(*local);
  m->connection->send_message(reply);
}

void OSD::handle_pg_scan_reply(const MessageRef& m) {
  auto* reply = static_cast<msgr::MPGScanReply*>(m.get());
  const dbg::LockGuard lk(mutex_);
  auto it = pending_scans_.find(m->tid);
  if (it == pending_scans_.end()) return;
  it->second->objects = std::move(reply->objects);
  it->second->done = true;
  it->second->cv.notify_all();
}

Status OSD::push_object(const pg_t& pg, int target, const std::string& name,
                        bool remove) {
  const crush::OSDMap map = monc_.map();
  if (!map.is_up(target)) return Status(Errc::not_connected, "peer down");
  auto con = msgr_.get_connection(map.osd(target).addr);
  if (con == nullptr) return Status(Errc::not_connected, "peer unreachable");

  const os::ghobject_t oid{pg.pool, name};
  os::Transaction txn;
  if (remove) {
    txn.remove(pg.to_coll(), oid);
  } else {
    auto content = store_.read(pg.to_coll(), oid, 0, 0);
    if (!content.ok()) return content.status();
    txn.write_full(pg.to_coll(), oid, std::move(*content));
  }
  auto repop = std::make_shared<msgr::MOSDRepOp>();
  repop->tid = next_tid_.fetch_add(1);
  repop->pool = pg.pool;
  repop->pg_seed = pg.seed;
  repop->from_osd = cfg_.id;
  repop->map_epoch = map.epoch();
  repop->recovery_push = true;
  txn.encode(repop->txn);
  con->send_message(repop);
  return Status::OK();
}

void OSD::recover_pg(const pg_t& pg, const std::vector<int>& acting) {
  auto local = scan_pg_local(pg);
  if (!local.ok()) return;
  std::map<std::string, msgr::ObjectSummary> mine;
  for (auto& o : *local) mine[o.name] = o;

  // Parallel scan fan-out: issue every peer's MPGScan up front, then
  // collect — mirroring the repop fan-out, recovery of a wide acting set
  // costs one scan round-trip instead of one sequential RTT per peer. With
  // a single remote peer (replicas=2, the paper testbed) the event
  // sequence is identical to the old sequential loop.
  std::vector<std::pair<int, ScanHandle>> scans;
  for (const int peer : acting) {
    if (peer == cfg_.id) continue;
    scans.emplace_back(peer, start_pg_scan(pg, peer));
  }

  bool clean = true;
  for (auto& [peer, handle] : scans) {
    auto remote = wait_pg_scan(handle);
    if (!remote.ok()) {
      clean = false;
      continue;
    }
    std::map<std::string, msgr::ObjectSummary> theirs;
    for (auto& o : *remote) theirs[o.name] = o;

    for (const auto& [name, summary] : mine) {
      auto it = theirs.find(name);
      if (it == theirs.end() || !(it->second == summary)) {
        clean = false;
        DLOG(info, "osd") << "osd." << cfg_.id << " pushing " << name << " to osd."
                          << peer;
        (void)push_object(pg, peer, name, /*remove=*/false);
      }
    }
    for (const auto& [name, summary] : theirs) {
      if (!mine.contains(name)) {
        clean = false;
        (void)push_object(pg, peer, name, /*remove=*/true);
      }
    }
  }
  if (clean) {
    const dbg::LockGuard lk(mutex_);
    dirty_pgs_.erase(pg);
  }
}

}  // namespace doceph::osd
