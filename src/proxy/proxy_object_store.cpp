#include "proxy/proxy_object_store.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>
#include <vector>

#include "dbg/cond_var.h"

namespace doceph::proxy {
namespace {

/// A control reply is [i32 result][payload]: the payload, or the host's error.
Result<BufferList> control_payload(const Result<BufferList>& r) {
  if (!r.ok()) return r.status();
  BufferList::Cursor cur(*r);
  std::int32_t result = 0;
  if (!decode(result, cur)) return Status(Errc::corrupt, "bad control reply");
  if (result != 0) return Status(static_cast<Errc>(-result), "host error");
  BufferList rest;
  (void)cur.get_buffer_list(cur.remaining(), rest);
  return rest;
}

/// The T a control reply's payload carries, or why there is none.
template <typename T>
Result<T> decode_payload(const Result<BufferList>& payload) {
  if (!payload.ok()) return payload.status();
  T v{};
  if (!decode_from_bl(v, *payload)) return Status(Errc::corrupt, "bad control reply");
  return v;
}

/// Whether the host store reads the object before it applies `txn`: there a
/// partial write, zero or truncate is a read-modify-write, which first waits
/// for the collection's earlier transactions (BlueStore::flush_collection).
bool reads_before_writing(const os::Transaction& txn) {
  return std::any_of(txn.ops().begin(), txn.ops().end(), [](const os::Transaction::Op& o) {
    return o.op == os::TxnOp::write || o.op == os::TxnOp::zero ||
           o.op == os::TxnOp::truncate;
  });
}

}  // namespace

ProxyObjectStore::ProxyObjectStore(sim::Env& env, dpu::DpuDevice& dpu, ProxyConfig cfg)
    : env_(env),
      dpu_(dpu),
      cfg_(cfg),
      rpc_(env, dpu.dpu_comch()),
      center_(env),
      arena_(env, cfg.slots, cfg.segment_size),
      fallback_(cfg.cooldown),
      counters_(perf::Builder("dpu", l_dpu_first, l_dpu_last)
                    .add_counter(l_dpu_writes, "writes")
                    .add_counter(l_dpu_dma_bytes, "dma_bytes")
                    .add_counter(l_dpu_rpc_fallback_bytes, "rpc_fallback_bytes")
                    .add_counter(l_dpu_rpc_timeout, "rpc_timeout")
                    .add_histogram(l_dpu_write_lat, "write_lat")
                    .add_histogram(l_dpu_dma_wait, "dma_wait")
                    .add_counter(l_dpu_throttle_queue, "throttle_queue")
                    .add_gauge(l_dpu_inflight, "inflight")
                    .add_gauge(l_dpu_inflight_hw, "inflight_hw")
                    .create()) {
  perf_.add(counters_);
}

ProxyObjectStore::~ProxyObjectStore() {  // NOLINT(bugprone-exception-escape): teardown must complete; a throw terminates, by design
  if (mounted_) (void)umount();
}

Status ProxyObjectStore::mount() {
  rpc_.start(center_);
  pump_thread_ = sim::Thread(env_.keeper(), env_.stats(), "dpu-proxy-ch",
                             &dpu_.cpu(), [this] { center_.run(); },
                             /*daemon=*/true);
  mounted_ = true;
  // Verify the channel end-to-end.
  auto r = control_call(ProxyOp::ping, {});
  if (!r.ok()) {
    (void)umount();
    return r.status();
  }
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
  return Status::OK();
}

Status ProxyObjectStore::umount() {
  if (!mounted_) return Status::OK();
  mounted_ = false;
  // Every write not yet committed and every read not yet complete fails
  // with shutting_down. stop() below lets the loop run this before it exits.
  center_.dispatch([this] {
    stopping_ = true;
    const Status st(Errc::shutting_down, "proxy umount");
    std::vector<OpRef> ops;
    for (const auto& [cid, q] : pgs_) ops.insert(ops.end(), q.begin(), q.end());
    for (const auto& op : ops) abort(op, st);
    for (const auto& rd : std::vector<ReadRef>(reads_.begin(), reads_.end()))
      finish_read(rd, st);
  });
  rpc_.detach();  // stop channel -> center dispatches before the center dies
  center_.stop();
  pump_thread_.join();
  admin_.unregister_all();
  return Status::OK();
}

// ---- write path -----------------------------------------------------------------

void ProxyObjectStore::queue_transaction(os::Transaction txn, OnCommit on_commit) {
  if (!mounted_) {
    if (on_commit) on_commit(Status(Errc::shutting_down, "proxy not mounted"));
    return;
  }
  const std::size_t n = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n > cfg_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    counters_->inc(l_dpu_throttle_queue);
    if (on_commit) on_commit(Status(Errc::throttled, "DPU proxy in-flight cap"));
    return;
  }
  counters_->set(l_dpu_inflight, n);
  if (n > counters_->get(l_dpu_inflight_hw)) counters_->set(l_dpu_inflight_hw, n);

  // Per-PG ordering keys on the collection of the first op. Everything past
  // this point runs on the loop thread, so none of it is booked to the
  // caller's (OSD) CPU.
  auto op = std::make_shared<WriteOp>();
  op->cid = txn.ops().empty() ? os::coll_t{} : txn.ops().front().cid;
  op->on_commit = std::move(on_commit);
  op->enqueued = env_.now();
  op->wire.meta = std::move(txn);
  center_.dispatch([this, op] { admit(op); });
}

void ProxyObjectStore::admit(const OpRef& op) {
  auto& q = pgs_[op->cid];
  q.push_back(op);
  if (stopping_)
    abort(op, Status(Errc::shutting_down, "proxy umount"));  // umount emptied pgs_
  else
    start_ready(q);
}

void ProxyObjectStore::start_ready(std::deque<OpRef>& q) {
  for (std::size_t i = 0; i < q.size(); ++i) {
    const OpRef op = q[i];
    if (!op->started) {
      // An RMW write waits until every earlier write of its PG has finished:
      // the host store's flush_collection would otherwise park the host
      // loop, which serves every PG of the node, for a whole commit.
      if (i > 0 && reads_before_writing(op->wire.meta)) return;
      start(op);  // a request that submits at once starts the next one itself
    }
    // No successor starts before this write's submit has left: it would
    // overtake this write at the host, or, held back with its DMA done,
    // keep arena bytes that this write's 2 MB segment needs in a
    // one-segment arena.
    if (op->submit_id == 0) return;
  }
}

void ProxyObjectStore::start(const OpRef& op) {
  op->started = true;
  // Detach bulk payloads from the transaction metadata, cut to the segment
  // size. Tiny requests are not worth a DMA round: they ride the control
  // channel. The rest is routed segment by segment in advance().
  auto& ops = op->wire.meta.ops();
  for (const auto& o : ops) op->total_bytes += o.data.length();
  const bool tiny = op->total_bytes <= kInlineMax;
  op->wire.parts.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const BufferList& data = ops[i].data;
    const std::size_t step = tiny ? data.length() : cfg_.segment_size;
    for (std::size_t off = 0; off < data.length(); off += step) {
      DataRef ref;
      ref.kind = tiny ? DataRef::Kind::inline_ : DataRef::Kind::staged;
      ref.data = data.substr(off, step);
      ref.len = static_cast<std::uint32_t>(ref.data.length());
      op->wire.parts[i].push_back(std::move(ref));
    }
    ops[i].data = BufferList{};
  }
  op->wire.token = next_token_.fetch_add(1);
  // The request-level DPU span: covers segmentation, DMA, and the host
  // commit round trip (open during the crash window, so a hard kill leaves
  // it partial in the flight recorder).
  op->write_span = env_.tracer().span("dpu.write", "dpu." + dpu_.name(),
                                      op->wire.meta.trace(), op->enqueued);
  op->deadline = center_.add_timer(cfg_.rpc_timeout, [this, op] {
    if (op->done) return;
    counters_->inc(l_dpu_rpc_timeout);
    abort(op, Status(Errc::timed_out, "DPU write request deadline"));
  });
  advance(op);
}

void ProxyObjectStore::advance(const OpRef& op, const Segment* done_seg) {
  while (!op->done && !op->reserving) {
    if (op->part == op->wire.parts.size()) {
      if (op->in_dma == 0 && op->submit_id == 0) return submit(op, done_seg);
      break;
    }
    if (op->ref == op->wire.parts[op->part].size()) {
      ++op->part;
      op->ref = 0;
      continue;
    }
    DataRef& ref = op->wire.parts[op->part][op->ref++];
    if (ref.kind == DataRef::Kind::inline_) continue;
    const auto path = fallback_.choose(env_.now());
    if (path == FallbackManager::Path::rpc) {
      ref.kind = DataRef::Kind::inline_;
      rpc_fallback_bytes_.fetch_add(ref.len, std::memory_order_relaxed);
      counters_->inc(l_dpu_rpc_fallback_bytes, ref.len);
      continue;
    }
    // Reserve the segment's bytes in the paired staging/write region.
    ref.index = op->next_seg++;
    Segment seg{.data = ref.data,
                .index = ref.index,
                .probing = path == FallbackManager::Path::probe};
    op->reserving = true;
    ++op->in_dma;
    arena_.reserve_async(
        ref.len, [this, op, seg, asked = env_.now()](std::size_t off) mutable {
          seg.off = off;
          center_.dispatch([this, op, seg, asked] { on_reserved(op, seg, asked); });
        });
  }
  // Not the last segment: its handoff goes alone.
  if (done_seg != nullptr) {
    RpcChannel::Call stage = stage_call(op, *done_seg);
    const std::uint64_t id =
        rpc_.call_async(std::move(stage.request), std::move(stage.cb), stage.ctx);
    op->rpcs[done_seg->index] = {.id = id, .seg = *done_seg};
  }
}

void ProxyObjectStore::on_reserved(const OpRef& op, const Segment& seg, sim::Time asked) {
  op->reserving = false;
  // Waits once the first segment is in flight fall inside the DMA phase,
  // whose serialization remainder already counts them.
  if (op->first_submit < 0) op->dma_wait += env_.now() - asked;
  if (op->done) {
    // The request died while it waited: the extent goes back, and a probe
    // that never reached the engine is handed back to the fallback manager.
    arena_.release(seg.off, seg.data.length());
    if (seg.probing) fallback_.on_probe_abandoned();
    return;
  }
  stage(op, seg);
}

RpcChannel::ResponseCb ProxyObjectStore::on_loop(Reply then) {
  return [this, seq = ++loop_calls_, then = std::move(then)](Result<BufferList> r) {
    center_.dispatch([this, seq, then, r = std::move(r)] {
      if (r.ok()) release_quarantine(seq);
      then(r);
    });
  };
}

RpcChannel::Call ProxyObjectStore::stage_call(const OpRef& op, const Segment& seg) {
  // Hand the extent's content to the host's per-request write buffer; the
  // bytes recycle as soon as the host acks the copy (Fig. 4).
  BufferList request;
  encode(ProxyOp::stage_segment, request);
  StageSegment{.token = op->wire.token,
               .seg_index = seg.index,
               .off = static_cast<std::uint32_t>(seg.off),
               .len = static_cast<std::uint32_t>(seg.data.length())}
      .encode(request);
  return {.request = std::move(request),
          .cb = on_loop([this, op, seg](const Result<BufferList>& r) {
            // A withdrawn call has no entry left: its extent is handled.
            if (op->rpcs.erase(seg.index) != 0) on_stage_ack(op, seg, r);
          }),
          .ctx = op->wire.meta.trace()};
}

void ProxyObjectStore::stage(const OpRef& op, const Segment& seg) {
  // Stage: copy the payload into the DMA-capable buffer.
  const std::size_t len = seg.data.length();
  const doca::Buf src = arena_.dpu_buf(seg.off, len);
  seg.data.copy_out(0, len, src.data());
  dpu_.cpu().charge(static_cast<sim::Duration>(cfg_.stage_copy_ns_per_byte *
                                               static_cast<double>(len)));
  if (op->first_submit < 0) op->first_submit = env_.now();
  // The completion arrives on the engine's thread; it only hops to the loop.
  const Status submitted = dpu_.dma().submit(
      src, arena_.host_buf(seg.off, len), doca::DmaDir::dpu_to_host,
      [this, loop = center_.handle(), op, seg](Status st) {
        loop.dispatch([this, op, seg, st] { on_dma_done(op, seg, st); });
      },
      op->wire.meta.trace());
  if (!submitted.ok()) {
    --op->in_dma;
    fallback_.on_dma_failure(env_.now());
    segment_done(op, seg, /*failed=*/true);
    return;
  }
  dma_bytes_.fetch_add(len, std::memory_order_relaxed);
  counters_->inc(l_dpu_dma_bytes, len);
  op->dma_bytes += len;
  advance(op);
}

void ProxyObjectStore::on_dma_done(const OpRef& op, Segment seg, const Status& st) {
  op->last_complete = env_.now();
  --op->in_dma;
  if (!st.ok()) {
    fallback_.on_dma_failure(env_.now());
    segment_done(op, seg, /*failed=*/true);
    return;
  }
  if (seg.probing) fallback_.on_dma_success();
  seg.probing = false;  // settled by this transfer
  if (op->done) {
    arena_.release(seg.off, seg.data.length());  // the request already failed
    return;
  }
  advance(op, &seg);
}

void ProxyObjectStore::on_stage_ack(const OpRef& op, const Segment& seg,
                                    const Result<BufferList>& r) {
  bool failed = !r.ok();
  if (r.ok()) {
    BufferList::Cursor cur(*r);
    std::int32_t res = 0;
    failed = !decode(res, cur) || res != 0;
  }
  segment_done(op, seg, failed);
}

void ProxyObjectStore::segment_done(const OpRef& op, const Segment& seg, bool failed) {
  arena_.release(seg.off, seg.data.length());
  if (op->done) return;
  if (failed) op->failed_segs.insert(seg.index);
  advance(op);
}

void ProxyObjectStore::withdraw_segments(const OpRef& op, bool host_past) {
  bool held = false;
  for (auto it = op->rpcs.begin(); it != op->rpcs.end();) {
    // A call whose cancel loses the race with its response keeps its
    // entry: that response's handler gives the extent back.
    if (!rpc_.cancel(it->second.id)) {
      ++it;
      continue;
    }
    const Segment& seg = it->second.seg;
    if (!host_past) {
      quarantine_.push_back(
          {.after = loop_calls_, .off = seg.off, .len = seg.data.length()});
      held = true;
    } else {
      arena_.release(seg.off, seg.data.length());
    }
    it = op->rpcs.erase(it);
  }
  if (!held) return;
  // Ask for a response to a request issued now, so the quarantine ends
  // even if no other traffic follows.
  BufferList ping;
  encode(ProxyOp::ping, ping);
  (void)rpc_.call_async(std::move(ping), on_loop([](const Result<BufferList>&) {}));
}

void ProxyObjectStore::release_quarantine(std::uint64_t seq) {
  while (!quarantine_.empty() && quarantine_.front().after < seq) {
    arena_.release(quarantine_.front().off, quarantine_.front().len);
    quarantine_.pop_front();
  }
}

void ProxyObjectStore::submit(const OpRef& op, const Segment* last_seg) {
  if (!op->failed_segs.empty()) {
    // Fallback (paper §4): a segment whose transfer or handoff failed is
    // re-sent inline over RPC; the host already holds every other staged
    // segment (the cooldown routes subsequent traffic over RPC anyway).
    for (auto& part : op->wire.parts) {
      for (auto& ref : part) {
        if (ref.kind != DataRef::Kind::staged || !op->failed_segs.contains(ref.index))
          continue;
        ref.kind = DataRef::Kind::inline_;
        rpc_fallback_bytes_.fetch_add(ref.len, std::memory_order_relaxed);
        counters_->inc(l_dpu_rpc_fallback_bytes, ref.len);
      }
    }
  }

  // Ship the transaction (metadata + refs); the reply is the host commit.
  // The RPC span's context travels in the fragment headers, so the host
  // backend parents its commit span under this one.
  BufferList request;
  encode(ProxyOp::submit_txn, request);
  op->wire.encode(request);
  op->rpc_span = env_.tracer().span("dpu.rpc.submit_txn", "dpu." + dpu_.name(),
                                    op->write_span.context(), env_.now());
  RpcChannel::Call submit_call{
      .request = std::move(request),
      .cb = on_loop([this, op](const Result<BufferList>& r) { on_txn_reply(op, r); }),
      .ctx = op->rpc_span.context()};
  if (last_seg == nullptr) {
    op->submit_id = rpc_.call_async(std::move(submit_call.request),
                                    std::move(submit_call.cb), submit_call.ctx);
  } else {
    // The last segment's handoff rides in the submit's message, ahead of it:
    // the host copies the extent before it assembles the transaction.
    std::vector<RpcChannel::Call> calls;
    calls.push_back(stage_call(op, *last_seg));
    calls.push_back(std::move(submit_call));
    const auto ids = rpc_.call_together(std::move(calls));
    op->rpcs[last_seg->index] = {.id = ids[0], .seg = *last_seg};
    op->submit_id = ids[1];
  }
  // The submit has left: the PG's next write may start. Comch is FIFO and
  // the host store sequences each collection's transactions, so the PG's
  // commits still come back in submit order.
  start_ready(pgs_.find(op->cid)->second);
}

void ProxyObjectStore::on_txn_reply(const OpRef& op, const Result<BufferList>& response) {
  if (op->done) return;
  // Every stage frame went out ahead of the submit: once its response has
  // come, the host has copied them all (their acks normally came first).
  withdraw_segments(op, /*host_past=*/response.ok());
  op->rpc_span.end(env_.now());
  Status st;
  TxnReply reply;
  if (!response.ok()) {
    st = response.status();
  } else {
    BufferList::Cursor cur(*response);
    if (!reply.decode(cur)) {
      st = Status(Errc::corrupt, "bad txn reply");
    } else {
      host_fullness_permille_.store(reply.fullness_permille,
                                    std::memory_order_relaxed);
      if (reply.result != 0)
        st = Status(static_cast<Errc>(-reply.result), "host backend error");
    }
  }

  // Table 3 tracks client *write* requests; metadata-only transactions
  // (collection creates etc.) are not part of the taxonomy. The DMA phase
  // splits into transfer time (job setup + bytes/bandwidth, the paper's
  // "actual data transfer time") and DMA-wait (region reservation + the
  // serialization remainder of the phase's wall time).
  if (op->total_bytes > 0) {
    const auto& dma_cfg = dpu_.dma().config();
    std::uint64_t dma_transfer = 0;
    if (op->first_submit >= 0) {
      dma_transfer = static_cast<std::uint64_t>(dma_cfg.setup_latency) +
                     static_cast<std::uint64_t>(
                         sim::transfer_time(op->dma_bytes, dma_cfg.bw_bytes_per_sec));
    }
    std::uint64_t phase_wall = 0;
    if (op->first_submit >= 0 && op->last_complete > op->first_submit)
      phase_wall = static_cast<std::uint64_t>(op->last_complete - op->first_submit);
    const std::uint64_t serialization =
        phase_wall > dma_transfer ? phase_wall - dma_transfer : 0;
    const auto total = static_cast<std::uint64_t>(env_.now() - op->enqueued);
    const auto dma_wait = static_cast<std::uint64_t>(op->dma_wait) + serialization;

    counters_->inc(l_dpu_writes);
    counters_->rec(l_dpu_write_lat, total);
    counters_->rec(l_dpu_dma_wait, dma_wait);

    const dbg::LockGuard lk(bd_mutex_);
    bd_.count++;
    bd_.total_ns += total;
    bd_.dma_ns += dma_transfer;
    bd_.dma_wait_ns += dma_wait;
    bd_.host_write_ns += static_cast<std::uint64_t>(std::max<std::int64_t>(
        reply.host_write_ns, 0));
  }
  finish(op, st);
}

void ProxyObjectStore::abort(const OpRef& op, const Status& st) {
  op->done = true;
  // Withdraw every RPC still pending. An extent whose DMA job is still
  // running comes back from on_dma_done.
  withdraw_segments(op, /*host_past=*/false);
  if (op->submit_id != 0) (void)rpc_.cancel(op->submit_id);
  // The host drops any segments already staged under this token.
  BufferList abort_req;
  encode(ProxyOp::abort_txn, abort_req);
  encode(op->wire.token, abort_req);
  (void)rpc_.notify(std::move(abort_req), op->wire.meta.trace());
  finish(op, st);
}

void ProxyObjectStore::finish(const OpRef& op, const Status& st) {
  op->done = true;
  (void)center_.cancel_timer(op->deadline);
  op->rpc_span.end(env_.now());
  op->write_span.end(env_.now());
  counters_->set(l_dpu_inflight, inflight_.fetch_sub(1, std::memory_order_relaxed) - 1);

  auto q = pgs_.find(op->cid);
  auto& fifo = q->second;
  const auto at = std::find(fifo.begin(), fifo.end(), op);
  // A read waits for commits, not submits: the reads behind a write that
  // finishes before an earlier write of its PG (a host error) pass to the
  // nearest earlier unfinished one.
  if (at != fifo.begin()) {
    auto& prev = (*std::prev(at))->reads_behind;
    prev.insert(prev.end(), op->reads_behind.begin(), op->reads_behind.end());
    op->reads_behind.clear();
  }
  fifo.erase(at);
  if (fifo.empty()) pgs_.erase(q);
  if (op->on_commit) op->on_commit(st);
  // Writes that waited for this one (an RMW write, or any write behind one
  // that never submitted) may start now.
  q = pgs_.find(op->cid);
  if (q != pgs_.end() && !stopping_) start_ready(q->second);
  for (const auto& rd : op->reads_behind) start_read(rd);
}

// ---- control plane ----------------------------------------------------------------

Result<BufferList> ProxyObjectStore::control_call(ProxyOp op, const BufferList& body) {
  // A blocking call on the loop thread waits for a response only that
  // thread can deliver.
  assert(!center_.in_loop_thread());
  BufferList request;
  encode(op, request);
  request.append(body);
  auto r = rpc_.call(std::move(request), cfg_.rpc_timeout);
  if (!r.ok() && r.status().code() == Errc::timed_out)
    counters_->inc(l_dpu_rpc_timeout);
  return control_payload(r);
}

// ---- read path ------------------------------------------------------------------

Result<BufferList> ProxyObjectStore::read(const os::coll_t& c, const os::ghobject_t& o,
                                          std::uint64_t off, std::uint64_t len,
                                          const trace::TraceContext& ctx) {
  assert(!center_.in_loop_thread());
  return dbg::await<Result<BufferList>>(
      env_.keeper(), "proxy.read_wait",
      [&](OnRead done) { read_async(c, o, off, len, std::move(done), ctx); });
}

void ProxyObjectStore::read_async(const os::coll_t& c, const os::ghobject_t& o,
                                  std::uint64_t off, std::uint64_t len, OnRead on_read,
                                  const trace::TraceContext& ctx) {
  if (!mounted_) return on_read(Status(Errc::shutting_down, "proxy not mounted"));
  auto rd = std::make_shared<ReadOp>();
  rd->rr = ReadRequest{.cid = c, .oid = o, .off = off, .len = len};
  rd->on_read = std::move(on_read);
  rd->span = env_.tracer().span("dpu.read", "dpu." + dpu_.name(), ctx, env_.now());
  center_.dispatch([this, rd] { admit_read(rd); });
}

void ProxyObjectStore::admit_read(const ReadRef& rd) {
  // The PG's writes queued so far were submitted before this read: wait for
  // the last of them, or the read can reach the host first.
  const auto q = pgs_.find(rd->rr.cid);
  if (q == pgs_.end() || stopping_) return start_read(rd);
  q->second.back()->reads_behind.push_back(rd);
}

void ProxyObjectStore::start_read(const ReadRef& rd) {
  if (stopping_) return finish_read(rd, Status(Errc::shutting_down, "proxy umount"));
  reads_.insert(rd);
  rd->deadline = center_.add_timer(cfg_.rpc_timeout, [this, rd] {
    if (rd->done) return;
    counters_->inc(l_dpu_rpc_timeout);
    finish_read(rd, Status(Errc::timed_out, "DPU read request deadline"));
  });
  if (!fallback_.dma_enabled()) {
    rd->rr.inline_max = std::numeric_limits<std::uint64_t>::max();
    return send_read(rd);
  }
  if (rd->rr.len > 0) return reserve_read(rd, rd->rr.len);
  // A read to the object's end learns the object's size first, so that it
  // claims only the bytes it will fill rather than the whole arena.
  BufferList request;
  encode(ProxyOp::stat, request);
  rd->rr.cid.encode(request);
  rd->rr.oid.encode(request);
  rd->call_id = rpc_.call_async(
      std::move(request), on_loop([this, rd](const Result<BufferList>& r) {
        rd->call_id = 0;
        if (rd->done) return;
        const auto info = decode_payload<os::ObjectInfo>(control_payload(r));
        if (!info.ok()) return finish_read(rd, info.status());
        reserve_read(rd, info->size > rd->rr.off ? info->size - rd->rr.off : 0);
      }),
      rd->span.context());
}

void ProxyObjectStore::reserve_read(const ReadRef& rd, std::uint64_t len) {
  // A reply this small rides inline anyway. Otherwise offer one landing
  // extent for the bulk path (host-side staging); whatever does not fit a
  // paired extent rides inline. The paired region is not touched until the
  // host has filled the landing.
  if (len <= kInlineMax) return send_read(rd);
  const std::size_t want = std::min<std::uint64_t>(len, arena_.capacity());
  arena_.reserve_landing_async(want, [this, rd, want](std::size_t off) {
    center_.dispatch([this, rd, off, want] {
      if (rd->done) return arena_.release_landing(off, want);
      rd->rr.buf_off = static_cast<std::uint32_t>(off);
      rd->rr.buf_len = static_cast<std::uint32_t>(want);
      send_read(rd);
    });
  });
}

void ProxyObjectStore::send_read(const ReadRef& rd) {
  BufferList request;
  encode(ProxyOp::read_obj, request);
  rd->rr.encode(request);
  rd->call_id = rpc_.call_async(
      std::move(request),
      on_loop([this, rd](const Result<BufferList>& r) { on_read_reply(rd, r); }),
      rd->span.context());
}

void ProxyObjectStore::on_read_reply(const ReadRef& rd,
                                     const Result<BufferList>& response) {
  rd->call_id = 0;
  if (rd->done) return;
  if (!response.ok()) return finish_read(rd, response.status());
  ReadReply reply;
  BufferList::Cursor cur(*response);
  if (!reply.decode(cur)) return finish_read(rd, Status(Errc::corrupt, "bad read reply"));
  if (reply.result != 0)
    return finish_read(rd, Status(static_cast<Errc>(-reply.result), "host read error"));
  if (reply.inline_data) return finish_read(rd, std::move(reply.data));

  // The filled part of the landing extent, measured from its start, sizes
  // the DMA leg's paired extent.
  const ReadRequest& rr = rd->rr;
  std::size_t filled = 0;
  for (const auto& ref : reply.refs) {
    if (ref.kind == DataRef::Kind::inline_) continue;
    if (rr.buf_len == 0 || ref.index < rr.buf_off ||
        std::uint64_t{ref.index} + ref.len > std::uint64_t{rr.buf_off} + rr.buf_len)
      return finish_read(rd, Status(Errc::corrupt, "read ref outside the extent"));
    filled = std::max<std::size_t>(filled, ref.index - rr.buf_off + ref.len);
  }
  rd->refs = std::move(reply.refs);
  if (filled == 0) return on_read_extent(rd, 0, 0);
  // The DMA leg joins the paired region's FIFO with the write segments.
  arena_.reserve_async(filled, [this, rd, filled](std::size_t off) {
    center_.dispatch([this, rd, off, filled] {
      if (rd->done) return arena_.release(off, filled);
      on_read_extent(rd, off, filled);
    });
  });
}

void ProxyObjectStore::on_read_extent(const ReadRef& rd, std::size_t off,
                                      std::size_t len) {
  rd->dpu_off = off;
  rd->dpu_len = len;
  // DMA the landing into the paired extent (host -> DPU) in engine-sized
  // jobs. The completions arrive on the engine's thread and only hop to the
  // loop. The count held across the loop completes the read below if no
  // job started.
  ++rd->dma_pending;
  for (const auto& ref : rd->refs) {
    if (ref.kind == DataRef::Kind::inline_) continue;
    for (std::size_t done = 0; done < ref.len && rd->dma_status.ok();
         done += cfg_.segment_size) {
      const std::size_t n = std::min<std::size_t>(cfg_.segment_size, ref.len - done);
      rd->dma_status = dpu_.dma().submit(
          arena_.host_buf(ref.index + done, n),
          arena_.dpu_buf(rd->dpu_at(ref) + done, n), doca::DmaDir::host_to_dpu,
          [this, loop = center_.handle(), rd](Status st) {
            loop.dispatch([this, rd, st] { on_read_dma(rd, st); });
          },
          rd->span.context());
      if (rd->dma_status.ok()) ++rd->dma_pending;
    }
  }
  on_read_dma(rd, Status::OK());
}

void ProxyObjectStore::on_read_dma(const ReadRef& rd, const Status& st) {
  if (!st.ok() && rd->dma_status.ok()) rd->dma_status = st;
  if (--rd->dma_pending > 0) return;
  if (rd->done) return release_extents(rd);  // failed meanwhile; held for the jobs
  if (!rd->dma_status.ok()) {
    // A DMA error mid-read falls back like the write path (§4.5): every job
    // submitted has finished, so withdraw both extents and ask once more
    // with the whole result inline. Not through start_read(): with
    // cooldown 0 that would pick DMA again.
    release_extents(rd);
    fallback_.on_dma_failure(env_.now());
    rd->rr.inline_max = std::numeric_limits<std::uint64_t>::max();
    rd->retried = true;
    rd->dma_status = Status::OK();
    return send_read(rd);
  }
  BufferList out;
  for (const auto& ref : rd->refs) {
    if (ref.kind == DataRef::Kind::inline_) {
      out.append(ref.data);
      continue;
    }
    out.append(arena_.dpu_buf(rd->dpu_at(ref), ref.len).data(), ref.len);
    dpu_.cpu().charge(static_cast<sim::Duration>(cfg_.stage_copy_ns_per_byte *
                                                 static_cast<double>(ref.len)));
  }
  finish_read(rd, std::move(out));
}

void ProxyObjectStore::release_extents(const ReadRef& rd) {
  if (rd->rr.buf_len != 0) arena_.release_landing(rd->rr.buf_off, rd->rr.buf_len);
  if (rd->dpu_len != 0) arena_.release(rd->dpu_off, rd->dpu_len);
  rd->rr.buf_len = 0;
  rd->dpu_len = 0;
}

void ProxyObjectStore::finish_read(const ReadRef& rd, Result<BufferList> r) {
  rd->done = true;
  (void)center_.cancel_timer(rd->deadline);
  if (rd->call_id != 0) (void)rpc_.cancel(rd->call_id);
  // Extents under a running DMA job come back when the job finishes; a
  // paired extent still queued for comes back when it is granted.
  if (rd->dma_pending == 0) release_extents(rd);
  reads_.erase(rd);
  if (rd->retried && r.ok()) {
    rpc_fallback_bytes_.fetch_add(r->length(), std::memory_order_relaxed);
    counters_->inc(l_dpu_rpc_fallback_bytes, r->length());
  }
  rd->span.end(env_.now());
  rd->on_read(std::move(r));
}

Result<os::ObjectInfo> ProxyObjectStore::stat(const os::coll_t& c,
                                              const os::ghobject_t& o) {
  return decode_payload<os::ObjectInfo>(
      control_call(ProxyOp::stat, encode_to_bl(std::pair(c, o))));
}

bool ProxyObjectStore::exists(const os::coll_t& c, const os::ghobject_t& o) {
  const auto r =
      decode_payload<bool>(control_call(ProxyOp::exists, encode_to_bl(std::pair(c, o))));
  return r.ok() && *r;
}

Result<std::map<std::string, BufferList>> ProxyObjectStore::omap_get(
    const os::coll_t& c, const os::ghobject_t& o) {
  return decode_payload<std::map<std::string, BufferList>>(
      control_call(ProxyOp::omap_get, encode_to_bl(std::pair(c, o))));
}

Result<std::vector<os::ghobject_t>> ProxyObjectStore::list_objects(const os::coll_t& c) {
  return decode_payload<std::vector<os::ghobject_t>>(
      control_call(ProxyOp::list_objects, encode_to_bl(c)));
}

std::vector<os::coll_t> ProxyObjectStore::list_collections() {
  auto r = decode_payload<std::vector<os::coll_t>>(
      control_call(ProxyOp::list_collections, {}));
  return r.ok() ? std::move(*r) : std::vector<os::coll_t>{};
}

bool ProxyObjectStore::collection_exists(const os::coll_t& c) {
  const auto r =
      decode_payload<bool>(control_call(ProxyOp::coll_exists, encode_to_bl(c)));
  return r.ok() && *r;
}

BreakdownSnapshot ProxyObjectStore::breakdown() const {
  const dbg::LockGuard lk(bd_mutex_);
  return bd_;
}

void ProxyObjectStore::reset_breakdown() {
  const dbg::LockGuard lk(bd_mutex_);
  bd_ = BreakdownSnapshot{};
}

}  // namespace doceph::proxy
