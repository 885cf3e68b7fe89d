#include "proxy/proxy_object_store.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>

#include "common/logger.h"
#include "common/shard.h"

namespace doceph::proxy {

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
                    .add_counter(l_dpu_throttle_slot, "throttle_slot")
                    .add_gauge(l_dpu_worker_queue_depth, "worker_queue_depth")
                    .add_gauge(l_dpu_worker_queue_depth_hw, "worker_queue_depth_hw")
                    .create()) {
  queues_.reserve(static_cast<std::size_t>(cfg_.write_workers));
  for (int i = 0; i < cfg_.write_workers; ++i) {
    auto q = std::make_unique<WorkerQueue>();
    q->cv = std::make_unique<dbg::CondVar>(env.keeper(), "proxy.queue_cv");
    queues_.push_back(std::move(q));
  }
  perf_.add(counters_);
}

ProxyObjectStore::~ProxyObjectStore() {  // NOLINT(bugprone-exception-escape): teardown must complete; a throw terminates, by design
  if (mounted_) (void)umount();
}

Status ProxyObjectStore::mount() {
  rpc_.start(center_);
  stopping_ = false;
  pump_thread_ = sim::Thread(env_.keeper(), env_.stats(), "dpu-proxy-ch",
                             &dpu_.cpu(), [this] { center_.run(); },
                             /*daemon=*/true);
  for (int i = 0; i < cfg_.write_workers; ++i) {
    workers_.emplace_back(env_.keeper(), env_.stats(),
                          "dpu-dma-pipe-" + std::to_string(i), &dpu_.cpu(),
                          [this, i] { write_worker(i); }, /*daemon=*/true);
  }
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
  std::vector<WriteReq> orphans;
  for (auto& q : queues_) {
    const dbg::LockGuard lk(q->m);
    for (auto& req : q->q) orphans.push_back(std::move(req));
    q->q.clear();
  }
  queued_writes_.fetch_sub(static_cast<std::int64_t>(orphans.size()),
                           std::memory_order_relaxed);
  stopping_ = true;
  for (auto& q : queues_) {
    const dbg::LockGuard lk(q->m);
    q->cv->notify_all();
  }
  workers_.clear();
  rpc_.detach();  // stop channel -> center dispatches before the center dies
  center_.stop();
  pump_thread_.join();
  for (auto& req : orphans) {
    if (req.on_commit) req.on_commit(Status(Errc::shutting_down, "proxy umount"));
  }
  admin_.unregister_all();
  return Status::OK();
}

// ---- write path -----------------------------------------------------------------

void ProxyObjectStore::queue_transaction(os::Transaction txn, OnCommit on_commit) {
  if (!mounted_) {
    if (on_commit) on_commit(Status(Errc::shutting_down, "proxy not mounted"));
    return;
  }
  // Per-collection ordering: requests for one PG always land on one worker.
  // Uses the same PG hash as the OSD op lanes (common::shard_of_pg), so a
  // PG's proxy worker and its OSD lane agree across the offload boundary.
  const os::coll_t cid = txn.ops().empty() ? os::coll_t{} : txn.ops().front().cid;
  const std::size_t idx = common::shard_of_pg(cid.pool, cid.pg_seed, queues_.size());
  auto& q = *queues_[idx];
  bool bounced = false;
  {
    const dbg::LockGuard lk(q.m);
    if (cfg_.max_worker_queue > 0 && q.q.size() >= cfg_.max_worker_queue) {
      bounced = true;  // complete below, outside the queue lock
    } else {
      q.q.push_back(WriteReq{std::move(txn), std::move(on_commit), env_.now()});
      q.cv->notify_one();
    }
  }
  if (bounced) {
    counters_->inc(l_dpu_throttle_queue);
    if (on_commit) on_commit(Status(Errc::throttled, "DPU worker queue full"));
    return;
  }
  const auto depth = static_cast<std::uint64_t>(
      queued_writes_.fetch_add(1, std::memory_order_relaxed) + 1);
  counters_->set(l_dpu_worker_queue_depth, depth);
  if (depth > counters_->get(l_dpu_worker_queue_depth_hw))
    counters_->set(l_dpu_worker_queue_depth_hw, depth);
}

void ProxyObjectStore::write_worker(int idx) {
  auto& q = *queues_[static_cast<std::size_t>(idx)];
  while (true) {
    WriteReq req;
    {
      dbg::UniqueLock lk(q.m);
      q.cv->wait(lk, [&] {
        q.m.assert_held();  // predicate runs as a separate function
        return stopping_.load() || !q.q.empty();
      });
      if (stopping_.load()) return;
      req = std::move(q.q.front());
      q.q.pop_front();
    }
    counters_->set(
        l_dpu_worker_queue_depth,
        static_cast<std::uint64_t>(std::max<std::int64_t>(
            queued_writes_.fetch_sub(1, std::memory_order_relaxed) - 1, 0)));
    process_write(std::move(req));
  }
}

DataRef ProxyObjectStore::move_segment(BufferList seg,
                                       const std::shared_ptr<SegCtx>& ctx) {
  const auto path = fallback_.choose(env_.now());
  if (path == FallbackManager::Path::rpc) {
    rpc_fallback_bytes_.fetch_add(seg.length(), std::memory_order_relaxed);
    counters_->inc(l_dpu_rpc_fallback_bytes, seg.length());
    DataRef ref;
    ref.kind = DataRef::Kind::inline_;
    ref.len = static_cast<std::uint32_t>(seg.length());
    ref.data = std::move(seg);
    return ref;
  }

  // Reserve the segment's bytes in the paired staging/write region; blocked
  // time is DMA-wait. With a deadline configured, starvation surfaces as a
  // throttled txn instead of wedging this worker behind a saturated DMA
  // pipeline.
  const std::size_t len = seg.length();
  const sim::Time w0 = env_.now();
  std::size_t off = 0;
  if (cfg_.slot_acquire_timeout > 0) {
    const auto reserved = arena_.reserve_for(len, cfg_.slot_acquire_timeout);
    {
      const dbg::LockGuard lk(ctx->m);
      ctx->dma_wait += env_.now() - w0;
    }
    if (!reserved) {
      counters_->inc(l_dpu_throttle_slot);
      const dbg::LockGuard lk(ctx->m);
      ctx->slot_timed_out = true;
      DataRef ref;  // placeholder; process_write aborts the whole request
      ref.kind = DataRef::Kind::inline_;
      ref.len = static_cast<std::uint32_t>(len);
      ref.data = std::move(seg);
      return ref;
    }
    off = *reserved;
  } else {
    off = arena_.reserve(len);
    const dbg::LockGuard lk(ctx->m);
    ctx->dma_wait += env_.now() - w0;
  }

  if (!cfg_.mr_cache) {
    // Without the MR cache each transfer renegotiates its memory region
    // over the CommChannel (one round trip).
    (void)control_call(ProxyOp::ping, {});
  }

  // Stage: copy the payload into the DMA-capable buffer.
  const std::uint32_t seg_index = ctx->next_seg++;
  doca::Buf src = arena_.dpu_buf(off, len);
  seg.copy_out(0, len, src.data());
  dpu_.cpu().charge(static_cast<sim::Duration>(cfg_.stage_copy_ns_per_byte *
                                               static_cast<double>(len)));

  doca::Buf dst = arena_.host_buf(off, len);
  const bool probing = path == FallbackManager::Path::probe;
  const auto seg_len = static_cast<std::uint32_t>(len);
  {
    const dbg::LockGuard lk(ctx->m);
    ++ctx->outstanding;
    if (ctx->first_submit < 0) ctx->first_submit = env_.now();
  }

  auto finish_segment = [this, ctx, off, len](bool failed) {
    arena_.release(off, len);
    const dbg::LockGuard lk(ctx->m);
    if (failed) ctx->any_failed = true;
    --ctx->outstanding;
    ctx->cv.notify_all();
  };

  const Status submitted = dpu_.dma().submit(
      src, dst, doca::DmaDir::dpu_to_host,
      [this, ctx, off, seg_index, seg_len, probing,
       finish_segment](Status st) {
        ctx->last_complete.store(env_.now(), std::memory_order_relaxed);
        if (!st.ok()) {
          fallback_.on_dma_failure(env_.now());
          finish_segment(true);
          return;
        }
        if (probing) fallback_.on_dma_success();
        // Hand the extent's content to the host's per-request write buffer;
        // the bytes recycle as soon as the host acks the copy (Fig. 4).
        StageSegment msg{.token = ctx->token,
                         .seg_index = seg_index,
                         .off = static_cast<std::uint32_t>(off),
                         .len = seg_len};
        BufferList request;
        encode(ProxyOp::stage_segment, request);
        msg.encode(request);
        rpc_.call_async(
            std::move(request),
            [finish_segment](Result<BufferList> r) {
              bool failed = !r.ok();
              if (r.ok()) {
                BufferList::Cursor cur(*r);
                std::int32_t res = 0;
                failed = !decode(res, cur) || res != 0;
              }
              finish_segment(failed);
            },
            ctx->trace);
      },
      ctx->trace);
  if (!submitted.ok()) {
    fallback_.on_dma_failure(env_.now());
    finish_segment(true);
  } else {
    dma_bytes_.fetch_add(len, std::memory_order_relaxed);
    counters_->inc(l_dpu_dma_bytes, len);
    if (!cfg_.pipelining) {
      // Ablation: strictly serial -- wait out this transfer (and its staging
      // handoff) before touching the next segment.
      dbg::UniqueLock lk(ctx->m);
      ctx->cv.wait(lk, [&] {
        ctx->m.assert_held();
        return ctx->outstanding == 0;
      });
    }
  }

  DataRef ref;
  ref.kind = DataRef::Kind::staged;
  ref.index = seg_index;
  ref.len = seg_len;
  return ref;
}

void ProxyObjectStore::process_write(WriteReq req) {
  const sim::Time t_start = req.enqueued;
  WireTxn wire;

  // Detach bulk payloads from the transaction metadata.
  std::vector<BufferList> payloads(req.txn.ops().size());
  for (std::size_t i = 0; i < req.txn.ops().size(); ++i) {
    payloads[i] = std::move(req.txn.ops()[i].data);
    req.txn.ops()[i].data = BufferList{};
  }
  wire.meta = std::move(req.txn);
  wire.parts.resize(payloads.size());
  wire.token = next_token_.fetch_add(1);

  std::uint64_t total_bytes = 0;
  for (const auto& p : payloads) total_bytes += p.length();
  std::uint64_t dma_bytes_this_request = 0;

  auto ctx = std::make_shared<SegCtx>(env_.keeper());
  ctx->token = wire.token;
  ctx->trace = wire.meta.trace();
  // The request-level DPU span: covers segmentation, DMA, and the host
  // commit round trip (open during the crash window, so a hard kill leaves
  // it partial in the flight recorder).
  auto write_span = env_.tracer().span("dpu.write", "dpu." + dpu_.name(),
                                       ctx->trace, t_start);

  for (std::size_t i = 0; i < payloads.size(); ++i) {
    BufferList& payload = payloads[i];
    if (payload.empty()) continue;
    if (total_bytes <= cfg_.inline_write_max) {
      // Tiny request: not worth a DMA round; ride the control channel.
      DataRef ref;
      ref.kind = DataRef::Kind::inline_;
      ref.len = static_cast<std::uint32_t>(payload.length());
      ref.data = std::move(payload);
      wire.parts[i].push_back(std::move(ref));
      continue;
    }
    std::size_t off = 0;
    while (off < payload.length()) {
      const std::size_t n =
          std::min<std::size_t>(cfg_.segment_size, payload.length() - off);
      DataRef ref = move_segment(payload.substr(off, n), ctx);
      if (ref.kind == DataRef::Kind::staged) dma_bytes_this_request += n;
      wire.parts[i].push_back(std::move(ref));
      off += n;
    }
  }

  // Drain in-flight segments (DMA + staging handoff), then snapshot the
  // callback-shared state — nothing mutates it once outstanding hits zero.
  bool any_failed = false;
  bool slot_timed_out = false;
  sim::Time first_submit = -1;
  sim::Duration dma_wait = 0;
  {
    dbg::UniqueLock lk(ctx->m);
    ctx->cv.wait(lk, [&] {
      ctx->m.assert_held();
      return ctx->outstanding == 0;
    });
    any_failed = ctx->any_failed;
    slot_timed_out = ctx->slot_timed_out;
    first_submit = ctx->first_submit;
    dma_wait = ctx->dma_wait;
  }

  if (slot_timed_out) {
    // Staging starved past slot_acquire_timeout: give up on the whole
    // request with a typed throttle (the OSD/client retry machinery takes
    // it from here) instead of wedging this worker. Oneway abort so the
    // host drops any segments already staged under this token.
    BufferList abort_req;
    encode(ProxyOp::abort_txn, abort_req);
    encode(wire.token, abort_req);
    (void)rpc_.notify(std::move(abort_req), ctx->trace);
    write_span.end(env_.now());
    if (req.on_commit)
      req.on_commit(Status(Errc::throttled,
                           "DPU staging region exhausted past deadline"));
    return;
  }

  if (any_failed) {
    // Fallback (paper §4): staged segments whose transfer or handoff
    // failed are unusable; conservatively re-send every staged chunk inline
    // over RPC (the cooldown routes subsequent traffic there anyway).
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      std::size_t off = 0;
      for (auto& ref : wire.parts[i]) {
        if (ref.kind == DataRef::Kind::staged) {
          ref.kind = DataRef::Kind::inline_;
          ref.data = payloads[i].substr(off, ref.len);
          rpc_fallback_bytes_.fetch_add(ref.len, std::memory_order_relaxed);
          counters_->inc(l_dpu_rpc_fallback_bytes, ref.len);
        }
        off += ref.len;
      }
    }
  }

  // Ship the transaction (metadata + refs) and wait for the host commit.
  // The RPC span's context travels in the fragment headers, so the host
  // backend parents its commit span under this one.
  BufferList request;
  encode(ProxyOp::submit_txn, request);
  wire.encode(request);
  auto rpc_span = env_.tracer().span("dpu.rpc.submit_txn", "dpu." + dpu_.name(),
                                     write_span.context(), env_.now());
  auto response = timed_call(std::move(request), rpc_span.context());
  rpc_span.end(env_.now());

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
  if (total_bytes > 0) {
    const auto& dma_cfg = dpu_.dma().config();
    std::uint64_t dma_transfer = 0;
    if (first_submit >= 0) {
      dma_transfer = static_cast<std::uint64_t>(dma_cfg.setup_latency) +
                     static_cast<std::uint64_t>(sim::transfer_time(
                         dma_bytes_this_request, dma_cfg.bw_bytes_per_sec));
    }
    std::uint64_t phase_wall = 0;
    if (first_submit >= 0 && ctx->last_complete.load() > first_submit)
      phase_wall =
          static_cast<std::uint64_t>(ctx->last_complete.load() - first_submit);
    const std::uint64_t serialization =
        phase_wall > dma_transfer ? phase_wall - dma_transfer : 0;

    counters_->inc(l_dpu_writes);
    counters_->rec(l_dpu_write_lat, static_cast<std::uint64_t>(env_.now() - t_start));
    counters_->rec(l_dpu_dma_wait,
                   static_cast<std::uint64_t>(dma_wait) + serialization);

    const dbg::LockGuard lk(bd_mutex_);
    bd_.count++;
    bd_.total_ns += static_cast<std::uint64_t>(env_.now() - t_start);
    bd_.dma_ns += dma_transfer;
    bd_.dma_wait_ns += static_cast<std::uint64_t>(dma_wait) + serialization;
    bd_.host_write_ns += static_cast<std::uint64_t>(std::max<std::int64_t>(
        reply.host_write_ns, 0));
  }

  write_span.end(env_.now());
  if (req.on_commit) req.on_commit(st);
}

// ---- control plane / reads ---------------------------------------------------------

Result<BufferList> ProxyObjectStore::timed_call(BufferList request,
                                                const trace::TraceContext& ctx) {
  auto r = rpc_.call(std::move(request), cfg_.rpc_timeout, ctx);
  if (!r.ok() && r.status().code() == Errc::timed_out)
    counters_->inc(l_dpu_rpc_timeout);
  return r;
}

Result<BufferList> ProxyObjectStore::control_call(ProxyOp op, const BufferList& body) {
  BufferList request;
  encode(op, request);
  request.append(body);
  auto r = timed_call(std::move(request));
  if (!r.ok()) return r.status();
  BufferList::Cursor cur(*r);
  std::int32_t result = 0;
  if (!decode(result, cur)) return Status(Errc::corrupt, "bad control reply");
  if (result != 0) return Status(static_cast<Errc>(-result), "host error");
  BufferList rest;
  (void)cur.get_buffer_list(cur.remaining(), rest);
  return rest;
}

Result<BufferList> ProxyObjectStore::read(const os::coll_t& c, const os::ghobject_t& o,
                                          std::uint64_t off, std::uint64_t len) {
  constexpr auto kUnlimited = std::numeric_limits<std::uint64_t>::max();
  ReadRequest rr;
  rr.cid = c;
  rr.oid = o;
  rr.off = off;
  rr.len = len;
  rr.inline_max = fallback_.dma_enabled() ? cfg_.inline_read_max : kUnlimited;
  // Opportunistically offer one region extent for the bulk path
  // (host-side staging); whatever does not fit rides inline. len 0 reads
  // to the object's end, so it offers the whole region.
  if (fallback_.dma_enabled()) {
    const std::size_t want = len == 0 ? arena_.capacity()
                                      : std::min<std::uint64_t>(len, arena_.capacity());
    if (const auto buf = arena_.try_reserve(want)) {
      rr.buf_off = static_cast<std::uint32_t>(*buf);
      rr.buf_len = static_cast<std::uint32_t>(want);
    }
  }
  bool dma_failed = false;
  auto r = read_obj(rr, dma_failed);
  if (rr.buf_len > 0) arena_.release(rr.buf_off, rr.buf_len);
  if (!dma_failed) return r;

  // A DMA error mid-read falls back like the write path (§4.5): withdraw
  // the extent and ask once more with the whole result inline. Called
  // directly, not through read(): with cooldown 0 that would pick DMA again.
  fallback_.on_dma_failure(env_.now());
  rr.inline_max = kUnlimited;
  rr.buf_off = 0;
  rr.buf_len = 0;
  r = read_obj(rr, dma_failed);
  if (r.ok()) {
    rpc_fallback_bytes_.fetch_add(r->length(), std::memory_order_relaxed);
    counters_->inc(l_dpu_rpc_fallback_bytes, r->length());
  }
  return r;
}

Result<BufferList> ProxyObjectStore::read_obj(const ReadRequest& rr,
                                              bool& dma_failed) {
  BufferList body;
  rr.encode(body);
  BufferList request;
  encode(ProxyOp::read_obj, request);
  request.claim_append(body);
  auto response = timed_call(std::move(request));
  if (!response.ok()) return response.status();
  ReadReply reply;
  BufferList::Cursor cur(*response);
  if (!reply.decode(cur)) return Status(Errc::corrupt, "bad read reply");
  if (reply.result != 0)
    return Status(static_cast<Errc>(-reply.result), "host read error");
  if (reply.inline_data) return reply.data;

  // DMA the filled extent back (host -> DPU) in engine-sized jobs, in order.
  BufferList out;
  for (const auto& ref : reply.refs) {
    if (ref.kind == DataRef::Kind::inline_) {
      out.append(ref.data);
      continue;
    }
    if (rr.buf_len == 0 || ref.index < rr.buf_off ||
        std::uint64_t{ref.index} + ref.len > std::uint64_t{rr.buf_off} + rr.buf_len)
      return Status(Errc::corrupt, "read ref outside the offered extent");
    // The wait state lives on this stack: every job that was submitted is
    // waited out before returning, even when a later submit fails.
    dbg::Mutex m{"proxy.read_wait"};
    dbg::CondVar cv(env_.keeper(), "proxy.read_cv");
    std::size_t pending = 0;
    Status st;
    Status submitted;
    for (std::size_t done = 0; done < ref.len && submitted.ok();
         done += cfg_.segment_size) {
      const std::size_t n = std::min<std::size_t>(cfg_.segment_size, ref.len - done);
      {
        const dbg::LockGuard lk(m);
        ++pending;
      }
      submitted = dpu_.dma().submit(
          arena_.host_buf(ref.index + done, n), arena_.dpu_buf(ref.index + done, n),
          doca::DmaDir::host_to_dpu, [&](Status s) {
            const dbg::LockGuard lk(m);
            if (!s.ok()) st = s;
            if (--pending == 0) cv.notify_all();
          });
      if (!submitted.ok()) {
        const dbg::LockGuard lk(m);
        --pending;
      }
    }
    {
      dbg::UniqueLock lk(m);
      cv.wait(lk, [&] { return pending == 0; });
    }
    if (!submitted.ok() || !st.ok()) {
      dma_failed = true;
      return submitted.ok() ? st : submitted;
    }
    out.append(arena_.dpu_buf(ref.index, ref.len).data(), ref.len);
    dpu_.cpu().charge(static_cast<sim::Duration>(cfg_.stage_copy_ns_per_byte *
                                                 static_cast<double>(ref.len)));
  }
  return out;
}

Result<os::ObjectInfo> ProxyObjectStore::stat(const os::coll_t& c,
                                              const os::ghobject_t& o) {
  BufferList body;
  c.encode(body);
  o.encode(body);
  auto r = control_call(ProxyOp::stat, body);
  if (!r.ok()) return r.status();
  os::ObjectInfo info;
  BufferList::Cursor cur(*r);
  if (!info.decode(cur)) return Status(Errc::corrupt, "bad stat reply");
  return info;
}

bool ProxyObjectStore::exists(const os::coll_t& c, const os::ghobject_t& o) {
  BufferList body;
  c.encode(body);
  o.encode(body);
  auto r = control_call(ProxyOp::exists, body);
  if (!r.ok()) return false;
  bool e = false;
  BufferList::Cursor cur(*r);
  return decode(e, cur) && e;
}

Result<std::map<std::string, BufferList>> ProxyObjectStore::omap_get(
    const os::coll_t& c, const os::ghobject_t& o) {
  BufferList body;
  c.encode(body);
  o.encode(body);
  auto r = control_call(ProxyOp::omap_get, body);
  if (!r.ok()) return r.status();
  std::map<std::string, BufferList> m;
  BufferList::Cursor cur(*r);
  if (!decode(m, cur)) return Status(Errc::corrupt, "bad omap reply");
  return m;
}

Result<std::vector<os::ghobject_t>> ProxyObjectStore::list_objects(const os::coll_t& c) {
  BufferList body;
  c.encode(body);
  auto r = control_call(ProxyOp::list_objects, body);
  if (!r.ok()) return r.status();
  std::vector<os::ghobject_t> v;
  BufferList::Cursor cur(*r);
  if (!decode(v, cur)) return Status(Errc::corrupt, "bad list reply");
  return v;
}

std::vector<os::coll_t> ProxyObjectStore::list_collections() {
  auto r = control_call(ProxyOp::list_collections, {});
  if (!r.ok()) return {};
  std::vector<os::coll_t> v;
  BufferList::Cursor cur(*r);
  if (!decode(v, cur)) return {};
  return v;
}

bool ProxyObjectStore::collection_exists(const os::coll_t& c) {
  BufferList body;
  c.encode(body);
  auto r = control_call(ProxyOp::coll_exists, body);
  if (!r.ok()) return false;
  bool e = false;
  BufferList::Cursor cur(*r);
  return decode(e, cur) && e;
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
