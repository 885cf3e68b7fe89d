#include "proxy/host_backend.h"

#include "common/logger.h"

namespace doceph::proxy {

HostBackendService::HostBackendService(sim::Env& env, sim::CpuDomain& domain,
                                       os::ObjectStore& store,
                                       doca::CommChannelRef channel,
                                       doca::MmapRef host_mmap, HostBackendConfig cfg)
    : env_(env),
      domain_(domain),
      store_(store),
      rpc_(env, std::move(channel)),
      center_(env),
      host_mmap_(std::move(host_mmap)),
      cfg_(cfg) {}

HostBackendService::~HostBackendService() { shutdown(); }  // NOLINT(bugprone-exception-escape): teardown must complete; a throw terminates, by design

Status HostBackendService::start() {
  rpc_.set_request_handler(
      [this](BufferList req, bool oneway, RpcChannel::Responder respond,
             const trace::TraceContext& ctx) {
        handle_request(std::move(req), oneway, std::move(respond), ctx);
      });
  rpc_.start(center_);
  pump_thread_ = sim::Thread(env_.keeper(), env_.stats(), "host-proxy-ch", &domain_,
                             [this] { center_.run(); }, /*daemon=*/true);
  started_ = true;
  return Status::OK();
}

void HostBackendService::shutdown() {
  if (!started_) return;
  started_ = false;
  rpc_.detach();  // stop channel -> center dispatches before the center dies
  center_.stop();
  pump_thread_.join();
}

void HostBackendService::handle_request(BufferList req, bool oneway,
                                        RpcChannel::Responder respond,
                                        const trace::TraceContext& ctx) {
  // Runs on the channel's loop thread, as every step of every request does.
  BufferList::Cursor cur(req);
  ProxyOp op{};
  if (!decode(op, cur)) {
    DLOG(warn, "proxy") << "host backend: bad request";
    return;
  }
  BufferList body;
  (void)cur.get_buffer_list(cur.remaining(), body);
  (void)oneway;

  switch (op) {
    case ProxyOp::submit_txn:
      do_submit_txn(std::move(body), respond, ctx);
      break;
    case ProxyOp::stage_segment:
      do_stage_segment(std::move(body), respond);
      break;
    case ProxyOp::read_obj:
      do_read(std::move(body), respond, ctx);
      break;
    case ProxyOp::abort_txn: {
      // The DPU gave up on this request (deadline or umount): drop whatever
      // it had already staged so the token's write buffer doesn't leak.
      BufferList::Cursor c(body);
      std::uint64_t token = 0;
      if (decode(token, c)) staged_.erase(token);
      break;
    }
    default:
      do_control(op, std::move(body), respond);
      break;
  }
}

void HostBackendService::do_stage_segment(BufferList body,
                                          const RpcChannel::Responder& respond) {
  StageSegment seg;
  BufferList::Cursor cur(body);
  if (!seg.decode(cur) || !in_region(seg.off, seg.len)) {
    if (respond) respond(encode_to_bl(std::int32_t{
        -static_cast<std::int32_t>(Errc::corrupt)}));
    return;
  }
  // Copy out of the shared DMA region into this request's write buffer so
  // the extent can recycle immediately (Fig. 4's staging -> write buffer hop).
  BufferList copy;
  copy.append(host_mmap_->data() + seg.off, seg.len);
  domain_.charge(static_cast<sim::Duration>(cfg_.copy_ns_per_byte *
                                            static_cast<double>(seg.len)));
  staged_[seg.token][seg.seg_index] = std::move(copy);
  if (respond) respond(encode_to_bl(std::int32_t{0}));
}

bool HostBackendService::in_region(std::uint64_t off, std::uint64_t len) const {
  return off <= host_mmap_->size() && len <= host_mmap_->size() - off;
}

Result<BufferList> HostBackendService::assemble_payload(
    std::uint64_t token, const std::vector<DataRef>& refs) {
  BufferList out;
  auto& segs = staged_[token];
  for (const auto& ref : refs) {
    switch (ref.kind) {
      case DataRef::Kind::inline_:
        out.append(ref.data);
        break;
      case DataRef::Kind::staged: {
        // A segment whose stage failed (or never came) fails the txn:
        // committing anything in its place would write wrong bytes.
        auto it = segs.find(ref.index);
        if (it == segs.end() || it->second.length() != ref.len)
          return Status(Errc::corrupt, "write payload names an unstaged segment");
        out.claim_append(it->second);
        break;
      }
      case DataRef::Kind::region:
        return Status(Errc::corrupt, "region ref in a write payload");
    }
  }
  return out;
}

void HostBackendService::do_submit_txn(BufferList body,
                                       const RpcChannel::Responder& respond,
                                       const trace::TraceContext& ctx) {
  WireTxn wire;
  BufferList::Cursor cur(body);
  if (!wire.decode(cur) || wire.parts.size() != wire.meta.ops().size()) {
    TxnReply reply{.result = -static_cast<std::int32_t>(Errc::corrupt),
                   .host_write_ns = 0};
    if (respond) respond(encode_to_bl(reply));
    return;
  }
  Status assembled;
  for (std::size_t i = 0; i < wire.meta.ops().size() && assembled.ok(); ++i) {
    if (wire.parts[i].empty()) continue;
    auto payload = assemble_payload(wire.token, wire.parts[i]);
    if (payload.ok())
      wire.meta.ops()[i].data = std::move(*payload);
    else
      assembled = payload.status();
  }
  staged_.erase(wire.token);
  if (!assembled.ok()) {
    TxnReply reply{.result = -static_cast<std::int32_t>(assembled.code()),
                   .host_write_ns = 0};
    if (respond) respond(encode_to_bl(reply));
    return;
  }
  txns_.fetch_add(1, std::memory_order_relaxed);

  const sim::Time t0 = env_.now();
  // Shared, not captured by value: Span is move-only and OnCommit is a
  // copyable std::function.
  auto sp = std::make_shared<trace::Span>(
      env_.tracer().span("host.submit_txn", "host." + cfg_.name, ctx, t0));
  store_.queue_transaction(
      std::move(wire.meta), [this, t0, sp, respond](Status st) {
        sp->end(env_.now());
        TxnReply reply;
        reply.result = st.ok() ? 0 : -static_cast<std::int32_t>(st.code());
        reply.host_write_ns = env_.now() - t0;
        // Piggyback the host store's pressure so the DPU-side OSD can run
        // nearfull admission without an extra control RPC.
        reply.fullness_permille =
            static_cast<std::uint32_t>(store_.fullness() * 1000.0);
        if (respond) respond(encode_to_bl(reply));
      });
}

void HostBackendService::do_read(BufferList body, const RpcChannel::Responder& respond,
                                 const trace::TraceContext& ctx) {
  // Shared, not captured by value: Span is move-only and the store's
  // callback is a copyable std::function.
  auto sp = std::make_shared<trace::Span>(
      env_.tracer().span("host.read", "host." + cfg_.name, ctx, env_.now()));
  ReadRequest req;
  BufferList::Cursor cur(body);
  if (!req.decode(cur) || !in_region(req.buf_off, req.buf_len))
    return reply_read(req, Status(Errc::corrupt, "bad read request"), respond, *sp);
  control_.fetch_add(1, std::memory_order_relaxed);
  // The completion may run on a device completion context: it only hops
  // back onto the loop, where the staging copy and the reply run.
  store_.read_async(
      req.cid, req.oid, req.off, req.len,
      [this, loop = center_.handle(), req, respond, sp](Result<BufferList> data) {
        loop.dispatch([this, req, respond, sp, data = std::move(data)]() mutable {
          reply_read(req, std::move(data), respond, *sp);
        });
      },
      sp->context());
}

void HostBackendService::reply_read(const ReadRequest& req, Result<BufferList> data,
                                    const RpcChannel::Responder& respond,
                                    trace::Span& span) {
  ReadReply reply;
  if (!data.ok()) {
    reply.result = -static_cast<std::int32_t>(data.status().code());
  } else if (data->length() <= req.inline_max) {
    reply.total_len = data->length();
    reply.inline_data = true;
    reply.data = std::move(*data);
  } else {
    reply.total_len = data->length();
    // Stage into the offered landing extent (host-side staging for reads,
    // paper §5.5); the DPU DMAs it out and releases it.
    const std::size_t staged = std::min<std::size_t>(req.buf_len, data->length());
    if (staged > 0) {
      data->copy_out(0, staged, host_mmap_->data() + req.buf_off);
      domain_.charge(static_cast<sim::Duration>(cfg_.copy_ns_per_byte *
                                                static_cast<double>(staged)));
      reply.refs.push_back(DataRef{.kind = DataRef::Kind::region,
                                   .index = req.buf_off,
                                   .len = static_cast<std::uint32_t>(staged)});
    }
    if (staged < data->length()) {
      // The offered extent was short (or absent): the remainder rides
      // inline (correct, if slower).
      DataRef rest;
      rest.kind = DataRef::Kind::inline_;
      rest.len = static_cast<std::uint32_t>(data->length() - staged);
      rest.data = data->substr(staged, data->length() - staged);
      reply.refs.push_back(std::move(rest));
    }
  }
  span.end(env_.now());
  if (respond) respond(encode_to_bl(reply));
}

void HostBackendService::do_control(ProxyOp op, BufferList body,
                                    const RpcChannel::Responder& respond) {
  control_.fetch_add(1, std::memory_order_relaxed);
  BufferList out;
  BufferList::Cursor cur(body);
  auto fail = [&](Errc c) {
    out.clear();
    encode(static_cast<std::int32_t>(-static_cast<int>(c)), out);
  };

  switch (op) {
    case ProxyOp::ping: {
      encode(std::int32_t{0}, out);
      break;
    }
    case ProxyOp::stat: {
      os::coll_t cid;
      os::ghobject_t oid;
      if (!cid.decode(cur) || !oid.decode(cur)) {
        fail(Errc::corrupt);
        break;
      }
      auto r = store_.stat(cid, oid);
      if (!r.ok()) {
        fail(r.status().code());
        break;
      }
      encode(std::int32_t{0}, out);
      r->encode(out);
      break;
    }
    case ProxyOp::exists: {
      os::coll_t cid;
      os::ghobject_t oid;
      if (!cid.decode(cur) || !oid.decode(cur)) {
        fail(Errc::corrupt);
        break;
      }
      encode(std::int32_t{0}, out);
      encode(store_.exists(cid, oid), out);
      break;
    }
    case ProxyOp::coll_exists: {
      os::coll_t cid;
      if (!cid.decode(cur)) {
        fail(Errc::corrupt);
        break;
      }
      encode(std::int32_t{0}, out);
      encode(store_.collection_exists(cid), out);
      break;
    }
    case ProxyOp::omap_get: {
      os::coll_t cid;
      os::ghobject_t oid;
      if (!cid.decode(cur) || !oid.decode(cur)) {
        fail(Errc::corrupt);
        break;
      }
      auto r = store_.omap_get(cid, oid);
      if (!r.ok()) {
        fail(r.status().code());
        break;
      }
      encode(std::int32_t{0}, out);
      encode(*r, out);
      break;
    }
    case ProxyOp::list_objects: {
      os::coll_t cid;
      if (!cid.decode(cur)) {
        fail(Errc::corrupt);
        break;
      }
      auto r = store_.list_objects(cid);
      if (!r.ok()) {
        fail(r.status().code());
        break;
      }
      encode(std::int32_t{0}, out);
      encode(*r, out);
      break;
    }
    case ProxyOp::list_collections: {
      encode(std::int32_t{0}, out);
      encode(store_.list_collections(), out);
      break;
    }
    default:
      fail(Errc::not_supported);
      break;
  }
  if (respond) respond(std::move(out));
}

}  // namespace doceph::proxy
