#include "proxy/rpc_channel.h"

#include <vector>

#include "common/encoding.h"
#include "dbg/cond_var.h"
#include "common/logger.h"

namespace doceph::proxy {
namespace {
// req_id + flags + trace context
constexpr std::size_t kFragHeader = 8 + 1 + trace::TraceContext::kWireSize;
// [u32 frame_len] container prefix per frame.
constexpr std::size_t kEntryPrefix = 4;
}  // namespace

RpcChannel::RpcChannel(sim::Env& env, doca::CommChannelRef channel)
    : env_(env), ch_(std::move(channel)) {}

void RpcChannel::start(event::EventCenter& center) {
  ch_->set_recv_handler(center, [this](BufferList msg) { on_message(std::move(msg)); });
}

void RpcChannel::detach() { ch_->close(); }

void RpcChannel::drain_sends() {
  std::vector<ResponseCb> failed;
  Status fail_st = Status::OK();
  {
    dbg::UniqueLock lk(mutex_);
    if (sending_) return;  // the active drainer picks our messages up
    sending_ = true;
    while (!sendq_.empty()) {
      OutMsg out = std::move(sendq_.front());
      sendq_.pop_front();
      lk.unlock();
      const Status st = ch_->send(std::move(out.msg));
      lk.lock();
      if (!st.ok()) {
        // The requests riding the message get the send error
        // (responses/oneways have no callback to fail).
        for (const std::uint64_t id : out.req_ids) {
          auto it = pending_.find(id);
          if (it == pending_.end()) continue;
          failed.push_back(std::move(it->second));
          pending_.erase(it);
        }
        fail_st = st;
      }
    }
    sending_ = false;
  }
  for (auto& cb : failed) cb(fail_st);
}

void RpcChannel::add_frames(std::vector<Frame>& out, std::uint64_t req_id,
                            std::uint8_t flags, const BufferList& payload,
                            const trace::TraceContext& ctx) {
  const std::size_t chunk_max =
      ch_->config().max_msg_size - kEntryPrefix - kFragHeader;
  bytes_sent_.fetch_add(payload.length(), std::memory_order_relaxed);
  const bool is_request = (flags & (kResponse | kOneway)) == 0;
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(chunk_max, payload.length() - off);
    const bool last = off + n == payload.length();
    Frame frame;
    frame.req_id = is_request ? req_id : 0;
    encode(req_id, frame.bytes);
    encode(static_cast<std::uint8_t>(flags | (last ? kLastPart : 0)), frame.bytes);
    encode(ctx, frame.bytes);
    frame.bytes.append(payload.substr(off, n));
    out.push_back(std::move(frame));
    off += n;
  } while (off < payload.length());
}

void RpcChannel::send_frames(std::vector<Frame> frames) {
  // All frames are queued under one mutex_ hold, so they land contiguously
  // in sendq_ and reassemble in order. Send errors surface through the
  // pending callbacks (drain_sends).
  {
    const dbg::LockGuard lk(mutex_);
    const std::size_t cap = ch_->config().max_msg_size;
    bool first = true;
    for (auto& frame : frames) {
      const std::size_t entry = kEntryPrefix + frame.bytes.length();
      // Only a message this call started may take the frame. A fragment
      // that is not a payload's last fills its message, so one payload's
      // fragments never share one.
      if (first || sendq_.back().msg.length() + entry > cap) sendq_.emplace_back();
      first = false;
      OutMsg& out = sendq_.back();
      encode(static_cast<std::uint32_t>(frame.bytes.length()), out.msg);
      out.msg.claim_append(frame.bytes);
      if (frame.req_id != 0) out.req_ids.push_back(frame.req_id);
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  drain_sends();
}

Status RpcChannel::send_fragmented(std::uint64_t req_id, std::uint8_t flags,
                                   BufferList payload,
                                   const trace::TraceContext& ctx) {
  std::vector<Frame> frames;
  add_frames(frames, req_id, flags, payload, ctx);
  send_frames(std::move(frames));
  return Status::OK();
}

std::uint64_t RpcChannel::call_async(BufferList request, ResponseCb cb,
                                     const trace::TraceContext& ctx) {
  const std::uint64_t id = next_id_.fetch_add(1);
  {
    const dbg::LockGuard lk(mutex_);
    pending_[id] = std::move(cb);
  }
  // A send failure fires the pending callback with the error from inside
  // drain_sends (possibly synchronously, on this thread).
  (void)send_fragmented(id, 0, std::move(request), ctx);
  return id;
}

std::vector<std::uint64_t> RpcChannel::call_together(std::vector<Call> calls) {
  std::vector<std::uint64_t> ids;
  std::vector<Frame> frames;
  for (const auto& call : calls) {
    ids.push_back(next_id_.fetch_add(1));
    add_frames(frames, ids.back(), 0, call.request, call.ctx);
  }
  {
    const dbg::LockGuard lk(mutex_);
    for (std::size_t i = 0; i < calls.size(); ++i)
      pending_[ids[i]] = std::move(calls[i].cb);
  }
  send_frames(std::move(frames));
  return ids;
}

bool RpcChannel::cancel(std::uint64_t id) {
  const dbg::LockGuard lk(mutex_);
  return pending_.erase(id) != 0;
}

Result<BufferList> RpcChannel::call(BufferList request, sim::Duration timeout,
                                    const trace::TraceContext& ctx) {
  // Heap-shared wait state: on timeout the pending_ callback may still fire
  // later (or be firing right now on the pump thread); it must never touch
  // this frame's stack. The callback keeps the state alive via shared_ptr.
  struct CallState {
    explicit CallState(sim::TimeKeeper& tk) : cv(tk, "proxy.rpc_call_cv") {}
    dbg::Mutex m{"proxy.rpc_call"};
    dbg::CondVar cv;
    bool done = false;
    Result<BufferList> result = BufferList{};
  };
  auto state = std::make_shared<CallState>(env_.keeper());
  const std::uint64_t id = call_async(
      std::move(request),
      [state](Result<BufferList> r) {
        const dbg::LockGuard lk(state->m);
        state->result = std::move(r);
        state->done = true;
        state->cv.notify_all();
      },
      ctx);
  dbg::UniqueLock lk(state->m);
  if (!state->cv.wait_until(lk, env_.now() + timeout, [&] { return state->done; })) {
    lk.unlock();
    if (cancel(id)) {
      // Slot reclaimed: a late response will be dropped as unknown.
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      return Status(Errc::timed_out, "rpc call");
    }
    // The response won the race and claimed the callback; take its result.
    lk.lock();
    state->cv.wait(lk, [&] { return state->done; });
  }
  return state->result;
}

Status RpcChannel::notify(BufferList request, const trace::TraceContext& ctx) {
  return send_fragmented(next_id_.fetch_add(1), kOneway, std::move(request), ctx);
}

void RpcChannel::on_message(BufferList msg) {
  // One comch message carries one or more [u32 len][frame] entries.
  BufferList::Cursor cur(msg);
  while (cur.remaining() > 0) {
    std::uint32_t len = 0;
    if (!decode(len, cur) || len > cur.remaining()) {
      DLOG(warn, "proxy") << "malformed rpc container";
      break;
    }
    BufferList frame;
    (void)cur.get_buffer_list(len, frame);
    on_frame(std::move(frame));
  }
}

void RpcChannel::on_frame(BufferList frame) {
  BufferList::Cursor cur(frame);
  std::uint64_t req_id = 0;
  std::uint8_t flags = 0;
  trace::TraceContext ctx;
  if (!decode(req_id, cur) || !decode(flags, cur) || !ctx.decode(cur)) {
    DLOG(warn, "proxy") << "malformed rpc fragment";
    return;
  }
  BufferList chunk;
  (void)cur.get_buffer_list(cur.remaining(), chunk);

  const bool is_response = (flags & kResponse) != 0;
  BufferList full;
  {
    const dbg::LockGuard lk(mutex_);
    const auto key = std::make_pair(req_id, is_response);
    auto it = partial_.find(key);
    if (it != partial_.end()) {
      it->second.claim_append(chunk);
      if ((flags & kLastPart) == 0) return;
      full = std::move(it->second);
      partial_.erase(it);
    } else if ((flags & kLastPart) == 0) {
      partial_[key] = std::move(chunk);
      return;
    } else {
      full = std::move(chunk);
    }
  }

  if (is_response) {
    ResponseCb cb;
    {
      const dbg::LockGuard lk(mutex_);
      auto it = pending_.find(req_id);
      if (it == pending_.end()) return;  // late/duplicate
      cb = std::move(it->second);
      pending_.erase(it);
    }
    cb(std::move(full));
    return;
  }

  if (handler_ == nullptr) {
    DLOG(warn, "proxy") << "rpc request with no handler installed";
    return;
  }
  const bool oneway = (flags & kOneway) != 0;
  Responder respond;
  if (!oneway) {
    respond = [this, req_id](BufferList response) {
      (void)send_fragmented(req_id, kResponse, std::move(response));
    };
  }
  handler_(std::move(full), oneway, std::move(respond), ctx);
}

}  // namespace doceph::proxy
