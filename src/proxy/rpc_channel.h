#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/trace.h"
#include "dbg/mutex.h"

#include "doca/comm_channel.h"
#include "sim/env.h"

namespace doceph::proxy {

/// Request/response RPC over a size-capped CommChannel: payloads larger than
/// one channel message are fragmented and reassembled transparently. One
/// side acts as client (call/call_async/notify), the other as server
/// (set_request_handler); both roles may be mixed.
///
/// Wire format: a comch message carries a run of [u32 frame_len][frame]
/// entries; a frame is [u64 req_id][u8 flags][TraceContext][payload chunk].
/// Every message carries one entry, except for call_together(), whose
/// frames share messages with each other (and with nothing else).
class RpcChannel {
 public:
  RpcChannel(sim::Env& env, doca::CommChannelRef channel);

  /// Install the inbound pump; messages are processed in `center`'s thread.
  /// Must be called before any traffic arrives.
  void start(event::EventCenter& center);

  /// Detach from the channel (drops its recv handler). Must be called
  /// before the EventCenter passed to start() is destroyed.
  void detach();

  // ---- client role -----------------------------------------------------------
  using ResponseCb = std::function<void(Result<BufferList>)>;
  /// Fire a request; `cb` runs in the channel's EventCenter thread when the
  /// response arrives (or with a status on channel failure). Returns the
  /// request id, usable with cancel(). `ctx` rides every fragment's header
  /// and reaches the server's RequestHandler (distributed tracing).
  std::uint64_t call_async(BufferList request, ResponseCb cb,
                           const trace::TraceContext& ctx = {});
  /// One request of call_together().
  struct Call {
    BufferList request;
    ResponseCb cb;
    trace::TraceContext ctx;
  };
  /// Fire `calls` as call_async does, packing their frames in order into as
  /// few comch messages as the size cap allows: one, when they fit. A failed
  /// send fails every request riding in that message. Returns the request
  /// ids in call order.
  std::vector<std::uint64_t> call_together(std::vector<Call> calls);
  /// Drop the pending callback for `id`; a late response is then ignored.
  /// Returns false if the response already claimed the callback (it has run
  /// or is about to).
  bool cancel(std::uint64_t id);
  /// Blocking call (sim time) with timeout. On timeout the pending slot is
  /// reclaimed — a late response cannot touch freed state.
  Result<BufferList> call(BufferList request, sim::Duration timeout,
                          const trace::TraceContext& ctx = {});
  /// One-way request (no response expected).
  Status notify(BufferList request, const trace::TraceContext& ctx = {});

  /// Blocking calls that ended in timed_out (diagnostics).
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_.load(); }

  // ---- server role -----------------------------------------------------------
  /// `respond` may be invoked from any thread, exactly once (skip for oneway).
  /// The TraceContext is the caller's (zero when the request is untraced).
  using Responder = std::function<void(BufferList)>;
  using RequestHandler = std::function<void(BufferList, bool oneway, Responder,
                                            const trace::TraceContext&)>;
  void set_request_handler(RequestHandler h) { handler_ = std::move(h); }

  /// Total payload bytes moved through this endpoint (diagnostics).
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_.load(); }

  /// Frames sent. Each is one comch message (one doorbell per endpoint),
  /// except that call_together() packs its frames into shared messages.
  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_sent_.load(); }

 private:
  enum Flags : std::uint8_t { kResponse = 1, kOneway = 2, kLastPart = 4 };

  struct Frame {
    BufferList bytes;
    std::uint64_t req_id = 0;  ///< request this frame belongs to (0: none)
  };
  /// Cut `payload` into frames of at most one comch message each.
  void add_frames(std::vector<Frame>& out, std::uint64_t req_id, std::uint8_t flags,
                  const BufferList& payload, const trace::TraceContext& ctx);
  /// Queue `frames` on sendq_, in order, and drain. A frame joins the
  /// message of the frame before it while the size cap allows.
  void send_frames(std::vector<Frame> frames);
  Status send_fragmented(std::uint64_t req_id, std::uint8_t flags, BufferList payload,
                         const trace::TraceContext& ctx = {});
  /// Send queued messages FIFO. One thread drains at a time (sending_), so
  /// wire order matches queue order; the channel is only ever touched with
  /// mutex_ dropped: CommChannel::send charges simulated CPU (a
  /// virtual-clock sleep), and sleeping while holding mutex_ would stall
  /// every thread blocked on it, and with them the virtual clock itself
  /// (TimeKeeper discipline). Every request riding a message whose send
  /// failed gets its callback run with the send error.
  void drain_sends();
  void on_message(BufferList msg);
  void on_frame(BufferList frame);

  sim::Env& env_;
  doca::CommChannelRef ch_;
  RequestHandler handler_;

  dbg::Mutex mutex_{"proxy.rpc"};
  std::atomic<std::uint64_t> next_id_{1};
  std::map<std::uint64_t, ResponseCb> pending_ DOCEPH_GUARDED_BY(mutex_);
  // Reassembly buffers keyed by (req_id, is_response).
  std::map<std::pair<std::uint64_t, bool>, BufferList> partial_
      DOCEPH_GUARDED_BY(mutex_);

  // Outbound messages, drained FIFO by the single active drain_sends()
  // caller.
  struct OutMsg {
    BufferList msg;
    std::vector<std::uint64_t> req_ids;  ///< requests whose frames ride it
  };
  std::deque<OutMsg> sendq_ DOCEPH_GUARDED_BY(mutex_);
  bool sending_ DOCEPH_GUARDED_BY(mutex_) = false;

  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
};

}  // namespace doceph::proxy
