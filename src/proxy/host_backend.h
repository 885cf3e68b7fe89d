#pragma once

#include <atomic>
#include <map>

#include "doca/mmap.h"
#include "event/event_center.h"
#include "os/object_store.h"
#include "proxy/proxy_protocol.h"
#include "proxy/rpc_channel.h"
#include "sim/cpu_model.h"
#include "sim/thread.h"

namespace doceph::proxy {

struct HostBackendConfig {
  /// Names this service's trace domain ("host.<name>").
  std::string name = "backend";
  /// Copy cost (ns/byte) for moving DMA'd payloads from the pre-exported
  /// write buffers into store-owned memory (Fig. 4's post-transfer write
  /// buffers) — the residual host CPU DoCeph cannot eliminate.
  double copy_ns_per_byte = 0.15;
};

/// The lightweight host-side server of Fig. 3: it owns no OSD logic — it
/// listens on the proxy channel, rebuilds transactions whose bulk payload
/// arrived in the DMA write buffers, executes them on the local BlueStore,
/// and answers control-plane RPCs. This (plus BlueStore itself) is ALL that
/// runs on the host in a DoCeph deployment.
/// Every request runs on the channel's event loop ("host-proxy-ch"); reads
/// use read_async, whose completion only hops back onto the loop.
class HostBackendService {
 public:
  /// `host_mmap` is the host region the DPU's StagingArena exports: the
  /// pre-exported write region (the MR cache) followed by the read landing.
  /// The DPU names extents of it by byte offset; every offset/length it
  /// sends is bounds-checked here.
  HostBackendService(sim::Env& env, sim::CpuDomain& domain, os::ObjectStore& store,
                     doca::CommChannelRef channel, doca::MmapRef host_mmap,
                     HostBackendConfig cfg = {});
  ~HostBackendService();

  Status start();
  void shutdown();

  [[nodiscard]] std::uint64_t txns_applied() const noexcept { return txns_.load(); }
  [[nodiscard]] std::uint64_t control_rpcs() const noexcept { return control_.load(); }

 private:
  void handle_request(BufferList req, bool oneway, RpcChannel::Responder respond,
                      const trace::TraceContext& ctx);
  void do_submit_txn(BufferList body, const RpcChannel::Responder& respond,
                     const trace::TraceContext& ctx);
  void do_stage_segment(BufferList body, const RpcChannel::Responder& respond);
  void do_control(ProxyOp op, BufferList body, const RpcChannel::Responder& respond);
  void do_read(BufferList body, const RpcChannel::Responder& respond,
               const trace::TraceContext& ctx);
  /// Loop-thread tail of do_read: stage the data, end the read's span, reply.
  void reply_read(const ReadRequest& req, Result<BufferList> data,
                  const RpcChannel::Responder& respond, trace::Span& span);

  /// Materialize one op's payload from its DataRefs (staged segments were
  /// already copied out of the DMA region by do_stage_segment). Errc::corrupt
  /// for a region ref, which no write carries, and for a staged ref whose
  /// segment this request never staged.
  Result<BufferList> assemble_payload(std::uint64_t token,
                                      const std::vector<DataRef>& refs);
  /// True iff [off, off+len) lies inside the shared host region.
  [[nodiscard]] bool in_region(std::uint64_t off, std::uint64_t len) const;

  sim::Env& env_;
  sim::CpuDomain& domain_;
  os::ObjectStore& store_;
  RpcChannel rpc_;
  event::EventCenter center_;
  doca::MmapRef host_mmap_;
  HostBackendConfig cfg_;

  // Per-request write buffers (Fig. 4): segments copied out of the DMA
  // region, keyed by (request token, segment index) until submit_txn.
  // Loop thread only.
  std::map<std::uint64_t, std::map<std::uint32_t, BufferList>> staged_;

  sim::Thread pump_thread_;
  bool started_ = false;

  std::atomic<std::uint64_t> txns_{0};
  std::atomic<std::uint64_t> control_{0};
};

}  // namespace doceph::proxy
