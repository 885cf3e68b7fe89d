#pragma once

#include <atomic>

#include "dbg/cond_var.h"
#include "dbg/mutex.h"
#include "doca/mmap.h"
#include "event/event_center.h"
#include "os/object_store.h"
#include "proxy/proxy_protocol.h"
#include "proxy/rpc_channel.h"
#include "sim/cpu_model.h"
#include "sim/thread.h"

namespace doceph::proxy {

struct HostBackendConfig {
  int workers = 2;                 ///< host-side RPC execution threads
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
class HostBackendService {
 public:
  /// `host_mmap` is the pre-exported write region shared with the DPU's
  /// StagingArena (the MR cache). The DPU names extents of it by byte
  /// offset; every offset/length it sends is bounds-checked here.
  HostBackendService(sim::Env& env, sim::CpuDomain& domain, os::ObjectStore& store,
                     doca::CommChannelRef channel, doca::MmapRef host_mmap,
                     HostBackendConfig cfg = {});
  ~HostBackendService();

  Status start();
  void shutdown();

  [[nodiscard]] std::uint64_t txns_applied() const noexcept { return txns_.load(); }
  [[nodiscard]] std::uint64_t control_rpcs() const noexcept { return control_.load(); }
  [[nodiscard]] std::uint64_t dma_payload_bytes() const noexcept {
    return dma_bytes_.load();
  }

 private:
  void handle_request(BufferList req, bool oneway, RpcChannel::Responder respond,
                      const trace::TraceContext& ctx);
  void do_submit_txn(BufferList body, const RpcChannel::Responder& respond,
                     const trace::TraceContext& ctx);
  void do_stage_segment(BufferList body, const RpcChannel::Responder& respond);
  void do_control(ProxyOp op, BufferList body, const RpcChannel::Responder& respond);
  void do_read(BufferList body, const RpcChannel::Responder& respond);

  /// Materialize one op's payload from its DataRefs (staged segments were
  /// already copied out of the DMA region by do_stage_segment). Errc::corrupt
  /// for a ref outside the region.
  Result<BufferList> assemble_payload(std::uint64_t token,
                                      const std::vector<DataRef>& refs);
  /// True iff [off, off+len) lies inside the shared host region.
  [[nodiscard]] bool in_region(std::uint64_t off, std::uint64_t len) const;

  void worker_loop();

  sim::Env& env_;
  sim::CpuDomain& domain_;
  os::ObjectStore& store_;
  RpcChannel rpc_;
  event::EventCenter center_;
  doca::MmapRef host_mmap_;
  HostBackendConfig cfg_;

  // Work queue: handlers run on worker threads so blocking store calls never
  // stall the channel pump.
  dbg::Mutex queue_mutex_{"proxy.host_backend.queue"};
  dbg::CondVar queue_cv_;
  std::deque<std::function<void()>> queue_ DOCEPH_GUARDED_BY(queue_mutex_);
  bool stopping_ DOCEPH_GUARDED_BY(queue_mutex_) = false;

  // Per-request write buffers (Fig. 4): segments copied out of the DMA
  // region, keyed by (request token, segment index) until submit_txn.
  dbg::Mutex staged_mutex_{"proxy.host_backend.staged"};
  std::map<std::uint64_t, std::map<std::uint32_t, BufferList>> staged_
      DOCEPH_GUARDED_BY(staged_mutex_);

  sim::Thread pump_thread_;
  std::vector<sim::Thread> workers_;
  bool started_ = false;

  std::atomic<std::uint64_t> txns_{0};
  std::atomic<std::uint64_t> control_{0};
  std::atomic<std::uint64_t> dma_bytes_{0};
};

}  // namespace doceph::proxy
