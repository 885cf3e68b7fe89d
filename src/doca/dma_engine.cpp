#include "doca/dma_engine.h"

#include <cstring>

namespace doceph::doca {

DmaEngine::DmaEngine(sim::Env& env, PcieLink& link, DmaConfig cfg, std::string name)
    : env_(env), link_(link), cfg_(cfg), name_(std::move(name)) {}

void DmaEngine::set_failure_rate(double rate) {
  fault::FaultSpec spec;
  spec.probability = rate;
  spec.match = name_;
  env_.faults().set("doca.dma_error", std::move(spec));
}

void DmaEngine::fail_next(int n) { env_.faults().fire_next("doca.dma_error", n, name_); }

Status DmaEngine::submit(const Buf& src, const Buf& dst, DmaDir dir, JobCb cb,
                         const trace::TraceContext& ctx) {
  if (!src.valid() || !dst.valid() || src.len != dst.len || src.len == 0)
    return Status(Errc::invalid_argument, "bad dma buffers");
  if (src.len > cfg_.max_transfer)
    return Status(Errc::too_large, "dma job exceeds hardware transfer cap (" +
                                       std::to_string(cfg_.max_transfer) + " bytes)");
  if (inflight_.load(std::memory_order_relaxed) + 1 > cfg_.queue_depth)
    return Status(Errc::busy, "dma queue full");

  const sim::Time now = env_.now();
  const bool fail = env_.faults().should_fire("doca.dma_error", now, name_);

  inflight_.fetch_add(1);
  // The engine serializes jobs at its own (lower) bandwidth; the PCIe link
  // is booked too so DMA and CommChannel traffic contend realistically.
  // Setup is latency, not occupancy: pipelined jobs overlap it (§3.3).
  const sim::Time engine_done =
      engine_.reserve(now, sim::transfer_time(src.len, cfg_.bw_bytes_per_sec));
  const sim::Time pcie_done = dir == DmaDir::dpu_to_host
                                  ? link_.reserve_d2h(now, src.len)
                                  : link_.reserve_h2d(now, src.len);
  const sim::Time done = std::max(engine_done, pcie_done) + cfg_.setup_latency;
  if (ctx.sampled()) {
    // The modeled completion time is known at submit, so the span is
    // recorded retrospectively up front (crash-safe: it is in the ring even
    // if the callback never runs).
    env_.tracer().record_span("doca.dma_job", "dma." + name_, ctx, now, done,
                              src.off);
  }

  env_.scheduler().schedule_at(done, [this, src, dst, fail, cb = std::move(cb)] {
    inflight_.fetch_sub(1);
    if (fail) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      cb(Status(Errc::channel_error, "dma transfer error"));
      return;
    }
    std::memcpy(dst.data(), src.data(), src.len);
    jobs_done_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(src.len, std::memory_order_relaxed);
    cb(Status::OK());
  });
  return Status::OK();
}

}  // namespace doceph::doca
