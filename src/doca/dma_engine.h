#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>

#include "common/result.h"
#include "common/trace.h"
#include "doca/mmap.h"
#include "doca/pcie_link.h"
#include "sim/env.h"

namespace doceph::doca {

/// The DPU's DMA copy engine (DOCA DMA). Jobs move bytes between host and
/// DPU memory regions over the PCIe link without CPU involvement. The
/// defining hardware constraint from the paper (§3.3, [Kashyap et al.]):
/// a single job may move at most ~2 MB, which forces DoCeph's segmentation
/// and pipelining machinery into existence.
///
/// The defaults are BlueField-3's, fit from paper Table 3's DMA row (least
/// squares over 1/4/8/16 MB): ~2.6 GB/s effective engine bandwidth plus
/// ~2.4 ms per-job setup/completion overhead (descriptor prep, doorbell, and
/// the polling interval of the completion thread). Reproduces the paper's
/// DMA row: 2.8/4.2/5.2/8.5 ms at 1/4/8/16 MB.
struct DmaConfig {
  std::uint64_t max_transfer = 2 << 20;  ///< hardware job-size cap
  double bw_bytes_per_sec = 2.6e9;       ///< effective engine bandwidth
  /// Job setup (descriptor write + doorbell + completion): latency added to
  /// each job but overlappable across jobs — pipelined segments hide it.
  sim::Duration setup_latency = 2'400'000;
  int queue_depth = 64;
};

enum class DmaDir { dpu_to_host, host_to_dpu };

class DmaEngine {
 public:
  using JobCb = std::function<void(Status)>;

  /// `name` scopes this engine's faults: a "doca.dma_error" spec with
  /// match=<name> hits only this engine.
  DmaEngine(sim::Env& env, PcieLink& link, DmaConfig cfg, std::string name = "");

  DmaEngine(const DmaEngine&) = delete;
  DmaEngine& operator=(const DmaEngine&) = delete;

  /// Submit a copy job; `cb` fires at modeled completion (success or
  /// injected failure). Fails fast with too_large (over the hardware cap),
  /// invalid_argument (bad bufs / length mismatch) or busy (queue full).
  /// A sampled `ctx` records a "doca.dma_job" span for this job (the source
  /// offset disambiguates same-op segments).
  Status submit(const Buf& src, const Buf& dst, DmaDir dir, JobCb cb,
                const trace::TraceContext& ctx = {});

  [[nodiscard]] const DmaConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t jobs_completed() const noexcept { return jobs_done_; }
  [[nodiscard]] std::uint64_t bytes_moved() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t jobs_failed() const noexcept { return failed_; }
  [[nodiscard]] int inflight() const noexcept { return inflight_.load(); }

  /// Error injection, backed by the env's FaultRegistry "doca.dma_error"
  /// point scoped to this engine's name: every job fails with probability
  /// `rate`; `fail_next(n)` deterministically fails the next n jobs.
  /// Equivalent to `fault set doca.dma_error p=<rate> match=<name>` on the
  /// admin socket.
  void set_failure_rate(double rate);
  void fail_next(int n);

 private:
  sim::Env& env_;
  PcieLink& link_;
  DmaConfig cfg_;
  std::string name_;

  sim::SerialResource engine_;

  std::atomic<int> inflight_{0};
  std::atomic<std::uint64_t> jobs_done_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> failed_{0};
};

}  // namespace doceph::doca
