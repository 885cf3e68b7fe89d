#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "common/interval_set.h"
#include "dbg/cond_var.h"
#include "dbg/mutex.h"
#include "doca/mmap.h"
#include "sim/env.h"
#include "sim/time_keeper.h"

namespace doceph::proxy {

/// The paired DMA buffers of Fig. 4, carved at byte granularity: one
/// staging region in DPU memory plus the matching pre-exported write region
/// in host memory (the MR cache — registered once and reused, paper §3.3).
/// A reservation of `len` bytes takes the same [off, off+len) of both, so
/// concurrent sub-segment DMA jobs co-reside and overlap their setup
/// latency, while a full-size segment still fills a whole `segment_size`
/// stretch. Free space is an IntervalSet searched first-fit; admission is
/// FIFO, so a large reservation queued behind small ones is served before
/// any later request. Time blocked in reserve() is the "DMA-wait"
/// component of Table 3.
class StagingArena {
 public:
  /// Capacity is `slots * segment_size` bytes per side.
  StagingArena(sim::Env& env, int slots, std::size_t segment_size);

  /// Block until `len` contiguous bytes are free and every earlier waiter
  /// was served; returns the extent's offset. `len` must not exceed
  /// capacity().
  std::size_t reserve(std::size_t len);
  /// Bounded variant: give up after `timeout` (nullopt on timeout). The
  /// proxy's backpressure path uses this so a wedged DMA pipeline surfaces
  /// as a throttled txn instead of a worker blocked forever.
  std::optional<std::size_t> reserve_for(std::size_t len, sim::Duration timeout);
  /// Non-blocking variant; fails while anyone is queued (no queue jumping).
  std::optional<std::size_t> try_reserve(std::size_t len);
  void release(std::size_t off, std::size_t len);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t free_bytes() const;
  /// Number of disjoint free extents (1 when nothing is reserved).
  [[nodiscard]] std::size_t free_extents() const;

  [[nodiscard]] doca::Buf dpu_buf(std::size_t off, std::size_t len) const {
    return {dpu_mmap_, off, len};
  }
  [[nodiscard]] doca::Buf host_buf(std::size_t off, std::size_t len) const {
    return {host_mmap_, off, len};
  }
  [[nodiscard]] doca::MmapRef host_mmap() const noexcept { return host_mmap_; }

  /// Cumulative simulated time spent blocked in reserve() (DMA-wait).
  [[nodiscard]] sim::Duration total_wait_ns() const;

 private:
  /// Queue `len`, wait (until `deadline`, if any) to reach the head with a
  /// fit, then carve it. nullopt on timeout.
  std::optional<std::size_t> admit(std::size_t len,
                                   std::optional<sim::Time> deadline);
  /// First-fit carve; nullopt when no free extent is large enough.
  std::optional<std::size_t> carve(std::size_t len) DOCEPH_REQUIRES(mutex_);

  sim::Env& env_;
  std::size_t capacity_;
  doca::MmapRef dpu_mmap_;
  doca::MmapRef host_mmap_;

  mutable dbg::Mutex mutex_{"proxy.staging_arena"};
  dbg::CondVar cv_;
  IntervalSet<std::size_t> free_ DOCEPH_GUARDED_BY(mutex_);
  /// Tickets of blocked reservations, oldest first.
  std::deque<std::uint64_t> waiters_ DOCEPH_GUARDED_BY(mutex_);
  std::uint64_t next_ticket_ DOCEPH_GUARDED_BY(mutex_) = 0;
  sim::Duration total_wait_ DOCEPH_GUARDED_BY(mutex_) = 0;
};

}  // namespace doceph::proxy
