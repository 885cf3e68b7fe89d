#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "common/interval_set.h"
#include "dbg/mutex.h"
#include "doca/mmap.h"
#include "sim/env.h"

namespace doceph::proxy {

/// The paired DMA buffers of Fig. 4, carved at byte granularity: one
/// staging region in DPU memory plus the matching pre-exported write region
/// in host memory (the MR cache — registered once and reused, paper §3.3).
/// A reservation of `len` bytes takes the same [off, off+len) of both, so
/// concurrent sub-segment DMA jobs co-reside and overlap their setup
/// latency, while a full-size segment still fills a whole `segment_size`
/// stretch. Free space is an IntervalSet searched first-fit; admission is
/// FIFO, so a large reservation queued behind small ones is served before
/// any later request. Time a reservation spends queued is the "DMA-wait"
/// component of Table 3.
class StagingArena {
 public:
  /// Runs once with the carved extent's offset.
  using ReserveCb = std::function<void(std::size_t off)>;

  /// Capacity is `slots * segment_size` bytes per side.
  StagingArena(sim::Env& env, int slots, std::size_t segment_size);

  /// Reserve `len` contiguous bytes (`len` must not exceed capacity()).
  /// `cb` runs on the calling thread if the bytes fit now and nobody is
  /// queued; otherwise the reservation queues and `cb` runs from the
  /// release() that lets it through, once every earlier one was served.
  /// `cb` never runs under the arena's lock.
  void reserve_async(std::size_t len, ReserveCb cb);
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

  /// Cumulative simulated time reservations, writes' and reads', spent queued.
  [[nodiscard]] sim::Duration total_wait_ns() const;

 private:
  struct Waiter {
    std::size_t len;
    ReserveCb cb;
    sim::Time since;
  };

  /// First-fit carve; nullopt when no free extent is large enough.
  std::optional<std::size_t> carve(std::size_t len) DOCEPH_REQUIRES(mutex_);

  sim::Env& env_;
  std::size_t capacity_;
  doca::MmapRef dpu_mmap_;
  doca::MmapRef host_mmap_;

  mutable dbg::Mutex mutex_{"proxy.staging_arena"};
  IntervalSet<std::size_t> free_ DOCEPH_GUARDED_BY(mutex_);
  /// Queued reservations, oldest first; only the head may carve.
  std::deque<Waiter> waiters_ DOCEPH_GUARDED_BY(mutex_);
  sim::Duration total_wait_ DOCEPH_GUARDED_BY(mutex_) = 0;
};

}  // namespace doceph::proxy
