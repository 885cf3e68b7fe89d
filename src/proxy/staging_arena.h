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

/// The DMA buffers of Fig. 4, carved at byte granularity.
///
/// The paired region is one staging region in DPU memory plus the matching
/// pre-exported write region in host memory (the MR cache — registered once
/// and reused, paper §3.3): the first capacity() bytes of each. A
/// reservation of `len` bytes takes the same [off, off+len) of both, so
/// concurrent sub-segment DMA jobs co-reside and overlap their setup
/// latency, while a full-size segment still fills a whole `segment_size`
/// stretch. Write segments and the DMA leg of reads carve it.
///
/// The read landing is host memory only: the 2 x capacity() bytes of the
/// exported host region that follow the paired part. A read carves its
/// bytes there before the host stages the SSD result into them, so the
/// paired region is held only while a read's DMA runs. Twice the paired
/// size lets one arena's worth of reads fill from the SSD while another
/// drains over PCIe.
///
/// Each part has its own free list (an IntervalSet searched first-fit) and
/// its own FIFO of waiters, so a large reservation queued behind small ones
/// is served before any later request of the same part. Time a reservation
/// spends queued is the "DMA-wait" component of Table 3.
class StagingArena {
 public:
  /// Runs once with the carved extent's offset.
  using ReserveCb = std::function<void(std::size_t off)>;

  /// The paired region is `slots * segment_size` bytes per side; the host
  /// region holds the read landing after it.
  StagingArena(sim::Env& env, int slots, std::size_t segment_size);

  /// Reserve `len` contiguous paired bytes (`len` must not exceed
  /// capacity()). `cb` runs on the calling thread if the bytes fit now and
  /// nobody is queued; otherwise the reservation queues and `cb` runs from
  /// the release() that lets it through, once every earlier one was served.
  /// `cb` never runs under the arena's lock.
  void reserve_async(std::size_t len, ReserveCb cb);
  void release(std::size_t off, std::size_t len);

  /// The same for the read landing; `cb` gets a host-region offset, at or
  /// past capacity(), and `len` must not exceed landing_capacity().
  void reserve_landing_async(std::size_t len, ReserveCb cb);
  void release_landing(std::size_t off, std::size_t len);

  /// Paired bytes per side.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t free_bytes() const;
  /// Number of disjoint free paired extents (1 when nothing is reserved).
  [[nodiscard]] std::size_t free_extents() const;
  [[nodiscard]] std::size_t landing_capacity() const noexcept { return 2 * capacity_; }
  [[nodiscard]] std::size_t landing_free_bytes() const;

  [[nodiscard]] doca::Buf dpu_buf(std::size_t off, std::size_t len) const {
    return {dpu_mmap_, off, len};
  }
  /// A paired extent or a landing extent: both are host-region offsets.
  [[nodiscard]] doca::Buf host_buf(std::size_t off, std::size_t len) const {
    return {host_mmap_, off, len};
  }
  [[nodiscard]] doca::MmapRef host_mmap() const noexcept { return host_mmap_; }

  /// Cumulative simulated time reservations spent queued: writes' and
  /// reads', in either part.
  [[nodiscard]] sim::Duration total_wait_ns() const;

 private:
  struct Waiter {
    std::size_t len;
    ReserveCb cb;
    sim::Time since;
  };

  /// One carved part: its free extents and the reservations queued on it.
  struct FreeList {
    IntervalSet<std::size_t> free;
    /// Queued reservations, oldest first; only the head may carve.
    std::deque<Waiter> waiters;
    sim::Duration wait = 0;
  };

  enum class Part { paired, landing };

  void reserve(Part p, std::size_t len, ReserveCb cb);
  void release(Part p, std::size_t off, std::size_t len);
  FreeList& part(Part p) DOCEPH_REQUIRES(mutex_) {
    return p == Part::landing ? landing_ : paired_;
  }
  /// First-fit carve; nullopt when no free extent is large enough.
  static std::optional<std::size_t> carve(FreeList& fl, std::size_t len);

  sim::Env& env_;
  std::size_t capacity_;
  doca::MmapRef dpu_mmap_;
  doca::MmapRef host_mmap_;

  mutable dbg::Mutex mutex_{"proxy.staging_arena"};
  FreeList paired_ DOCEPH_GUARDED_BY(mutex_);
  FreeList landing_ DOCEPH_GUARDED_BY(mutex_);
};

}  // namespace doceph::proxy
