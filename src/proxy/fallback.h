#pragma once

#include <atomic>
#include <cstdint>

#include "dbg/mutex.h"
#include "sim/time.h"

namespace doceph::proxy {

/// The paper's adaptive fallback (§4): after a DMA error the data path
/// reverts to socket-style RPC for a cooldown period, then a single probe
/// transfer decides whether DMA can be re-enabled. Thread-safe; the write
/// path consults it per segment.
class FallbackManager {
 public:
  explicit FallbackManager(sim::Duration cooldown) : cooldown_(cooldown) {}

  enum class Path {
    dma,    ///< normal fast path
    probe,  ///< cooldown expired: this transfer is the test DMA
    rpc,    ///< DMA disabled: route through the control channel
  };

  /// Pick the path for the next segment.
  Path choose(sim::Time now) {
    const dbg::LockGuard lk(m_);
    if (!disabled_) return Path::dma;
    if (now >= expiry_ && !probe_outstanding_) {
      probe_outstanding_ = true;
      ++probes_;
      return Path::probe;
    }
    return Path::rpc;
  }

  void on_dma_success() {
    const dbg::LockGuard lk(m_);
    if (disabled_) ++recoveries_;
    disabled_ = false;
    probe_outstanding_ = false;
  }

  /// The probe's request died before its transfer was submitted: the next
  /// choose() hands the probe out again.
  void on_probe_abandoned() {
    const dbg::LockGuard lk(m_);
    probe_outstanding_ = false;
  }

  void on_dma_failure(sim::Time now) {
    const dbg::LockGuard lk(m_);
    disabled_ = true;
    expiry_ = now + cooldown_;
    probe_outstanding_ = false;
    ++failures_;
  }

  [[nodiscard]] bool dma_enabled() const {
    const dbg::LockGuard lk(m_);
    return !disabled_;
  }
  [[nodiscard]] std::uint64_t failures() const {
    const dbg::LockGuard lk(m_);
    return failures_;
  }
  /// Probe transfers handed out by choose() (each cooldown expiry yields one).
  [[nodiscard]] std::uint64_t probes() const {
    const dbg::LockGuard lk(m_);
    return probes_;
  }
  /// disabled -> enabled transitions (successful probes).
  [[nodiscard]] std::uint64_t recoveries() const {
    const dbg::LockGuard lk(m_);
    return recoveries_;
  }

 private:
  mutable dbg::Mutex m_{"proxy.fallback"};
  sim::Duration cooldown_;
  bool disabled_ DOCEPH_GUARDED_BY(m_) = false;
  bool probe_outstanding_ DOCEPH_GUARDED_BY(m_) = false;
  sim::Time expiry_ DOCEPH_GUARDED_BY(m_) = 0;
  std::uint64_t failures_ DOCEPH_GUARDED_BY(m_) = 0;
  std::uint64_t probes_ DOCEPH_GUARDED_BY(m_) = 0;
  std::uint64_t recoveries_ DOCEPH_GUARDED_BY(m_) = 0;
};

}  // namespace doceph::proxy
