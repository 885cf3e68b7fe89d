#include "proxy/staging_arena.h"

#include <algorithm>
#include <cassert>

namespace doceph::proxy {

StagingArena::StagingArena(sim::Env& env, int slots, std::size_t segment_size)
    : env_(env),
      capacity_(static_cast<std::size_t>(slots) * segment_size),
      dpu_mmap_(std::make_shared<doca::Mmap>(capacity_)),
      host_mmap_(std::make_shared<doca::Mmap>(capacity_)),
      cv_(env.keeper(), "proxy.staging_arena_cv") {
  const dbg::LockGuard lk(mutex_);
  free_.insert(0, capacity_);
}

std::size_t StagingArena::reserve(std::size_t len) {
  return *admit(len, std::nullopt);
}

std::optional<std::size_t> StagingArena::reserve_for(std::size_t len,
                                                     sim::Duration timeout) {
  return admit(len, env_.now() + timeout);
}

std::optional<std::size_t> StagingArena::try_reserve(std::size_t len) {
  assert(len > 0 && len <= capacity_);
  const dbg::LockGuard lk(mutex_);
  if (!waiters_.empty()) return std::nullopt;
  return carve(len);
}

std::optional<std::size_t> StagingArena::admit(std::size_t len,
                                               std::optional<sim::Time> deadline) {
  assert(len > 0 && len <= capacity_);
  const sim::Time t0 = env_.now();
  dbg::UniqueLock lk(mutex_);
  std::optional<std::size_t> off;
  if (waiters_.empty()) off = carve(len);
  if (!off) {
    const std::uint64_t ticket = next_ticket_++;
    waiters_.push_back(ticket);
    auto served = [&] {
      mutex_.assert_held();  // predicate runs as a separate function
      if (waiters_.front() == ticket) off = carve(len);
      return off.has_value();
    };
    if (deadline)
      (void)cv_.wait_until(lk, *deadline, served);
    else
      cv_.wait(lk, served);
    // Served or timed out, this ticket leaves the queue; whoever is head
    // now may already fit.
    waiters_.erase(std::find(waiters_.begin(), waiters_.end(), ticket));
    cv_.notify_all();
  }
  total_wait_ += env_.now() - t0;
  return off;
}

std::optional<std::size_t> StagingArena::carve(std::size_t len) {
  const auto it = free_.find_first_fit(len);
  if (it == free_.end()) return std::nullopt;
  const std::size_t off = it->first;
  free_.erase(off, len);
  return off;
}

void StagingArena::release(std::size_t off, std::size_t len) {
  assert(off + len <= capacity_);
  const dbg::LockGuard lk(mutex_);
  free_.insert(off, len);
  cv_.notify_all();
}

std::size_t StagingArena::free_bytes() const {
  const dbg::LockGuard lk(mutex_);
  return free_.size();
}

std::size_t StagingArena::free_extents() const {
  const dbg::LockGuard lk(mutex_);
  return free_.num_intervals();
}

sim::Duration StagingArena::total_wait_ns() const {
  const dbg::LockGuard lk(mutex_);
  return total_wait_;
}

}  // namespace doceph::proxy
