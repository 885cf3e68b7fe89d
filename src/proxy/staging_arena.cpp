#include "proxy/staging_arena.h"

#include <cassert>
#include <utility>
#include <vector>

namespace doceph::proxy {

StagingArena::StagingArena(sim::Env& env, int slots, std::size_t segment_size)
    : env_(env),
      capacity_(static_cast<std::size_t>(slots) * segment_size),
      dpu_mmap_(std::make_shared<doca::Mmap>(capacity_)),
      host_mmap_(std::make_shared<doca::Mmap>(capacity_)) {
  const dbg::LockGuard lk(mutex_);
  free_.insert(0, capacity_);
}

void StagingArena::reserve_async(std::size_t len, ReserveCb cb) {
  assert(len > 0 && len <= capacity_);
  std::optional<std::size_t> off;
  {
    const dbg::LockGuard lk(mutex_);
    if (waiters_.empty()) off = carve(len);
    if (!off) {
      waiters_.push_back(Waiter{len, std::move(cb), env_.now()});
      return;
    }
  }
  cb(*off);
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
  std::vector<std::pair<ReserveCb, std::size_t>> served;
  {
    const dbg::LockGuard lk(mutex_);
    free_.insert(off, len);
    while (!waiters_.empty()) {
      Waiter& head = waiters_.front();
      const auto got = carve(head.len);
      if (!got) break;
      total_wait_ += env_.now() - head.since;
      served.emplace_back(std::move(head.cb), *got);
      waiters_.pop_front();
    }
  }
  for (auto& [cb, got] : served) cb(got);
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
