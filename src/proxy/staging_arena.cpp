#include "proxy/staging_arena.h"

#include <cassert>
#include <utility>
#include <vector>

namespace doceph::proxy {

StagingArena::StagingArena(sim::Env& env, int slots, std::size_t segment_size)
    : env_(env),
      capacity_(static_cast<std::size_t>(slots) * segment_size),
      dpu_mmap_(std::make_shared<doca::Mmap>(capacity_)),
      host_mmap_(std::make_shared<doca::Mmap>(capacity_ + landing_capacity())) {
  const dbg::LockGuard lk(mutex_);
  paired_.free.insert(0, capacity_);
  landing_.free.insert(capacity_, landing_capacity());
}

void StagingArena::reserve_async(std::size_t len, ReserveCb cb) {
  assert(len > 0 && len <= capacity_);
  reserve(Part::paired, len, std::move(cb));
}

void StagingArena::release(std::size_t off, std::size_t len) {
  assert(off + len <= capacity_);
  release(Part::paired, off, len);
}

void StagingArena::reserve_landing_async(std::size_t len, ReserveCb cb) {
  assert(len > 0 && len <= landing_capacity());
  reserve(Part::landing, len, std::move(cb));
}

void StagingArena::release_landing(std::size_t off, std::size_t len) {
  assert(off >= capacity_ && off + len <= capacity_ + landing_capacity());
  release(Part::landing, off, len);
}

void StagingArena::reserve(Part p, std::size_t len, ReserveCb cb) {
  std::optional<std::size_t> off;
  {
    const dbg::LockGuard lk(mutex_);
    FreeList& fl = part(p);
    if (fl.waiters.empty()) off = carve(fl, len);
    if (!off) {
      fl.waiters.push_back(Waiter{len, std::move(cb), env_.now()});
      return;
    }
  }
  cb(*off);
}

std::optional<std::size_t> StagingArena::carve(FreeList& fl, std::size_t len) {
  const auto it = fl.free.find_first_fit(len);
  if (it == fl.free.end()) return std::nullopt;
  const std::size_t off = it->first;
  fl.free.erase(off, len);
  return off;
}

void StagingArena::release(Part p, std::size_t off, std::size_t len) {
  std::vector<std::pair<ReserveCb, std::size_t>> served;
  {
    const dbg::LockGuard lk(mutex_);
    FreeList& fl = part(p);
    fl.free.insert(off, len);
    while (!fl.waiters.empty()) {
      Waiter& head = fl.waiters.front();
      const auto got = carve(fl, head.len);
      if (!got) break;
      fl.wait += env_.now() - head.since;
      served.emplace_back(std::move(head.cb), *got);
      fl.waiters.pop_front();
    }
  }
  for (auto& [cb, got] : served) cb(got);
}

std::size_t StagingArena::free_bytes() const {
  const dbg::LockGuard lk(mutex_);
  return paired_.free.size();
}

std::size_t StagingArena::free_extents() const {
  const dbg::LockGuard lk(mutex_);
  return paired_.free.num_intervals();
}

std::size_t StagingArena::landing_free_bytes() const {
  const dbg::LockGuard lk(mutex_);
  return landing_.free.size();
}

sim::Duration StagingArena::total_wait_ns() const {
  const dbg::LockGuard lk(mutex_);
  return paired_.wait + landing_.wait;
}

}  // namespace doceph::proxy
