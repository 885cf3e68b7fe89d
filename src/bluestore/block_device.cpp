#include "bluestore/block_device.h"

#include <algorithm>
#include <cstring>

#include "dbg/cond_var.h"
#include "sim/time_keeper.h"

namespace doceph::bluestore {

void DeviceBacking::write(std::uint64_t off, const BufferList& data) {
  const dbg::LockGuard lk(mutex_);
  std::uint64_t pos = 0;
  while (pos < data.length()) {
    const std::uint64_t abs = off + pos;
    const std::uint64_t chunk = abs / kChunk;
    const std::uint64_t in_chunk = abs % kChunk;
    const std::uint64_t n = std::min<std::uint64_t>(kChunk - in_chunk,
                                                    data.length() - pos);
    auto& bytes = chunks_[chunk];
    if (bytes.empty()) bytes.assign(kChunk, '\0');
    data.copy_out(pos, n, bytes.data() + in_chunk);
    pos += n;
  }
}

void DeviceBacking::read(std::uint64_t off, std::uint64_t len, char* out) const {
  const dbg::LockGuard lk(mutex_);
  std::uint64_t pos = 0;
  while (pos < len) {
    const std::uint64_t abs = off + pos;
    const std::uint64_t chunk = abs / kChunk;
    const std::uint64_t in_chunk = abs % kChunk;
    const std::uint64_t n = std::min<std::uint64_t>(kChunk - in_chunk, len - pos);
    auto it = chunks_.find(chunk);
    if (it == chunks_.end()) {
      std::memset(out + pos, 0, n);
    } else {
      std::memcpy(out + pos, it->second.data() + in_chunk, n);
    }
    pos += n;
  }
}

BlockDevice::BlockDevice(sim::Env& env, BlockDeviceConfig cfg,
                         std::shared_ptr<DeviceBacking> backing)
    : env_(env),
      cfg_(cfg),
      backing_(backing ? std::move(backing) : std::make_shared<DeviceBacking>()) {}

BlockDevice::~BlockDevice() {  // NOLINT(bugprone-exception-escape): teardown drains in-flight IO; a throw terminates, by design
  // A completion the scheduler thread is already executing holds no
  // reference into *this once it returns; wait it out (real time, bounded —
  // the completion bodies never block).
  gate_->close();
}

void BlockDevice::fault_adjust(sim::Time& done, bool& fail) {
  auto& faults = env_.faults();
  if (!faults.any_armed()) return;
  const sim::Time now = env_.now();
  fail = faults.should_fire("bdev.io_error", now, cfg_.name);
  const fault::FaultHit spike = faults.hit("bdev.latency_spike", now, cfg_.name);
  if (spike.fired)
    done += static_cast<sim::Duration>(spike.delay_ns != 0 ? spike.delay_ns
                                                           : 10'000'000);
}

void BlockDevice::schedule_io(sim::Time done, std::function<void()> work) {
  // Dropped if the device died with this IO in flight.
  env_.scheduler().schedule_at(done, dbg::gated(gate_, std::move(work)));
}

void BlockDevice::aio_write(std::uint64_t off, BufferList data, IoCb cb) {
  if (!in_range(off, data.length())) {
    if (cb) cb(Status(Errc::range_error, "write past device end"));
    return;
  }
  bytes_written_.fetch_add(data.length(), std::memory_order_relaxed);
  sim::Time done =
      channel_.reserve(env_.now(), sim::transfer_time(data.length(), cfg_.write_bw)) +
      cfg_.write_latency;
  bool fail = false;
  fault_adjust(done, fail);
  const bool retain = should_retain(off) && !fail;
  schedule_io(done, [this, off, data = std::move(data), cb = std::move(cb), retain,
                     fail] {
    // A failed IO spends the device time but leaves the media untouched.
    if (retain) backing_->write(off, data);
    if (cb) cb(fail ? Status(Errc::io_error, "fault injected: bdev.io_error")
                    : Status::OK());
  });
}

void BlockDevice::aio_read(std::uint64_t off, std::uint64_t len, ReadCb cb) {
  if (!in_range(off, len)) {
    if (cb) cb(Status(Errc::range_error, "read past device end"));
    return;
  }
  bytes_read_.fetch_add(len, std::memory_order_relaxed);
  sim::Time done =
      channel_.reserve(env_.now(), sim::transfer_time(len, cfg_.read_bw)) +
      cfg_.read_latency;
  bool fail = false;
  fault_adjust(done, fail);
  schedule_io(done, [this, off, len, cb = std::move(cb), fail] {
    if (fail) {
      cb(Status(Errc::io_error, "fault injected: bdev.io_error"));
      return;
    }
    Slice s = Slice::allocate(len);
    backing_->read(off, len, s.mutable_data());
    BufferList bl;
    bl.append(std::move(s));
    cb(std::move(bl));
  });
}

Result<BufferList> BlockDevice::read(std::uint64_t off, std::uint64_t len) {
  return dbg::await<Result<BufferList>>(
      env_.keeper(), "bluestore.bdev_wait",
      [&](ReadCb done) { aio_read(off, len, std::move(done)); });
}

Status BlockDevice::write(std::uint64_t off, BufferList data) {
  return dbg::await<Status>(env_.keeper(), "bluestore.bdev_wait", [&](IoCb done) {
    aio_write(off, std::move(data), std::move(done));
  });
}

void BlockDevice::flush(IoCb cb) {
  // Everything already booked on the channel is durable once the channel
  // drains; model flush as a zero-length barrier IO.
  const sim::Time done = channel_.reserve(env_.now(), 0);
  schedule_io(done, [cb = std::move(cb)] {
    if (cb) cb(Status::OK());
  });
}

}  // namespace doceph::bluestore
