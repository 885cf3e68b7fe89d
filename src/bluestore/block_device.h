#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "dbg/io_gate.h"
#include "dbg/mutex.h"
#include "sim/env.h"
#include "sim/resource.h"

namespace doceph::bluestore {

/// Performance model of one SSD (defaults approximate the paper testbed's
/// Samsung PM893 SATA device).
struct BlockDeviceConfig {
  std::uint64_t size_bytes = 256ull << 30;
  double write_bw = 530e6;             ///< bytes/sec sequential write
  double read_bw = 550e6;              ///< bytes/sec sequential read
  sim::Duration write_latency = 60'000;   ///< per-IO latency (ns)
  sim::Duration read_latency = 90'000;
  /// Offsets below this boundary always retain their bytes (the WAL/KV
  /// region must replay after a crash); beyond it, bytes are retained only
  /// when `retain_data` — benches turn that off so multi-GB write runs don't
  /// hold multi-GB of host RAM, while the timing model is unaffected.
  std::uint64_t retain_below = 1ull << 30;
  bool retain_data = true;
  /// Fault scope: "bdev.io_error"/"bdev.latency_spike" specs match this name.
  std::string name;
};

/// Memory backing that survives BlueStore remount/crash within a process.
/// Sparse: 256 KiB chunks allocated on first write.
class DeviceBacking {
 public:
  static constexpr std::uint64_t kChunk = 256 << 10;

  void write(std::uint64_t off, const BufferList& data);
  void read(std::uint64_t off, std::uint64_t len, char* out) const;
  void discard_all() {
    const dbg::LockGuard lk(mutex_);
    chunks_.clear();
  }

 private:
  mutable dbg::Mutex mutex_{"bluestore.backing"};
  // chunk index -> bytes
  std::map<std::uint64_t, std::vector<char>> chunks_ DOCEPH_GUARDED_BY(mutex_);
};

/// The simulated block device: serializes IO through one channel at the
/// configured bandwidth plus per-IO latency; completion callbacks fire from
/// the event scheduler at the modeled instant.
class BlockDevice {
 public:
  using IoCb = std::function<void(Status)>;
  using ReadCb = std::function<void(Result<BufferList>)>;

  BlockDevice(sim::Env& env, BlockDeviceConfig cfg,
              std::shared_ptr<DeviceBacking> backing = nullptr);

  /// Disarms completions still queued on the (longer-lived) event scheduler
  /// and waits out any completion mid-execution: a crash/teardown may destroy
  /// the device with IO in flight, and a stale completion would otherwise
  /// touch freed memory.
  ~BlockDevice();

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  /// Asynchronous write; data becomes visible in the backing at completion.
  void aio_write(std::uint64_t off, BufferList data, IoCb cb);
  void aio_read(std::uint64_t off, std::uint64_t len, ReadCb cb);

  /// Synchronous read: blocks the calling sim thread for the modeled time.
  Result<BufferList> read(std::uint64_t off, std::uint64_t len);
  /// Synchronous write (used by mkfs and the KV sync thread).
  Status write(std::uint64_t off, BufferList data);

  /// Completes after everything previously submitted has completed.
  void flush(IoCb cb);

  [[nodiscard]] std::uint64_t size() const noexcept { return cfg_.size_bytes; }
  [[nodiscard]] const BlockDeviceConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::shared_ptr<DeviceBacking> backing() const noexcept {
    return backing_;
  }

  /// Total bytes written/read (diagnostics, iostat-style).
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  [[nodiscard]] std::uint64_t bytes_read() const noexcept { return bytes_read_; }

 private:
  [[nodiscard]] bool in_range(std::uint64_t off, std::uint64_t len) const noexcept {
    return off + len <= cfg_.size_bytes && off + len >= off;
  }
  [[nodiscard]] bool should_retain(std::uint64_t off) const noexcept {
    return cfg_.retain_data || off < cfg_.retain_below;
  }

  /// Schedule `work` at simulated time `done`; `work` is dropped if the
  /// device is destroyed first, and the destructor waits for it otherwise.
  void schedule_io(sim::Time done, std::function<void()> work);

  /// Consult "bdev.io_error" / "bdev.latency_spike" fault points for one IO.
  void fault_adjust(sim::Time& done, bool& fail);

  sim::Env& env_;
  BlockDeviceConfig cfg_;
  std::shared_ptr<DeviceBacking> backing_;
  sim::SerialResource channel_;
  std::shared_ptr<dbg::IoGate> gate_ = std::make_shared<dbg::IoGate>();
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
};

}  // namespace doceph::bluestore
