#pragma once

#include <string>
#include <vector>

#include "client/rados_client.h"
#include "common/histogram.h"

namespace doceph::client {

/// Configuration mirroring `rados bench <sec> write -t <concurrency> -b <size>`,
/// the workload generator in the paper's evaluation (§5.1).
struct BenchConfig {
  os::pool_t pool = 1;
  int concurrency = 16;                    ///< outstanding ops (-t)
  std::uint64_t object_size = 4 << 20;     ///< bytes per object (-b)
  sim::Duration duration = 10'000'000'000; ///< 10 s
  std::string prefix = "bench";            ///< object name prefix
};

struct BenchResult {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;  ///< ops that completed with an error status
  double seconds = 0;
  Histogram::Snapshot latency;  ///< per-op latency, nanoseconds

  [[nodiscard]] double iops() const { return seconds > 0 ? static_cast<double>(ops) / seconds : 0; }
  [[nodiscard]] double bandwidth_bytes_per_sec(std::uint64_t object_size) const {
    return iops() * static_cast<double>(object_size);
  }
  [[nodiscard]] double avg_latency_s() const { return latency.mean() * 1e-9; }
  [[nodiscard]] double p99_latency_s() const { return latency.quantile(0.99) * 1e-9; }
};

/// Closed-loop write benchmark: `concurrency` writer threads, each keeping
/// one op outstanding, writing distinct objects until the clock runs out.
class RadosBench {
 public:
  RadosBench(RadosClient& client, BenchConfig cfg) : client_(client), cfg_(cfg) {}

  /// Run to completion (blocking; call from a sim thread). `domain` is the
  /// CPU domain the writer threads run on (the client node's CPU).
  BenchResult run(sim::CpuDomain* domain = nullptr);

 private:
  RadosClient& client_;
  BenchConfig cfg_;
};

}  // namespace doceph::client
