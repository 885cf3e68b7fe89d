#pragma once

// Pure, cluster-free pieces of the end-to-end benchmark: exact latency
// quantiles, per-op normalisation, span self-time attribution, seeded
// inputs and the output checks. Kept apart from the cluster-driving code so the
// self-test (selftest.cpp) can exercise each one on hand-built inputs.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/buffer.h"

namespace e2ebench {

// ---- latency ------------------------------------------------------------------

/// A failed or timed-out op's latency sample: it misses every latency
/// limit, so it sorts after every completed op in the percentiles.
inline constexpr double kFailedSample = 1e300;

/// 1-based nearest rank of quantile `permille`/1000 over `n` samples:
/// ceil(n * permille / 1000), computed in integers so that p99 of 1000
/// samples is exactly rank 990.
[[nodiscard]] std::size_t quantile_rank(std::size_t n, unsigned permille);

/// Samples strictly beyond the `permille` quantile's rank.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, unsigned permille);

/// Smallest sample count whose `permille` quantile has at least `beyond`
/// samples past it (1000 for p99 with 10 beyond).
[[nodiscard]] std::size_t min_samples_for(unsigned permille, std::size_t beyond);

struct LatencySummary {
  std::size_t samples = 0;  ///< every attempted op, failures included
  std::size_t failed = 0;   ///< samples equal to kFailedSample
  double p50_ns = 0;
  double p99_ns = 0;
  std::size_t beyond_p99 = 0;  ///< samples past the p99 rank
  /// True when p99 has at least ten samples beyond it.
  [[nodiscard]] bool p99_supported() const noexcept { return beyond_p99 >= 10; }
};

/// Exact nearest-rank p50/p99 over every sample (sorted in place).
[[nodiscard]] LatencySummary summarize_latency(std::vector<double>& samples);

// ---- normalisation ---------------------------------------------------------------

/// A normalised metric and the base it was divided by, so a printed ratio
/// always carries its denominator. A zero base reads as 0.
struct Ratio {
  double num = 0;
  double base = 0;
  [[nodiscard]] double value() const noexcept { return base > 0 ? num / base : 0.0; }
};

/// `total` spread over `ops` completed ops.
[[nodiscard]] inline Ratio per_op(double total, std::uint64_t ops) {
  return Ratio{total, static_cast<double>(ops)};
}

/// Cumulative-counter delta over the measured window, clamped at zero for
/// gauges that a reset moved backwards.
[[nodiscard]] inline double delta(std::uint64_t before, std::uint64_t after) {
  return after >= before ? static_cast<double>(after - before) : 0.0;
}

// ---- span self time -----------------------------------------------------------

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Self time per span name for the tree under `root_id`: every instant of
/// the root's interval goes to exactly one span, the deepest one open at
/// that instant (children are clipped to their parent's interval; among
/// overlapping spans of equal depth the latest-started wins, then the one
/// ending first, then the smaller name and id). Self times therefore sum
/// exactly to the root's duration, and a span's self time is its duration
/// minus the part its children cover. Spans not linked to the root through
/// parent ids are ignored.
[[nodiscard]] std::map<std::string, std::int64_t> self_times(
    const std::vector<SpanRec>& spans, std::uint64_t root_id);

// ---- seeded inputs ------------------------------------------------------------

/// splitmix64 of (seed, index): the per-op randomness source, independent of
/// which generator thread claims the op.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t index);

/// Uniform double in [0, 1) from a 64-bit draw.
[[nodiscard]] inline double unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Draw i of a seeded low-discrepancy sequence in [0, 1): frac(u0 + i/phi)
/// with u0 taken from the seed. Any window of n draws matches the uniform
/// distribution to O(log n / n), so two seeds give the same object mix in a
/// different phase instead of two different i.i.d. samples of it.
[[nodiscard]] double spread_draw(std::uint64_t seed, std::uint64_t i);

/// Deterministic payload content for (seed, index).
[[nodiscard]] doceph::BufferList make_payload(std::uint64_t seed, std::uint64_t index,
                                              std::size_t len);

/// Zipf(s) over ranks 0..n-1 via an inverted CDF (rank 0 hottest).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t draw(double u) const;

 private:
  std::vector<double> cdf_;
};

// ---- output checks -------------------------------------------------------------

/// Tallies output mismatches; the benchmark exits non-zero unless ok().
struct Checker {
  std::uint64_t checked = 0;
  std::uint64_t bad_payloads = 0;
  std::uint64_t bad_sizes = 0;

  /// A read's returned bytes against the seeded content's length and crc32c.
  void check_payload(const doceph::BufferList& got, std::size_t want_len,
                     std::uint32_t want_crc);
  /// A stat's size against the size last acknowledged for the object.
  void check_size(std::uint64_t got, std::uint64_t want);
  [[nodiscard]] bool ok() const noexcept { return bad_payloads == 0 && bad_sizes == 0; }
};

}  // namespace e2ebench
