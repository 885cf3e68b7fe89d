// Self-test of the benchmark's own arithmetic and checks (analysis.h): exact
// quantiles and the ten-beyond rule, span self times on an overlapping
// tree, per-op normalisation, and that corrupted outputs fail the checker.
// Exits non-zero on the first failed expectation.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "analysis.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void test_quantiles() {
  expect(e2ebench::quantile_rank(1000, 990) == 990, "p99 of 1000 is rank 990");
  expect(e2ebench::quantile_rank(1001, 990) == 991, "p99 of 1001 rounds the rank up");
  expect(e2ebench::quantile_rank(1, 500) == 1, "p50 of one sample is that sample");
  expect(e2ebench::samples_beyond(1000, 990) == 10, "1000 samples leave 10 beyond p99");
  expect(e2ebench::samples_beyond(999, 990) == 9, "999 samples leave 9 beyond p99");
  expect(e2ebench::min_samples_for(990, 10) == 1000, "p99 needs 1000 samples");

  std::vector<double> lat(1000);
  std::iota(lat.begin(), lat.end(), 1.0);  // 1..1000, shuffled order below
  std::reverse(lat.begin(), lat.end());
  auto s = e2ebench::summarize_latency(lat);
  expect(s.p50_ns == 500 && s.p99_ns == 990, "exact nearest-rank p50/p99");
  expect(s.p99_supported() && s.beyond_p99 == 10, "1000 samples support p99");

  // Failures sort as +inf: ten of them push p99 up to the last real sample.
  std::vector<double> with_failures(990, 1.0);
  with_failures.insert(with_failures.end(), 10, e2ebench::kFailedSample);
  s = e2ebench::summarize_latency(with_failures);
  expect(s.failed == 10 && s.p99_ns == 1.0, "ten failures sit beyond p99");
  with_failures.push_back(e2ebench::kFailedSample);
  s = e2ebench::summarize_latency(with_failures);
  expect(s.p99_ns == e2ebench::kFailedSample, "eleven failures make p99 a failure");

  std::vector<double> short_run(999, 1.0);
  expect(!e2ebench::summarize_latency(short_run).p99_supported(),
         "999 samples do not support p99");
}

void test_self_times() {
  // root [0,100) -> a [10,60) -> a1 [20,30)
  //              -> b [40,90)  (overlaps a on [40,60))
  //              -> c [95,120) (runs past the root: clipped to [95,100))
  // orphan [0,100) has an unknown parent and is ignored.
  const std::vector<e2ebench::SpanRec> spans = {
      {1, 0, "root", 0, 100},  {2, 1, "a", 10, 60},  {3, 2, "a1", 20, 30},
      {4, 1, "b", 40, 90},     {5, 1, "c", 95, 120}, {6, 99, "orphan", 0, 100},
  };
  const auto self = e2ebench::self_times(spans, 1);
  std::int64_t sum = 0;
  for (const auto& [name, ns] : self) sum += ns;
  expect(sum == 100, "self times sum to the root's duration");
  // Overlap [40,60) goes to b, the later-started sibling.
  expect(self.at("a1") == 10, "leaf keeps its whole interval");
  expect(self.at("a") == 20, "a keeps [10,20) and [30,40)");
  expect(self.at("b") == 50, "b keeps [40,90)");
  expect(self.at("c") == 5, "c is clipped to its parent");
  expect(self.at("root") == 15, "root keeps [0,10), [90,95)");
  expect(self.count("orphan") == 0, "unlinked spans are ignored");
  expect(e2ebench::self_times(spans, 42).empty(), "unknown root gives nothing");

  // Siblings over one interval: the shorter one, then the smaller name, owns it.
  const std::vector<e2ebench::SpanRec> ties = {
      {1, 0, "root", 0, 50}, {7, 1, "stage", 10, 40}, {3, 1, "layer", 10, 40},
      {4, 1, "long", 10, 45}};
  const auto tied = e2ebench::self_times(ties, 1);
  expect(tied.at("layer") == 30 && tied.count("stage") == 0,
         "equal spans: the smaller name owns them");
  expect(tied.at("long") == 5 && tied.at("root") == 15,
         "the longer sibling keeps its tail");
}

void test_normalisation() {
  expect(e2ebench::per_op(500.0, 250).value() == 2.0, "total spread per op");
  expect(e2ebench::per_op(500.0, 0).value() == 0.0, "zero ops read as zero");
  expect(e2ebench::per_op(500.0, 250).base == 250.0, "the base is kept");
  expect(e2ebench::delta(10, 25) == 15.0, "counter delta");
  expect(e2ebench::delta(25, 10) == 0.0, "a reset gauge clamps at zero");
}

void test_checker() {
  const auto good = e2ebench::make_payload(7, 3, 4096);
  const std::uint32_t crc = good.crc32c();
  expect(e2ebench::make_payload(7, 3, 4096).crc32c() == crc, "payloads are seeded");
  expect(e2ebench::make_payload(8, 3, 4096).crc32c() != crc, "seeds differ in content");

  e2ebench::Checker ok;
  ok.check_payload(good, 4096, crc);
  ok.check_size(4096, 4096);
  expect(ok.ok() && ok.checked == 2, "matching outputs pass");

  std::string bytes(4096, '\0');
  good.copy_out(0, bytes.size(), bytes.data());
  bytes[1234] ^= 0x01;
  e2ebench::Checker corrupt;
  corrupt.check_payload(doceph::BufferList::copy_of(bytes), 4096, crc);
  expect(!corrupt.ok() && corrupt.bad_payloads == 1, "a flipped bit fails the check");

  e2ebench::Checker truncated;
  truncated.check_payload(good.substr(0, 4095), 4096, crc);
  expect(!truncated.ok(), "a short payload fails the check");

  e2ebench::Checker size;
  size.check_size(16384, 1 << 20);
  expect(!size.ok() && size.bad_sizes == 1, "a wrong object size fails the check");

  std::size_t low = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double u = e2ebench::spread_draw(9, i);
    expect(u >= 0 && u < 1, "spread_draw stays in [0, 1)");
    low += u < 0.1 ? 1 : 0;
  }
  expect(low >= 95 && low <= 105, "1000 spread draws put ~100 below 0.1");
  expect(e2ebench::spread_draw(9, 5) != e2ebench::spread_draw(10, 5),
         "seeds shift the phase");

  const e2ebench::Zipf z(128, 0.99);
  expect(z.draw(0.0) == 0 && z.draw(0.999999) == 127, "zipf covers every rank");
  expect(e2ebench::unit(~0ull) < 1.0, "unit() stays below one");
}

}  // namespace

int main() {
  test_quantiles();
  test_self_times();
  test_normalisation();
  test_checker();
  if (failures > 0) {
    std::fprintf(stderr, "e2ebench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("e2ebench_selftest: OK\n");
  return 0;
}
