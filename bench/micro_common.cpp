// Google-benchmark microbenchmarks of the hot real-computation primitives:
// crc32c (every message pays it), bufferlist rope operations, and the
// denc-style encoding. These run in real time (no simulation involved).
#include <benchmark/benchmark.h>

#include "common/buffer.h"
#include "common/crc32c.h"
#include "common/encoding.h"
#include "common/histogram.h"
#include "crush/crush_map.h"
#include "os/transaction.h"

namespace {

using namespace doceph;

void BM_Crc32c(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<char> buf(n, 'x');
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = crc32c(crc, buf.data(), n);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32c)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_BufferListAppend(benchmark::State& state) {
  const Slice chunk = Slice::copy_of(std::string(4096, 'a'));
  for (auto _ : state) {
    BufferList bl;
    for (int i = 0; i < 64; ++i) bl.append(chunk);
    benchmark::DoNotOptimize(bl.length());
  }
}
BENCHMARK(BM_BufferListAppend);

void BM_BufferListSubstr(benchmark::State& state) {
  BufferList bl;
  for (int i = 0; i < 256; ++i) bl.append(Slice::copy_of(std::string(4096, 'b')));
  for (auto _ : state) {
    BufferList sub = bl.substr(123456, 500000);
    benchmark::DoNotOptimize(sub.length());
  }
}
BENCHMARK(BM_BufferListSubstr);

// Hashes every byte each time (the receive-side check): crc32c() would
// reuse the slices' cached crcs after the first iteration.
void BM_BufferListCrc(benchmark::State& state) {
  BufferList bl;
  for (int i = 0; i < 256; ++i) bl.append(Slice::copy_of(std::string(4096, 'c')));
  for (auto _ : state) benchmark::DoNotOptimize(bl.crc32c_verify());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 256 * 4096);
}
BENCHMARK(BM_BufferListCrc);

void BM_TransactionEncodeDecode(benchmark::State& state) {
  os::Transaction txn;
  txn.create_collection({1, 0});
  txn.write_full({1, 0}, {1, "object-name"}, BufferList::copy_of(std::string(4096, 'd')));
  txn.omap_set({1, 0}, {1, "object-name"}, {{"key", BufferList::copy_of("value")}});
  for (auto _ : state) {
    BufferList bl;
    txn.encode(bl);
    os::Transaction out;
    BufferList::Cursor cur(bl);
    benchmark::DoNotOptimize(out.decode(cur));
  }
}
BENCHMARK(BM_TransactionEncodeDecode);

void BM_CrushSelect(benchmark::State& state) {
  const crush::CrushMap map = crush::CrushMap::build_flat(16);
  std::uint32_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.select(x++, 3));
  }
}
BENCHMARK(BM_CrushSelect);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = v * 1664525u + 1013904223u;
  }
}
BENCHMARK(BM_HistogramRecord);

}  // namespace

BENCHMARK_MAIN();
