#include "analysis.h"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace e2ebench {

std::size_t quantile_rank(std::size_t n, unsigned permille) {
  if (n == 0) return 0;
  const std::size_t rank = (n * permille + 999) / 1000;
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samples_beyond(std::size_t n, unsigned permille) {
  return n - quantile_rank(n, permille);
}

std::size_t min_samples_for(unsigned permille, std::size_t beyond) {
  std::size_t n = beyond + 1;
  while (samples_beyond(n, permille) < beyond) ++n;
  return n;
}

LatencySummary summarize_latency(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.samples = samples.size();
  s.failed = static_cast<std::size_t>(
      std::count(samples.begin(), samples.end(), kFailedSample));
  if (samples.empty()) return s;
  s.p50_ns = samples[quantile_rank(samples.size(), 500) - 1];
  s.p99_ns = samples[quantile_rank(samples.size(), 990) - 1];
  s.beyond_p99 = samples_beyond(samples.size(), 990);
  return s;
}

std::map<std::string, std::int64_t> self_times(const std::vector<SpanRec>& spans,
                                               std::uint64_t root_id) {
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].id, i);
  std::map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].id != root_id && by_id.count(spans[i].parent) != 0)
      children[spans[i].parent].push_back(i);
  }

  struct Clipped {
    std::int64_t lo;
    std::int64_t hi;
    int depth;
    std::size_t idx;
  };
  std::vector<Clipped> open;
  const auto root = by_id.find(root_id);
  if (root == by_id.end()) return {};
  std::vector<Clipped> stack{
      {spans[root->second].start, spans[root->second].end, 0, root->second}};
  while (!stack.empty()) {
    const Clipped c = stack.back();
    stack.pop_back();
    if (c.lo >= c.hi) continue;
    open.push_back(c);
    const auto kids = children.find(spans[c.idx].id);
    if (kids == children.end()) continue;
    for (const std::size_t k : kids->second) {
      stack.push_back({std::max(c.lo, spans[k].start), std::min(c.hi, spans[k].end),
                       c.depth + 1, k});
    }
  }

  std::vector<std::int64_t> cuts;
  for (const auto& c : open) {
    cuts.push_back(c.lo);
    cuts.push_back(c.hi);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Owner order: deeper, then later start, then earlier end, then smaller
  // name and id (so equal intervals resolve the same way on every run).
  const auto owns = [&](const Clipped& x, const Clipped& y) {
    const SpanRec& a = spans[x.idx];
    const SpanRec& b = spans[y.idx];
    return std::make_tuple(x.depth, a.start, -a.end, b.name, b.id) >
           std::make_tuple(y.depth, b.start, -b.end, a.name, a.id);
  };
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const Clipped* owner = nullptr;
    for (const auto& c : open) {
      if (c.lo > cuts[i] || c.hi < cuts[i + 1]) continue;
      if (owner == nullptr || owns(c, *owner)) owner = &c;
    }
    if (owner != nullptr) self[spans[owner->idx].name] += cuts[i + 1] - cuts[i];
  }
  return self;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double spread_draw(std::uint64_t seed, std::uint64_t i) {
  constexpr double kInvPhi = 0.6180339887498949;
  const double u = unit(mix(seed, 0)) + static_cast<double>(i) * kInvPhi;
  return u - std::floor(u);
}

doceph::BufferList make_payload(std::uint64_t seed, std::uint64_t index,
                                std::size_t len) {
  doceph::Slice s = doceph::Slice::allocate(len);
  char* out = s.mutable_data();
  std::uint64_t state = mix(seed, index);
  for (std::size_t off = 0; off < len; off += sizeof(state)) {
    state = mix(state, off);
    std::copy_n(reinterpret_cast<const char*>(&state),
                std::min(sizeof(state), len - off), out + off);
  }
  doceph::BufferList bl;
  bl.append(std::move(s));
  return bl;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
}

std::size_t Zipf::draw(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

void Checker::check_payload(const doceph::BufferList& got, std::size_t want_len,
                            std::uint32_t want_crc) {
  ++checked;
  if (got.length() != want_len || got.crc32c() != want_crc) ++bad_payloads;
}

void Checker::check_size(std::uint64_t got, std::uint64_t want) {
  ++checked;
  if (got != want) ++bad_sizes;
}

}  // namespace e2ebench
