// End-to-end benchmark of the simulated Ceph/DoCeph cluster.
//
//   e2ebench --workload write_1m|write_16k|read_1m --seed N --seconds S
//            --trace 0|1
//
// Each run builds the paper testbed (ClusterConfig::paper_testbed: 100 GbE,
// 2 storage nodes, 2 replicas, no knob overridden) twice, once per deploy
// mode, and feeds both the same seeded inputs (object names, payloads, op
// sequence) through the public librados-style API (IoCtx::aio_write_full /
// aio_read) from a closed loop of queue depth 16, as `rados bench -t 16` in
// the paper's §5.1.
// Every latency and CPU figure is in simulated time; wall-clock figures are
// reported only as the informational `sim.*` layer metrics.
//
// --seconds is the measured window of each mode in simulated seconds (after
// cluster start, preload and a fixed warm-up); a mode keeps going past it
// until it has measured kMinOps ops. A simulated window, unlike a
// wall-clock one, makes the same seed do the same work on any machine.
// --trace 0 ends with the end-to-end metrics; --trace 1 samples 1 op in
// kTraceEvery through the tracer and ends with the per-layer metrics (layer
// counters over the measured window plus span self times). The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/trace_points.h"
#include "analysis.h"
#include "sim/env.h"

namespace {

using doceph::BufferList;
using doceph::cluster::Cluster;
using doceph::cluster::DeployMode;
namespace sim = doceph::sim;
namespace client = doceph::client;
using namespace e2ebench;

enum class Kind { fresh_write, overwrite, zipf_read };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t size;
  std::size_t working_set;  ///< preloaded objects, in seeded order
  bool retain_data;         ///< keep object bytes so reads return them
  /// Working-set names drawn from the seed. Off where placement must not
  /// move with the seed: a seed that put the hot objects' primaries on one
  /// node would change the measured cluster, not just its inputs.
  bool seeded_names;
};

// write_1m: the paper's 1 MiB cell (Figs. 7/8/10, Table 3) into a pool
//   pre-filled with 32 objects; every measured write makes a fresh object.
//   Per-byte costs dominate (msgr crc/copy, 2 MB-segment DMA via the single
//   staging slot, SSD bandwidth).
// write_16k: 16 KiB overwrites spread uniformly over 1024 objects; per-op
//   costs dominate (msgr per-message, OSD per-op floor, comch round trips,
//   DMA job setup). The bounded set keeps long runs under KV nearfull; at
//   1024 objects each KV checkpoint stalls well over 1% of ops, so p99 sits
//   inside the checkpoint stall rather than on its edge.
// read_1m: Zipf reads of 128 preloaded 1 MiB objects (~330 MB peak RSS with
//   both replicas retained); the same layers in the opposite direction
//   (host->DPU DMA, SSD reads, no replication).
constexpr std::array<Workload, 3> kWorkloads{{
    {"write_1m", Kind::fresh_write, 1u << 20, 32, false, true},
    {"write_16k", Kind::overwrite, 16u << 10, 1024, false, false},
    {"read_1m", Kind::zipf_read, 1u << 20, 128, true, false},
}};

constexpr int kQueueDepth = 16;
constexpr std::uint64_t kWarmupOps = 4 * kQueueDepth;
/// Generator poll period: a slot whose op completed is refilled at the next
/// poll, so this is the closed loop's think time (latency itself is exact).
constexpr sim::Duration kPoll = 50'000;
constexpr std::uint32_t kTraceEvery = 16;
/// Spans kept per trace domain: enough for every sampled op of the busiest
/// window (baseline write_16k) without the ring overwriting any.
constexpr std::size_t kTraceRing = 1 << 14;
constexpr double kZipfS = 0.99;
constexpr std::size_t kStatSample = 64;
/// Fewest measured ops per mode. p99 needs 1000 for ten samples beyond it;
/// the offload path's latencies come in 2.4 ms slot-turn steps and its
/// tail in bursts, so its p50/p99 settle only at a few thousand samples.
constexpr std::uint64_t kMinOps = 3000;
/// Distinct seeded payloads the write workloads cycle through: write
/// content is not read back, only object sizes are checked.
constexpr std::uint64_t kWritePayloads = 8;
/// Wall-clock safety cap on one measured window, so that a run on a slow
/// machine still ends within 180 s; a capped window is reported on stderr.
constexpr double kModeWallCapS = 80.0;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string hex_tag(std::uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%08llx",
                static_cast<unsigned long long>(x & 0xffffffffull));
  return buf;
}

// ---- op stream ---------------------------------------------------------------

struct Op {
  std::string name;
  bool read = false;
  BufferList payload;     ///< writes
  std::size_t len = 0;    ///< reads: expected length
  std::uint32_t crc = 0;  ///< reads: expected crc32c
};

/// The seeded inputs of one workload: op i is a pure function of (seed, i).
class OpStream {
 public:
  OpStream(const Workload& wl, std::uint64_t seed)
      : wl_(wl), seed_(seed), zipf_(std::max<std::size_t>(wl.working_set, 1), kZipfS),
        crcs_(wl.working_set) {
    for (std::uint64_t k = 0; k < kWritePayloads && wl.kind != Kind::zipf_read; ++k)
      pool_.push_back(make_payload(seed, k, wl.size));
    order_.resize(wl.working_set);
    std::iota(order_.begin(), order_.end(), 0);
    std::sort(order_.begin(), order_.end(), [seed](std::uint64_t a, std::uint64_t b) {
      return mix(seed ^ 0x0dec0deull, a) < mix(seed ^ 0x0dec0deull, b);
    });
  }

  /// Preload op j: create working-set object order_[j].
  Op preload(std::uint64_t j) {
    j = order_[j];
    Op op{.name = set_name(j), .payload = {}};
    if (wl_.kind == Kind::zipf_read) {
      op.payload = make_payload(seed_, j, wl_.size);
      crcs_[j] = op.payload.crc32c();  // each j is written by exactly one thread
    } else {
      op.payload = pool_[j % kWritePayloads];
    }
    return op;
  }

  /// Measured (or warm-up) op i. Targets come from spread_draw(): with
  /// i.i.d. draws, read_1m throughput moved ~2% from seed to seed with the
  /// share of reads that happened to land on the hot objects' primary.
  Op next(std::uint64_t i) const {
    const double u = spread_draw(seed_, i);
    switch (wl_.kind) {
      case Kind::fresh_write:
        return Op{.name = "w" + hex_tag(mix(seed_, i)) + "_" + std::to_string(i),
                  .payload = pool_[i % kWritePayloads]};
      case Kind::overwrite: {
        const auto j =
            static_cast<std::uint64_t>(u * static_cast<double>(wl_.working_set));
        return Op{.name = set_name(j), .payload = pool_[i % kWritePayloads]};
      }
      case Kind::zipf_read: {
        const std::size_t j = zipf_.draw(u);
        return Op{.name = set_name(j),
                  .read = true,
                  .payload = {},
                  .len = wl_.size,
                  .crc = crcs_[j]};
      }
    }
    return {};
  }

 private:
  [[nodiscard]] std::string set_name(std::uint64_t j) const {
    if (!wl_.seeded_names) return "obj_" + std::to_string(j);
    return "s" + hex_tag(mix(seed_, j)) + "_" + std::to_string(j);
  }

  const Workload& wl_;
  std::uint64_t seed_;
  Zipf zipf_;
  std::vector<BufferList> pool_;
  std::vector<std::uint32_t> crcs_;
  std::vector<std::uint64_t> order_;  ///< seeded preload order
};

// ---- closed-loop generator --------------------------------------------------------

struct Sample {
  sim::Time submit = 0;
  sim::Time done = 0;
  bool ok = false;
};

struct StopRule {
  std::uint64_t max_ops = 0;    ///< stop issuing after this many (0: no limit)
  sim::Duration window = 0;     ///< stop issuing after this much simulated time ...
  std::uint64_t min_ops = 0;    ///< ... once at least this many were issued
};

struct DriveResult {
  std::vector<Sample> samples;
  std::vector<std::uint64_t> ok_indices;
  sim::Time t0 = 0;
  sim::Time t_stop = 0;
  double wall_s = 0;
  std::uint64_t lat_fallbacks = 0;  ///< completion time not found in op history
  bool wall_capped = false;         ///< stopped by kModeWallCapS, not by the rule
};

/// Closed loop of kQueueDepth async ops spread over at most nproc (<= 4) sim
/// threads. Each thread polls its window every kPoll and refills completed
/// slots. An op's completion time is read exactly from the client's op
/// history (the "done" event of its tracked op), matched by description and
/// submit instant; ops with the same key are told apart by identity.
DriveResult drive(Cluster& cl, const std::function<Op(std::uint64_t)>& make_op,
                  std::uint64_t first_index, const StopRule& rule, Checker& checker) {
  sim::Env& env = cl.env();
  client::RadosClient& rc = cl.client();
  client::IoCtx io = rc.io_ctx(cl.config().pool_id);
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = std::min({4, hw, kQueueDepth});

  using Key = std::pair<std::string, sim::Time>;
  struct Shared {
    doceph::dbg::Mutex m{"e2ebench.drive"};
    std::uint64_t issued = 0;
    bool stopped = false;
    int remaining = 0;
    std::map<Key, std::pair<int, std::set<const void*>>> pending;  // live, consumed
  } sh;
  doceph::dbg::CondVar done_cv(env.keeper(), "e2ebench.done_cv");
  DriveResult res;
  res.t0 = env.now();
  const double wall0 = wall_now();
  sh.remaining = threads;

  auto claim = [&]() -> std::optional<std::uint64_t> {
    const doceph::dbg::LockGuard lk(sh.m);
    if (!sh.stopped) {
      const bool enough = rule.max_ops > 0 && sh.issued >= rule.max_ops;
      const bool timed = rule.window > 0 && env.now() - res.t0 >= rule.window &&
                         sh.issued >= rule.min_ops;
      res.wall_capped = wall_now() - wall0 >= kModeWallCapS;
      if (enough || timed || res.wall_capped) {
        sh.stopped = true;
        res.t_stop = env.now();
      }
    }
    if (sh.stopped) return std::nullopt;
    return first_index + sh.issued++;
  };

  struct Slot {
    client::AioCompletionRef c;
    Op op;
    std::uint64_t index = 0;
    sim::Time submit = 0;
    std::string desc;
  };

  auto finish = [&](Slot& s) {
    const doceph::dbg::LockGuard lk(sh.m);
    const Key key{s.desc, s.submit};
    auto& [live, consumed] = sh.pending[key];
    sim::Time done = -1;
    rc.op_tracker().for_each_historic([&](const doceph::osd::TrackedOp& t) {
      if (done >= 0 || t.initiated_at() != s.submit || t.description() != s.desc ||
          consumed.count(&t) != 0)
        return;
      const sim::Time at = t.event_time("done");
      if (at < 0) return;
      consumed.insert(&t);
      done = at;
    });
    if (done < 0) {
      done = env.now();
      ++res.lat_fallbacks;
    }
    if (--live == 0) sh.pending.erase(key);
    const bool ok = s.c->status().ok();
    res.samples.push_back({s.submit, done, ok});
    if (!ok) return;
    if (s.op.read)
      checker.check_payload(s.c->data(), s.op.len, s.op.crc);
    else
      res.ok_indices.push_back(s.index);
  };

  auto submit = [&](Slot& s, std::uint64_t index) {
    s.index = index;
    s.op = make_op(index);
    s.submit = env.now();
    s.desc = "client_op(";
    using doceph::msgr::OsdOpType;
    s.desc += doceph::msgr::osd_op_type_name(s.op.read ? OsdOpType::read
                                                       : OsdOpType::write_full);
    s.desc += ' ' + s.op.name + ')';
    {
      const doceph::dbg::LockGuard lk(sh.m);
      ++sh.pending[{s.desc, s.submit}].first;
    }
    s.c = s.op.read ? io.aio_read(s.op.name, 0, s.op.len)
                    : io.aio_write_full(s.op.name, s.op.payload);
  };

  {
    auto hold = sim::TimeKeeper::AdvanceHold(env.keeper());
    std::vector<sim::Thread> workers;
    for (int t = 0; t < threads; ++t) {
      const int window = kQueueDepth / threads + (t < kQueueDepth % threads ? 1 : 0);
      workers.push_back(env.spawn(
          "bench-gen-" + std::to_string(t), &cl.client_cpu(), [&, window] {
            std::vector<Slot> slots(static_cast<std::size_t>(window));
            while (true) {
              bool busy = false;
              for (auto& s : slots) {
                if (s.c != nullptr && s.c->complete()) {
                  finish(s);
                  s.c.reset();
                }
                if (s.c == nullptr) {
                  if (const auto idx = claim()) submit(s, *idx);
                }
                busy |= s.c != nullptr;
              }
              if (!busy) break;
              env.keeper().sleep_for(kPoll);
            }
            const doceph::dbg::LockGuard lk(sh.m);
            if (--sh.remaining == 0) done_cv.notify_all();
          }));
    }
    hold.release();
    {
      doceph::dbg::UniqueLock lk(sh.m);
      done_cv.wait(lk, [&] {
        sh.m.assert_held();
        return sh.remaining == 0;
      });
    }
    workers.clear();
  }
  if (res.t_stop == 0) res.t_stop = env.now();
  res.wall_s = wall_now() - wall0;
  return res;
}

// ---- per-layer counters ------------------------------------------------------------

std::uint64_t storage_cpu(const sim::StatsRegistry& st, sim::ThreadClass c) {
  return st.class_cpu_ns(c, "host-") + st.class_cpu_ns(c, "dpu-");
}

/// Sum over storage nodes of one per-node counter's window delta.
double sum_deltas(const std::vector<std::uint64_t>& before,
                  const std::vector<std::uint64_t>& after) {
  double total = 0;
  for (std::size_t i = 0; i < before.size() && i < after.size(); ++i)
    total += delta(before[i], after[i]);
  return total;
}

/// Cumulative layer accessors at one instant; the metrics are deltas of two.
struct Snap {
  sim::Time at = 0;
  std::vector<std::uint64_t> host_busy, dpu_busy, pcie_h2d, pcie_d2h, dev_w, dev_r;
  std::uint64_t client_busy = 0;
  std::uint64_t msgr_cpu = 0, osd_cpu = 0, store_cpu = 0, msgr_ctx = 0;
  std::uint64_t msgr_msgs = 0, msgr_bytes = 0;
  std::uint64_t retries = 0, throttled = 0;
  std::uint64_t stage_n = 0;
  std::array<std::uint64_t, 5> stage_ns{};
  std::uint64_t queue_hw = 0;
  doceph::proxy::BreakdownSnapshot bd;
  std::uint64_t slot_wait = 0, proxy_dma_bytes = 0, rpc_frames = 0, fallbacks = 0;
  std::uint64_t dma_jobs = 0, dma_bytes = 0, dma_failed = 0, comch = 0;
  std::uint64_t txns = 0, commit_n = 0, commit_ns = 0, kv_bytes = 0;
};

Snap snapshot(Cluster& cl) {
  namespace osd = doceph::osd;
  namespace msgr = doceph::msgr;
  Snap s;
  s.at = cl.env().now();
  const auto& stats = cl.env().stats();
  s.client_busy = cl.client_cpu().busy_ns();
  s.msgr_cpu = storage_cpu(stats, sim::ThreadClass::messenger);
  s.osd_cpu = storage_cpu(stats, sim::ThreadClass::osd);
  s.store_cpu = storage_cpu(stats, sim::ThreadClass::objectstore);
  s.msgr_ctx = stats.class_ctx_switches(sim::ThreadClass::messenger, "host-") +
               stats.class_ctx_switches(sim::ThreadClass::messenger, "dpu-");
  const auto& cc = cl.client().perf_counters();
  s.retries = cc->get(client::l_client_op_retry);
  s.throttled = cc->get(client::l_client_op_throttled);
  for (int i = 0; i < cl.num_nodes(); ++i) {
    s.host_busy.push_back(cl.host_cpu(i).busy_ns());
    const auto& oc = cl.osd(i).perf_counters();
    s.stage_n += oc->hist(osd::l_osd_op_lat).count;
    const int stages[5] = {osd::l_osd_op_msgr_lat, osd::l_osd_op_queue_lat,
                           osd::l_osd_op_store_lat, osd::l_osd_op_repl_lat,
                           osd::l_osd_op_reply_lat};
    for (int k = 0; k < 5; ++k) s.stage_ns[k] += oc->hist(stages[k]).sum;
    s.queue_hw = std::max(s.queue_hw, oc->get(osd::l_osd_queue_depth_hw));
    if (const auto mc = cl.osd(i).perf_collection().get("msgr")) {
      s.msgr_msgs += mc->get(msgr::l_msgr_msg_recv) + mc->get(msgr::l_msgr_msg_send);
      s.msgr_bytes += mc->get(msgr::l_msgr_bytes_recv) + mc->get(msgr::l_msgr_bytes_send);
    }
    auto& bs = cl.blue_store(i);
    if (const auto bc = bs.perf_counters()) {
      s.txns += bc->get(doceph::bluestore::l_bstore_txns);
      const auto h = bc->hist(doceph::bluestore::l_bstore_commit_lat);
      s.commit_n += h.count;
      s.commit_ns += h.sum;
    }
    s.dev_w.push_back(bs.device().bytes_written());
    s.dev_r.push_back(bs.device().bytes_read());
    s.kv_bytes += bs.kv().map_bytes();
    if (auto* d = cl.dpu(i)) {
      s.dpu_busy.push_back(d->cpu().busy_ns());
      s.dma_jobs += d->dma().jobs_completed();
      s.dma_bytes += d->dma().bytes_moved();
      s.dma_failed += d->dma().jobs_failed();
      s.pcie_h2d.push_back(static_cast<std::uint64_t>(d->pcie().busy_h2d()));
      s.pcie_d2h.push_back(static_cast<std::uint64_t>(d->pcie().busy_d2h()));
      s.comch += d->dpu_comch()->sent() + d->host_comch()->sent();
    }
    if (auto* p = cl.proxy_store(i)) {
      const auto b = p->breakdown();
      s.bd.count += b.count;
      s.bd.total_ns += b.total_ns;
      s.bd.dma_ns += b.dma_ns;
      s.bd.dma_wait_ns += b.dma_wait_ns;
      s.bd.host_write_ns += b.host_write_ns;
      s.slot_wait += static_cast<std::uint64_t>(p->slots().total_wait_ns());
      s.proxy_dma_bytes += p->dma_bytes();
      s.rpc_frames += p->rpc().frames_sent();
      s.fallbacks += p->fallback().failures();
    }
  }
  return s;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;  ///< what a ratio was divided by
};

struct Pools {
  double host = 0, dpu = 0, client = 0, pcie = 0, ssd = 0;
};

// ---- one deploy mode -------------------------------------------------------------

struct ModeResult {
  std::string error;
  double setup_s = 0;
  double setup_wall_s = 0;
  LatencySummary lat;
  double ops_s = 0;
  std::uint64_t attempted = 0, failed = 0, ok_ops = 0;
  double host_cpu_us_per_op = 0, dpu_cpu_us_per_op = 0;
  std::vector<Metric> layer;
  Pools pools;
  Checker checker;
  std::uint64_t lat_fallbacks = 0;
  std::uint64_t traced_ops = 0, trace_sum_errors = 0, trace_dropped = 0;
  std::map<std::string, double> other_spans_ms;
};

const std::vector<std::string_view>& reported_spans(bool doceph_mode) {
  namespace p = doceph::trace::points;
  static const std::vector<std::string_view> base{
      p::kClientOp,         p::kMsgrDispatch,  p::kOsdOp,
      p::kOsdStageMessenger, p::kOsdStageQueue, p::kOsdStageStore,
      p::kOsdStageRepl,     p::kOsdStageReply, p::kBluestoreTxn};
  static const std::vector<std::string_view> offload = [] {
    auto v = base;
    v.insert(v.end(), {p::kDpuWrite, p::kDpuRead, p::kDpuRpcSubmitTxn, p::kDocaDmaJob,
                       p::kHostSubmitTxn});
    return v;
  }();
  return doceph_mode ? offload : base;
}

/// Self time per span name, averaged over the ops sampled in the window.
void add_trace_metrics(Cluster& cl, sim::Time t0, bool doceph_mode, ModeResult& r) {
  const auto all = cl.env().tracer().completed();
  r.trace_dropped = cl.env().tracer().dropped();
  std::map<std::uint64_t, std::vector<SpanRec>> by_trace;
  std::map<std::uint64_t, const doceph::trace::SpanRecord*> roots;
  for (const auto& s : all) {
    by_trace[s.trace_id].push_back({s.span_id, s.parent_id, s.name, s.start, s.end});
    if (s.name == doceph::trace::points::kClientOp && s.start >= t0)
      roots[s.trace_id] = &s;
  }
  std::map<std::string, double> total_ns;
  for (const auto& [tid, root] : roots) {
    const auto self = self_times(by_trace[tid], root->span_id);
    std::int64_t sum = 0;
    for (const auto& [name, ns] : self) {
      total_ns[name] += static_cast<double>(ns);
      sum += ns;
    }
    if (sum != root->end - root->start) ++r.trace_sum_errors;
  }
  r.traced_ops = roots.size();
  const std::string base = std::to_string(roots.size()) + " sampled ops";
  for (const auto name : reported_spans(doceph_mode)) {
    const std::string n(name);
    r.layer.push_back({"trace." + n + ".self_ms",
                       per_op(total_ns[n], roots.size()).value() * 1e-6, "ms", base});
    total_ns.erase(n);
  }
  for (const auto& [name, ns] : total_ns)
    if (ns > 0) r.other_spans_ms[name] = per_op(ns, roots.size()).value() * 1e-6;
}

/// Layer metrics over the measured window, each with the end-to-end figure
/// it is expected to move:
///   client.*      failed ops and lat_p99_ms, every workload
///   msgr.*        baseline host / doceph DPU cpu_us_per_op on write_1m
///                 (per byte); ops_s on write_16k (per message)
///   osd.*         lat_p50_ms on write_16k (queue, per-op floor); store and
///                 repl stages on write_1m
///   proxy.*       doceph ops_s and lat_p50_ms on write_16k (inline vs DMA)
///                 and write_1m (slot wait); flat on read_1m for write work
///   doca.*        doceph lat_p50_ms on write_16k (job setup) and read_1m
///   bluestore.*   doceph host_cpu_us_per_op everywhere; baseline lat_p50_ms
///                 on write_16k
///   pool.*        names the saturated resource capping ops_s
void add_layer_metrics(Cluster& cl, const Workload& wl, const Snap& a, const Snap& b,
                       std::uint64_t ops, std::uint64_t write_ops, ModeResult& r) {
  const bool offload = cl.config().mode == DeployMode::doceph;
  const double window = static_cast<double>(b.at - a.at);
  const auto n = static_cast<double>(cl.num_nodes());
  const std::string per = std::to_string(ops) + " ops";
  const std::string per_node = per + ", mean per storage node";
  auto add = [&](const std::string& name, double v, const char* unit, std::string base) {
    r.layer.push_back({name, v, unit, std::move(base)});
  };
  const auto& cfg = cl.config();
  const auto busy = [&](double ns, double cores) {
    return Ratio{ns, window * cores}.value();
  };
  r.pools.host = busy(sum_deltas(a.host_busy, b.host_busy), cfg.host_cores * n);
  r.pools.client = busy(delta(a.client_busy, b.client_busy), cfg.client_cores);
  const auto store_cfg = cfg.store_config().device;
  double ssd_ns = 0;
  for (std::size_t i = 0; i < a.dev_w.size(); ++i) {
    ssd_ns += delta(a.dev_w[i], b.dev_w[i]) / store_cfg.write_bw * 1e9 +
              delta(a.dev_r[i], b.dev_r[i]) / store_cfg.read_bw * 1e9;
  }
  r.pools.ssd = busy(ssd_ns, n);
  const std::string win = "window " + std::to_string(window * 1e-9) + " s";

  add("client.retries_per_kop", per_op(delta(a.retries, b.retries) * 1e3, ops).value(),
      "count", per);
  add("client.throttled_per_kop",
      per_op(delta(a.throttled, b.throttled) * 1e3, ops).value(), "count", per);
  add("pool.client_util", r.pools.client, "frac", win);

  add("msgr.cpu_us_per_op", per_op(delta(a.msgr_cpu, b.msgr_cpu) * 1e-3 / n, ops).value(),
      "us", per_node);
  add("msgr.msgs_per_op", per_op(delta(a.msgr_msgs, b.msgr_msgs), ops).value(), "count",
      per);
  add("msgr.bytes_per_op", per_op(delta(a.msgr_bytes, b.msgr_bytes), ops).value(), "B",
      per);
  add("msgr.ctx_switches_per_op", per_op(delta(a.msgr_ctx, b.msgr_ctx), ops).value(),
      "count", per);

  const auto stage_n = static_cast<std::uint64_t>(delta(a.stage_n, b.stage_n));
  const std::string per_osd_op = std::to_string(stage_n) + " osd ops";
  const char* stage_names[5] = {"msgr", "queue", "store", "repl", "reply"};
  for (int k = 0; k < 5; ++k) {
    add(std::string("osd.stage.") + stage_names[k] + "_ms",
        per_op(delta(a.stage_ns[k], b.stage_ns[k]) * 1e-6, stage_n).value(), "ms",
        per_osd_op);
  }
  add("osd.cpu_us_per_op", per_op(delta(a.osd_cpu, b.osd_cpu) * 1e-3 / n, ops).value(),
      "us", per_node);
  add("osd.queue_depth_hw", static_cast<double>(b.queue_hw), "count",
      "window high-water");

  if (offload) {
    const auto reqs = static_cast<std::uint64_t>(delta(a.bd.count, b.bd.count));
    const std::string per_req = std::to_string(reqs) + " proxy writes";
    const double total = delta(a.bd.total_ns, b.bd.total_ns);
    const double dma = delta(a.bd.dma_ns, b.bd.dma_ns);
    const double dma_wait = delta(a.bd.dma_wait_ns, b.bd.dma_wait_ns);
    const double host = delta(a.bd.host_write_ns, b.bd.host_write_ns);
    const double other = std::max(0.0, total - dma - dma_wait - host);
    add("proxy.write_ms", per_op(total * 1e-6, reqs).value(), "ms", per_req);
    add("proxy.dma_ms", per_op(dma * 1e-6, reqs).value(), "ms", per_req);
    add("proxy.dma_wait_ms", per_op(dma_wait * 1e-6, reqs).value(), "ms", per_req);
    add("proxy.host_write_ms", per_op(host * 1e-6, reqs).value(), "ms", per_req);
    add("proxy.other_ms", per_op(other * 1e-6, reqs).value(), "ms", per_req);
    add("proxy.slot_wait_ms",
        per_op(delta(a.slot_wait, b.slot_wait) * 1e-6, ops).value(), "ms", per);
    // Every replica's proxy receives each written payload once.
    const double payload = static_cast<double>(write_ops) * static_cast<double>(wl.size) *
                           static_cast<double>(cfg.replicas);
    const double dma_moved = delta(a.proxy_dma_bytes, b.proxy_dma_bytes);
    add("proxy.inline_byte_frac",
        Ratio{std::max(0.0, payload - dma_moved), payload}.value(), "frac",
        std::to_string(payload / (1 << 20)) + " MiB proxy write payload");
    add("proxy.rpc_frames_per_op",
        per_op(delta(a.rpc_frames, b.rpc_frames), ops).value(), "count", per);
    add("proxy.fallback_events", delta(a.fallbacks, b.fallbacks), "count", "window");

    add("doca.dma_jobs_per_op", per_op(delta(a.dma_jobs, b.dma_jobs), ops).value(),
        "count", per);
    add("doca.dma_mb_per_op",
        per_op(delta(a.dma_bytes, b.dma_bytes) / (1 << 20), ops).value(), "MiB", per);
    add("doca.dma_failed", delta(a.dma_failed, b.dma_failed), "count", "window");
    double pcie = 0;
    for (std::size_t i = 0; i < a.pcie_h2d.size(); ++i) {
      pcie += std::max(delta(a.pcie_h2d[i], b.pcie_h2d[i]),
                       delta(a.pcie_d2h[i], b.pcie_d2h[i]));
    }
    r.pools.pcie = busy(pcie, n);
    add("doca.pcie_busy_frac", r.pools.pcie, "frac", win + ", busier direction");
    add("doca.comch_msgs_per_op", per_op(delta(a.comch, b.comch), ops).value(), "count",
        per);
  }

  const auto commits = static_cast<std::uint64_t>(delta(a.commit_n, b.commit_n));
  add("bluestore.commit_ms",
      per_op(delta(a.commit_ns, b.commit_ns) * 1e-6, commits).value(), "ms",
      std::to_string(commits) + " txns");
  add("bluestore.txns_per_op", per_op(delta(a.txns, b.txns), ops).value(), "count", per);
  const double user_written =
      static_cast<double>(write_ops) * static_cast<double>(wl.size);
  add("bluestore.dev_write_amp",
      Ratio{sum_deltas(a.dev_w, b.dev_w), user_written}.value(), "ratio",
      std::to_string(user_written / (1 << 20)) + " MiB client payload");
  add("bluestore.dev_read_mb_per_op",
      per_op(sum_deltas(a.dev_r, b.dev_r) / (1 << 20), ops).value(), "MiB", per);
  add("bluestore.kv_mb", static_cast<double>(b.kv_bytes) / (1 << 20), "MiB",
      "end of window, all nodes");
  add("bluestore.cpu_us_per_op",
      per_op(delta(a.store_cpu, b.store_cpu) * 1e-3 / n, ops).value(), "us", per_node);

  add("pool.host_util", r.pools.host, "frac", win);
  if (offload) {
    r.pools.dpu = busy(sum_deltas(a.dpu_busy, b.dpu_busy),
                       cl.dpu(0)->profile().cores * n);
    add("pool.dpu_util", r.pools.dpu, "frac", win);
  }
  add("pool.ssd_bw_util", r.pools.ssd, "frac", win);
}

ModeResult run_mode(DeployMode mode, const Workload& wl, std::uint64_t seed,
                    sim::Duration window, bool traced) {
  ModeResult r;
  sim::Env env(sim::TimeKeeper::Mode::virtual_time, seed);
  if (traced) {
    env.tracer().set_sample_every(kTraceEvery);
    env.tracer().set_ring_capacity(kTraceRing);
  }
  auto cfg = doceph::cluster::ClusterConfig::paper_testbed(
      mode, doceph::cluster::NetworkKind::gbe_100, wl.retain_data);
  Cluster cl(env, cfg);
  OpStream stream(wl, seed);
  const bool offload = mode == DeployMode::doceph;

  env.run_on_sim_thread([&] {
    const double wall0 = wall_now();
    const sim::Time t_setup = env.now();
    const doceph::Status st = cl.start();
    if (!st.ok()) {
      r.error = "cluster start failed: " + st.to_string();
      return;
    }
    if (wl.working_set > 0) {
      const auto pre = drive(cl, [&](std::uint64_t j) { return stream.preload(j); }, 0,
                             StopRule{.max_ops = wl.working_set}, r.checker);
      for (const auto& s : pre.samples) {
        if (!s.ok) r.error = "preload write failed";
      }
    }
    r.setup_s = sim::to_seconds(env.now() - t_setup);
    r.setup_wall_s = wall_now() - wall0;

    const auto next = [&](std::uint64_t i) { return stream.next(i); };
    (void)drive(cl, next, 0, StopRule{.max_ops = kWarmupOps}, r.checker);

    cl.reset_observability();
    const Snap before = snapshot(cl);
    const auto run =
        drive(cl, next, kWarmupOps,
              StopRule{.window = window,
                       .min_ops = std::max(kMinOps, min_samples_for(990, 10))},
              r.checker);
    const Snap after = snapshot(cl);

    std::vector<double> lat;
    std::uint64_t in_window = 0;
    for (const auto& s : run.samples) {
      lat.push_back(s.ok ? static_cast<double>(s.done - s.submit) : kFailedSample);
      if (s.ok) ++r.ok_ops;
      if (s.ok && s.done <= run.t_stop) ++in_window;
    }
    r.lat = summarize_latency(lat);
    r.attempted = run.samples.size();
    r.failed = r.lat.failed;
    r.lat_fallbacks = run.lat_fallbacks;
    if (run.wall_capped)
      std::fprintf(stderr, "e2ebench: warning: measured window cut at %.0f s wall\n",
                   kModeWallCapS);
    r.ops_s = Ratio{static_cast<double>(in_window),
                    sim::to_seconds(run.t_stop - run.t0)}
                  .value();
    const double nodes = cl.num_nodes();
    r.host_cpu_us_per_op =
        per_op(sum_deltas(before.host_busy, after.host_busy) * 1e-3 / nodes, r.ok_ops)
            .value();
    r.dpu_cpu_us_per_op =
        per_op(sum_deltas(before.dpu_busy, after.dpu_busy) * 1e-3 / nodes, r.ok_ops)
            .value();
    const std::uint64_t write_ops = wl.kind == Kind::zipf_read ? 0 : r.ok_ops;
    add_layer_metrics(cl, wl, before, after, r.ok_ops, write_ops, r);
    const double sim_window = sim::to_seconds(after.at - before.at);
    r.layer.push_back({"sim.wall_s_per_sim_s", Ratio{run.wall_s, sim_window}.value(),
                       "s/s", "measured window"});
    r.layer.push_back({"sim.setup_wall_s", r.setup_wall_s, "s", "start + preload"});
    if (traced) {
      add_trace_metrics(cl, run.t0, offload, r);
      r.layer.push_back({"trace.ops_s", r.ops_s, "1/s", "traced run"});
      r.layer.push_back({"trace.lat_p50_ms", r.lat.p50_ns * 1e-6, "ms", "traced run"});
      r.layer.push_back({"trace.lat_p99_ms", r.lat.p99_ns * 1e-6, "ms", "traced run"});
      r.layer.push_back({"trace.sampled_ops", static_cast<double>(r.traced_ops), "count",
                         "1 in " + std::to_string(kTraceEvery)});
    }

    // Stat a seeded sample of acknowledged writes; each must have the
    // written size.
    if (wl.kind != Kind::zipf_read && !run.ok_indices.empty()) {
      client::IoCtx io = cl.client().io_ctx(cfg.pool_id);
      for (std::size_t k = 0; k < kStatSample; ++k) {
        const std::uint64_t idx =
            run.ok_indices[mix(seed ^ 0x57a7ull, k) % run.ok_indices.size()];
        const auto info = io.stat(stream.next(idx).name);
        r.checker.check_size(info.ok() ? info->size : 0, wl.size);
      }
    }
    cl.stop();
  });
  return r;
}

// ---- output ------------------------------------------------------------------------

const char* mode_name(DeployMode m) {
  return m == DeployMode::doceph ? "doceph" : "baseline";
}

void print_metric(const Metric& m) {
  std::printf("  %-46s %16.6f %-6s (per %s)\n", m.name.c_str(), m.value, m.unit.c_str(),
              m.base.c_str());
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "\"value\": %.17g, \"unit\": \"", ms[i].value);
    out += (i > 0 ? ", \"" : "\"") + ms[i].name + "\": {" + buf + ms[i].unit + "\"}";
  }
  return out + "}";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload write_1m|write_16k|read_1m "
               "--seed N --seconds S --trace 0|1\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload") workload = v;
    else if (arg == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") seconds = std::strtod(v, nullptr);
    else if (arg == "--trace") traced = std::strcmp(v, "0") != 0;
    else return usage(("unknown argument " + arg).c_str());
  }
  const auto wl = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                               [&](const Workload& w) { return workload == w.name; });
  if (wl == kWorkloads.end()) return usage("unknown workload");
  if (!(seconds > 0)) return usage("--seconds must be positive");

  std::vector<Metric> e2e, layer;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  double setup_s = 0;
  std::vector<std::string> zeros;  // layer metrics that read exactly zero
  std::printf("workload %s seed %llu seconds %g trace %d\n", wl->name,
              static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0);
  for (const DeployMode mode : {DeployMode::baseline, DeployMode::doceph}) {
    const std::string m = mode_name(mode);
    const ModeResult r =
        run_mode(mode, *wl, seed, static_cast<sim::Duration>(seconds * 1e9), traced);
    if (!r.error.empty()) {
      std::fprintf(stderr, "e2ebench: %s: %s\n", m.c_str(), r.error.c_str());
      return 1;
    }
    attempted += r.attempted;
    failed += r.failed;
    setup_s += r.setup_s;
    const bool trace_ok = r.trace_sum_errors == 0 && r.trace_dropped == 0 &&
                          (!traced || r.traced_ops > 0);
    correct = correct && r.checker.ok() && trace_ok;

    std::printf("[%s] %llu ops attempted, %llu failed, %llu checked outputs "
                "(%llu bad payloads, %llu bad sizes); latency samples %zu, %zu beyond "
                "p99%s; %llu completion times not found in op history\n",
                m.c_str(), static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.checker.checked),
                static_cast<unsigned long long>(r.checker.bad_payloads),
                static_cast<unsigned long long>(r.checker.bad_sizes), r.lat.samples,
                r.lat.beyond_p99, r.lat.p99_supported() ? "" : " (p99 UNSUPPORTED)",
                static_cast<unsigned long long>(r.lat_fallbacks));
    if (traced) {
      std::printf("[%s] traced %llu ops; %llu whose span self times miss the client.op "
                  "duration; %llu spans dropped by the tracer\n",
                  m.c_str(), static_cast<unsigned long long>(r.traced_ops),
                  static_cast<unsigned long long>(r.trace_sum_errors),
                  static_cast<unsigned long long>(r.trace_dropped));
      for (const auto& [name, ms] : r.other_spans_ms)
        std::printf("[%s] unreported span %s self %.6f ms/op\n", m.c_str(), name.c_str(),
                    ms);
    }
    const std::string per = std::to_string(r.ok_ops) + " ops, mean per storage node";
    e2e.push_back({m + ".ops_s", r.ops_s, "1/s", "simulated second"});
    e2e.push_back({m + ".lat_p50_ms", r.lat.p50_ns * 1e-6, "ms",
                   std::to_string(r.lat.samples) + " samples"});
    e2e.push_back({m + ".lat_p99_ms", r.lat.p99_ns * 1e-6, "ms",
                   std::to_string(r.lat.samples) + " samples"});
    e2e.push_back({m + ".host_cpu_us_per_op", r.host_cpu_us_per_op, "us", per});
    if (mode == DeployMode::doceph)
      e2e.push_back({m + ".dpu_cpu_us_per_op", r.dpu_cpu_us_per_op, "us", per});
    for (const auto& lm : r.layer) {
      layer.push_back({m + "." + lm.name, lm.value, lm.unit, lm.base});
      if (lm.value == 0) zeros.push_back(layer.back().name);
    }

    const std::pair<const char*, double> pools[] = {
        {"host cores", r.pools.host},
        {"DPU cores", r.pools.dpu},
        {"client cores", r.pools.client},
        {"PCIe/DMA", r.pools.pcie},
        {"SSD bandwidth", r.pools.ssd}};
    const auto top = std::max_element(pools, pools + 5, [](const auto& x, const auto& y) {
      return x.second < y.second;
    });
    std::printf("verdict %s %s: busiest pool = %s (util %.3f); host %.3f, dpu %.3f, "
                "client %.3f, pcie %.3f, ssd %.3f\n",
                wl->name, m.c_str(), top->first, top->second, r.pools.host, r.pools.dpu,
                r.pools.client, r.pools.pcie, r.pools.ssd);
  }
  const double failed_frac = Ratio{static_cast<double>(failed),
                                   static_cast<double>(attempted)}
                                 .value();
  e2e.push_back({"ok_frac", 1.0 - failed_frac, "frac",
                 std::to_string(attempted) + " attempted ops, " +
                     std::to_string(failed) + " failed"});
  e2e.push_back({"setup_s", setup_s, "s", "both modes, start + preload"});
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  e2e.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB",
                 "process"});

  std::printf("end-to-end metrics (%s):\n", wl->name);
  for (const auto& m : e2e) print_metric(m);
  std::printf("  %-46s %16.6f %-6s\n", "failed_frac", failed_frac, "frac");
  if (!layer.empty()) {
    std::printf("per-layer metrics (%s):\n", wl->name);
    for (const auto& m : layer) print_metric(m);
  }
  std::string zero_list;
  for (const auto& name : zeros) zero_list += " " + name;
  std::printf("verdict %s: layer metrics reading zero:%s\n", wl->name,
              zero_list.empty() ? " none" : zero_list.c_str());

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      json_metrics(traced ? layer : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
