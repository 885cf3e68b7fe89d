#include "benchcore/experiment.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "client/rados_bench.h"

namespace doceph::benchcore {
namespace {

/// Storage-node-scoped class CPU totals (host-* and dpu-* domains; excludes
/// client, MON, and infrastructure threads), mirroring the paper's perf
/// attribution over Ceph daemons only.
std::uint64_t storage_class_cpu(const sim::StatsRegistry& stats, sim::ThreadClass c) {
  return stats.class_cpu_ns(c, "host-") + stats.class_cpu_ns(c, "dpu-");
}
std::uint64_t storage_class_ctx(const sim::StatsRegistry& stats, sim::ThreadClass c) {
  return stats.class_ctx_switches(c, "host-") + stats.class_ctx_switches(c, "dpu-");
}

/// tp_osd_tp workers per OSD in the paper profile (cluster::default_osd);
/// a sharded spec deploys this many per shard.
constexpr int kOpThreadsPerShard = 2;

int op_threads_of(const RunSpec& s) {
  return s.op_threads_override > 0 ? s.op_threads_override
                                   : kOpThreadsPerShard * s.shards;
}
int kv_shards_of(const RunSpec& s) {
  return s.kv_shards_override > 0 ? s.kv_shards_override : s.shards;
}

}  // namespace

std::string RunSpec::cache_key() const {
  std::ostringstream os;
  os << (mode == cluster::DeployMode::baseline ? "base" : "doceph") << "_"
     << (net == cluster::NetworkKind::gbe_100 ? "100g" : "1g") << "_"
     << (object_size >> 10) << "k_c" << concurrency << "_m"
     << measure / 1'000'000 << "ms_pg" << pg_num << "_s" << seed;
  if (proxy_override) {
    os << "_px" << proxy_override->slots << "_" << (proxy_override->segment_size >> 10)
       << "k";
  }
  if (dma_failure_rate > 0) os << "_f" << static_cast<int>(dma_failure_rate * 1e4);
  {
    // Sharded cells (DESIGN.md §15): `_shN` on the diagonal, `_thOPxKV`
    // when the ablation overrides split the op-thread and KV-shard counts.
    // Nothing at 1/1 so the committed paper cells keep their keys.
    const int threads = op_threads_of(*this);
    const int kv_sh = kv_shards_of(*this);
    if (threads != kOpThreadsPerShard * kv_sh)
      os << "_th" << threads << "x" << kv_sh;
    else if (kv_sh > 1)
      os << "_sh" << kv_sh;
  }
  return os.str();
}

void apply_trace_flags(RunSpec& spec, int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace-out" && i + 1 < argc) {
      spec.trace_out = argv[++i];
      if (spec.trace_sample_every == 0) spec.trace_sample_every = 64;
    } else if (arg == "--trace-sample" && i + 1 < argc) {
      spec.trace_sample_every =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    }
  }
}

RunResult run_experiment(const RunSpec& spec) {
  sim::Env env(sim::TimeKeeper::Mode::virtual_time, spec.seed);
  env.tracer().set_sample_every(spec.trace_sample_every);
  auto cfg = cluster::ClusterConfig::paper_testbed(spec.mode, spec.net,
                                                   /*retain_data=*/false);
  cfg.pg_num = spec.pg_num;
  // Write-path sharding: op threads and KV shards move together unless an
  // ablation override splits them (kv_shards is clamped >= 1 downstream).
  cfg.osd_template.op_threads = op_threads_of(spec);
  cfg.kv_shards = kv_shards_of(spec);
  if (spec.proxy_override) cfg.proxy = *spec.proxy_override;

  cluster::Cluster cl(env, cfg);
  RunResult result;

  env.run_on_sim_thread([&] {
    const Status st = cl.start();
    if (!st.ok()) {
      std::fprintf(stderr, "cluster start failed: %s\n", st.to_string().c_str());
      return;
    }
    if (spec.dma_failure_rate > 0) {
      for (int i = 0; i < cl.num_nodes(); ++i) {
        if (cl.dpu(i) != nullptr)
          cl.dpu(i)->dma().set_failure_rate(spec.dma_failure_rate);
      }
    }

    // Warmup: fill pipelines, establish connections, steady-state the
    // backends; excluded from every measurement.
    client::BenchConfig wcfg;
    wcfg.concurrency = spec.concurrency;
    wcfg.object_size = spec.object_size;
    wcfg.duration = spec.warmup;
    wcfg.prefix = "warm";
    client::RadosBench warm(cl.client(), wcfg);
    (void)warm.run(&cl.client_cpu());

    // Reset per-request instrumentation, then sample counters. Perf blocks
    // and op history restart here so dumps cover only measured traffic.
    cl.reset_observability();
    std::uint64_t fb0 = 0, rpcb0 = 0;
    for (int i = 0; i < cl.num_nodes(); ++i) {
      if (auto* p = cl.proxy_store(i)) {
        p->reset_breakdown();
        fb0 += p->fallback().failures();
        rpcb0 += p->rpc_fallback_bytes();
      }
    }
    const auto cpu0 = cl.cpu_sample();
    auto& stats = env.stats();
    const std::uint64_t msgr0 = storage_class_cpu(stats, sim::ThreadClass::messenger);
    const std::uint64_t os0 = storage_class_cpu(stats, sim::ThreadClass::objectstore);
    const std::uint64_t osd0 = storage_class_cpu(stats, sim::ThreadClass::osd);
    const std::uint64_t oth0 = storage_class_cpu(stats, sim::ThreadClass::other);
    const std::uint64_t cxm0 = storage_class_ctx(stats, sim::ThreadClass::messenger);
    const std::uint64_t cxo0 = storage_class_ctx(stats, sim::ThreadClass::objectstore);

    client::BenchConfig bcfg;
    bcfg.concurrency = spec.concurrency;
    bcfg.object_size = spec.object_size;
    bcfg.duration = spec.measure;
    bcfg.prefix = "bench";
    client::RadosBench bench(cl.client(), bcfg);
    const auto bres = bench.run(&cl.client_cpu());

    const auto cpu1 = cl.cpu_sample();
    result.iops = bres.iops();
    result.mbps = bres.bandwidth_bytes_per_sec(spec.object_size) / 1e6;
    result.avg_lat_s = bres.avg_latency_s();
    result.p50_lat_s = bres.latency.quantile(0.5) * 1e-9;
    result.p99_lat_s = bres.p99_latency_s();
    result.ops = bres.ops;
    result.failed_ops = bres.failed;
    result.window_s = bres.seconds;

    result.host_cores = cl.host_cores_used(cpu0, cpu1);
    result.dpu_cores = cl.dpu_cores_used(cpu0, cpu1);

    const double msgr = static_cast<double>(
        storage_class_cpu(stats, sim::ThreadClass::messenger) - msgr0);
    const double objs = static_cast<double>(
        storage_class_cpu(stats, sim::ThreadClass::objectstore) - os0);
    const double osdc =
        static_cast<double>(storage_class_cpu(stats, sim::ThreadClass::osd) - osd0);
    const double other =
        static_cast<double>(storage_class_cpu(stats, sim::ThreadClass::other) - oth0);
    const double total = msgr + objs + osdc + other;
    if (total > 0) {
      result.share_messenger = msgr / total;
      result.share_objectstore = objs / total;
      result.share_osd = osdc / total;
    }
    const double window = static_cast<double>(cpu1.at - cpu0.at);
    const int nodes = cl.num_nodes();
    if (window > 0 && nodes > 0) result.total_ceph_cores = total / window / nodes;

    result.ctx_messenger =
        storage_class_ctx(stats, sim::ThreadClass::messenger) - cxm0;
    result.ctx_objectstore =
        storage_class_ctx(stats, sim::ThreadClass::objectstore) - cxo0;

    // Proxy breakdown (averaged over nodes' requests).
    proxy::BreakdownSnapshot bd;
    std::uint64_t fb1 = 0, rpcb1 = 0;
    for (int i = 0; i < nodes; ++i) {
      if (auto* p = cl.proxy_store(i)) {
        const auto b = p->breakdown();
        bd.count += b.count;
        bd.total_ns += b.total_ns;
        bd.dma_ns += b.dma_ns;
        bd.dma_wait_ns += b.dma_wait_ns;
        bd.host_write_ns += b.host_write_ns;
        fb1 += p->fallback().failures();
        rpcb1 += p->rpc_fallback_bytes();
      }
    }
    result.bd_total_s = bd.avg(bd.total_ns);
    result.bd_dma_s = bd.avg(bd.dma_ns);
    result.bd_dma_wait_s = bd.avg(bd.dma_wait_ns);
    result.bd_host_write_s = bd.avg(bd.host_write_ns);
    result.bd_others_s = bd.others_ns_avg();
    result.dma_fallback_events = fb1 - fb0;
    result.rpc_fallback_bytes = rpcb1 - rpcb0;

    // OpTracker stage decomposition, summed over every OSD's histograms.
    {
      std::uint64_t n = 0;
      std::uint64_t msgr_ns = 0, queue_ns = 0, store_ns = 0, repl_ns = 0,
                    reply_ns = 0, total_ns = 0;
      for (int i = 0; i < nodes; ++i) {
        const auto& c = cl.osd(i).perf_counters();
        n += c->hist(osd::l_osd_op_lat).count;
        total_ns += c->hist(osd::l_osd_op_lat).sum;
        msgr_ns += c->hist(osd::l_osd_op_msgr_lat).sum;
        queue_ns += c->hist(osd::l_osd_op_queue_lat).sum;
        store_ns += c->hist(osd::l_osd_op_store_lat).sum;
        repl_ns += c->hist(osd::l_osd_op_repl_lat).sum;
        reply_ns += c->hist(osd::l_osd_op_reply_lat).sum;
      }
      if (n > 0) {
        const auto avg_s = [n](std::uint64_t sum) {
          return static_cast<double>(sum) / static_cast<double>(n) * 1e-9;
        };
        result.stage_msgr_s = avg_s(msgr_ns);
        result.stage_queue_s = avg_s(queue_ns);
        result.stage_store_s = avg_s(store_ns);
        result.stage_repl_s = avg_s(repl_ns);
        result.stage_reply_s = avg_s(reply_ns);
        result.stage_total_s = avg_s(total_ns);
      }
    }

    // Backpressure telemetry: throttled bounces by layer (counters were
    // reset at the start of the measured window).
    for (int i = 0; i < nodes; ++i) {
      result.osd_throttled += cl.osd(i).perf_counters()->get(osd::l_osd_op_throttled);
      if (auto* p = cl.proxy_store(i)) {
        const auto& pc = p->perf_counters();
        result.proxy_throttled += pc->get(proxy::l_dpu_throttle_queue);
      }
    }
    result.client_throttled =
        cl.client().perf_counters()->get(client::l_client_op_throttled);

    cl.stop();

    // Dump traces after stop so every span has been closed at a
    // deterministic virtual time (same seed => byte-identical file).
    if (!spec.trace_out.empty()) {
      std::string path = spec.trace_out;
      if (const auto pos = path.find("%k"); pos != std::string::npos)
        path.replace(pos, 2, spec.cache_key());
      std::ofstream out(path);
      if (out) {
        out << cl.dump_traces() << "\n";
        std::fprintf(stderr, "[bench] wrote trace %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "[bench] cannot write trace %s\n", path.c_str());
      }
    }
  });
  return result;
}

// ---- cache ---------------------------------------------------------------------

namespace {

constexpr const char* kCacheDir = "bench_cache";

#define DOCEPH_RESULT_FIELDS(X)                                                   \
  X(iops) X(mbps) X(avg_lat_s) X(p50_lat_s) X(p99_lat_s) X(host_cores)            \
  X(dpu_cores)                                                                    \
  X(share_messenger) X(share_objectstore) X(share_osd) X(total_ceph_cores)        \
  X(window_s) X(bd_host_write_s) X(bd_dma_s) X(bd_dma_wait_s) X(bd_others_s)      \
  X(bd_total_s) X(stage_msgr_s) X(stage_queue_s) X(stage_store_s)                 \
  X(stage_repl_s) X(stage_reply_s) X(stage_total_s)

bool load_cached(const std::string& key, RunResult& out) {
  std::ifstream in(std::string(kCacheDir) + "/" + key);
  if (!in) return false;
  std::string name;
  double value = 0;
  while (in >> name >> value) {
#define DOCEPH_LOAD(f) \
  if (name == #f) {    \
    out.f = value;     \
    continue;          \
  }
    DOCEPH_RESULT_FIELDS(DOCEPH_LOAD)
#undef DOCEPH_LOAD
    if (name == "ctx_messenger") out.ctx_messenger = static_cast<std::uint64_t>(value);
    if (name == "ctx_objectstore")
      out.ctx_objectstore = static_cast<std::uint64_t>(value);
    if (name == "ops") out.ops = static_cast<std::uint64_t>(value);
    if (name == "failed_ops") out.failed_ops = static_cast<std::uint64_t>(value);
    if (name == "dma_fallback_events")
      out.dma_fallback_events = static_cast<std::uint64_t>(value);
    if (name == "rpc_fallback_bytes")
      out.rpc_fallback_bytes = static_cast<std::uint64_t>(value);
    if (name == "osd_throttled") out.osd_throttled = static_cast<std::uint64_t>(value);
    if (name == "client_throttled")
      out.client_throttled = static_cast<std::uint64_t>(value);
    if (name == "proxy_throttled")
      out.proxy_throttled = static_cast<std::uint64_t>(value);
  }
  return true;
}

void store_cached(const std::string& key, const RunResult& r) {
  std::error_code ec;
  std::filesystem::create_directories(kCacheDir, ec);
  std::ofstream out(std::string(kCacheDir) + "/" + key);
  if (!out) return;
  out.precision(12);
#define DOCEPH_STORE(f) out << #f << " " << r.f << "\n";
  DOCEPH_RESULT_FIELDS(DOCEPH_STORE)
#undef DOCEPH_STORE
  out << "ctx_messenger " << r.ctx_messenger << "\n";
  out << "ctx_objectstore " << r.ctx_objectstore << "\n";
  out << "ops " << r.ops << "\n";
  out << "failed_ops " << r.failed_ops << "\n";
  out << "dma_fallback_events " << r.dma_fallback_events << "\n";
  out << "rpc_fallback_bytes " << r.rpc_fallback_bytes << "\n";
  out << "osd_throttled " << r.osd_throttled << "\n";
  out << "client_throttled " << r.client_throttled << "\n";
  out << "proxy_throttled " << r.proxy_throttled << "\n";
}

}  // namespace

RunResult run_cached(const RunSpec& spec) {
  const std::string key = spec.cache_key();
  // The trace artifact is the whole point of a traced run, so a cached
  // result (which has no trace file) must not satisfy it. The run still
  // refreshes the numeric cache for later untraced callers.
  const bool tracing = spec.trace_sample_every > 0 || !spec.trace_out.empty();
  const bool no_cache = std::getenv("DOCEPH_NO_CACHE") != nullptr;
  RunResult result;
  if (!no_cache && !tracing && load_cached(key, result)) {
    std::fprintf(stderr, "[bench] cache hit: %s\n", key.c_str());
    return result;
  }
  std::fprintf(stderr, "[bench] running: %s\n", key.c_str());
  result = run_experiment(spec);
  if (!no_cache) store_cached(key, result);
  return result;
}

}  // namespace doceph::benchcore
