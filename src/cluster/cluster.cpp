#include "cluster/cluster.h"

#include "common/json.h"
#include "common/logger.h"

namespace doceph::cluster {

Cluster::Cluster(sim::Env& env, ClusterConfig cfg)
    : env_(env), cfg_(std::move(cfg)), fabric_(env) {}

Cluster::~Cluster() { stop(); }  // NOLINT(bugprone-exception-escape): teardown must complete; a throw terminates, by design

Status Cluster::start() {
  // Runs on a registered sim thread: while we are RUNNABLE constructing
  // components, the clock cannot run ahead — and our own blocking calls
  // (mkfs, mounts, boots) legitimately advance it.

  // MON node (CPU-only machine).
  mon_net_ = &fabric_.add_node("mon-host", nic_for(cfg_.network), default_stack());
  mon_cpu_ = std::make_unique<sim::CpuDomain>(env_.keeper(), "mon", 4, cfg_.host_speed);
  mon_ = std::make_unique<mon::Monitor>(env_, fabric_, *mon_net_, mon_cpu_.get(),
                                        cfg_.storage_nodes);
  Status st = mon_->start();
  if (!st.ok()) return st;
  const net::Address mon_addr = mon_->addr();

  // Storage nodes.
  for (int i = 0; i < cfg_.storage_nodes; ++i) {
    auto node = std::make_unique<Node>();
    node->host_cpu = std::make_unique<sim::CpuDomain>(
        env_.keeper(), "host-" + std::to_string(i), cfg_.host_cores, cfg_.host_speed);
    node->backing = std::make_shared<bluestore::DeviceBacking>();
    auto store_cfg = cfg_.store_config();
    store_cfg.device.name = "bdev-" + std::to_string(i);
    node->store = std::make_unique<bluestore::BlueStore>(
        env_, node->host_cpu.get(), store_cfg, node->backing);
    st = node->store->mkfs();
    if (!st.ok()) return st;
    st = node->store->mount();
    if (!st.ok()) return st;

    os::ObjectStore* osd_store = node->store.get();
    net::NetNode* osd_net = nullptr;
    sim::CpuDomain* osd_domain = nullptr;

    if (cfg_.mode == DeployMode::baseline) {
      // BlueField in NIC mode: the host owns the public network identity.
      node->host_net = &fabric_.add_node("storage-" + std::to_string(i),
                                         nic_for(cfg_.network), default_stack());
      osd_net = node->host_net;
      osd_domain = node->host_cpu.get();
    } else {
      // DPU mode: the ConnectX terminates on the DPU; the host is reachable
      // only through the proxy channel.
      node->dpu = std::make_unique<dpu::DpuDevice>(
          env_, fabric_, "dpu-" + std::to_string(i), cfg_.dpu_profile());
      node->pstore =
          std::make_unique<proxy::ProxyObjectStore>(env_, *node->dpu, cfg_.proxy);
      node->backend = std::make_unique<proxy::HostBackendService>(
          env_, *node->host_cpu, *node->store, node->dpu->host_comch(),
          node->pstore->slots().host_mmap(), cfg_.backend);
      st = node->backend->start();
      if (!st.ok()) return st;
      st = node->pstore->mount();
      if (!st.ok()) return st;
      osd_store = node->pstore.get();
      osd_net = &node->dpu->net_node();
      osd_domain = &node->dpu->cpu();
    }

    auto osd_cfg = cfg_.osd_template;
    osd_cfg.id = i;
    node->osd = std::make_unique<osd::OSD>(env_, fabric_, *osd_net, osd_domain,
                                           *osd_store, mon_addr, osd_cfg);
    st = node->osd->init();
    if (!st.ok()) return st;
    nodes_.push_back(std::move(node));
  }

  // Pool, then the client.
  mon_->create_pool(cfg_.pool_id, crush::PoolInfo{.name = "bench",
                                                  .pg_num = cfg_.pg_num,
                                                  .size = cfg_.replicas});

  client_net_ = &fabric_.add_node("client-host", nic_for(cfg_.network), default_stack());
  client_cpu_ = std::make_unique<sim::CpuDomain>(env_.keeper(), "client",
                                                 cfg_.client_cores, cfg_.host_speed);
  client_ = std::make_unique<client::RadosClient>(
      env_, fabric_, *client_net_, client_cpu_.get(), mon_addr, 1, cfg_.client);
  st = client_->connect();
  if (!st.ok()) return st;

  // Arm configured faults, then start the chaos monitor that executes
  // daemon-level fires (osd.crash / osd.restart).
  for (const auto& [point, spec] : cfg_.initial_faults) env_.faults().set(point, spec);
  chaos_stop_.store(false);
  chaos_.emplace(env_.spawn("cluster-chaos", nullptr, [this] { chaos_loop(); }));

  started_ = true;
  return Status::OK();
}

void Cluster::chaos_loop() {
  while (!chaos_stop_.load(std::memory_order_acquire)) {
    auto& faults = env_.faults();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      Node& node = *nodes_[i];
      const std::string scope = "osd." + std::to_string(i);
      if (faults.any_armed()) {
        if (node.osd && !node.osd_down &&
            faults.should_fire("osd.crash", env_.now(), scope)) {
          DLOG(info, "cluster") << "chaos: crashing " << scope;
          node.osd->shutdown();
          node.osd_down = true;
        } else if (node.osd && !node.osd_down &&
                   faults.should_fire("osd.hard_crash", env_.now(), scope)) {
          DLOG(info, "cluster") << "chaos: hard-killing " << scope;
          (void)hard_kill_osd(static_cast<int>(i));
        } else if (node.osd_down &&
                   faults.should_fire("osd.restart", env_.now(), scope)) {
          node.restart_pending = true;
        }
      }
      // The node stays marked down until a restart actually succeeds; a
      // failed attempt (say, WAL replay tripping an armed bdev fault) is
      // retried on every poll.
      if (node.osd_down && node.restart_pending) {
        DLOG(info, "cluster") << "chaos: restarting " << scope;
        const Status st = restart_osd(static_cast<int>(i));
        if (st.ok()) {
          node.restart_pending = false;
        } else {
          DLOG(warn, "cluster") << "chaos: restart of " << scope
                                << " failed (will retry): " << st.to_string();
        }
      }
    }
    env_.keeper().sleep_for(cfg_.chaos_poll);
  }
}

Status Cluster::hard_kill_osd(int i) {
  Node& node = *nodes_.at(static_cast<std::size_t>(i));
  if (!node.osd || node.osd_down)
    return Status(Errc::invalid_argument, "osd." + std::to_string(i) + " not up");
  node.osd_down = true;
  // Flight recorder: snapshot open spans (the killed op's partial trace)
  // and recent fault firings *before* teardown destroys the TrackedOps
  // holding them.
  env_.tracer().flight_snapshot("osd." + std::to_string(i) + ".hard_crash",
                                env_.faults().firing_log());
  // Power-loss ordering: the NIC dies first (hard_kill downs the messenger
  // before anything else, so no error replies escape the dead node), then
  // the host store crashes — in-flight transactions and queued KV txns drop
  // with errors into the dying daemons, whose replies land on closed
  // connections. Nothing is drained or checkpointed. The OSD object stays
  // alive until the proxy/backend have failed their outstanding ops into
  // it.
  node.osd->hard_kill();
  node.store->simulate_crash();
  if (cfg_.mode == DeployMode::doceph) {
    if (node.pstore) (void)node.pstore->umount();
    if (node.backend) node.backend->shutdown();
  }
  node.osd.reset();
  if (cfg_.mode == DeployMode::doceph) {
    node.pstore.reset();
    node.backend.reset();
  }
  return Status::OK();
}

void Cluster::stop() {
  if (!started_) return;
  started_ = false;
  // Quiesce the chaos monitor before tearing daemons down (it may be
  // mid-restart; join waits that out). Wakes within one poll interval.
  chaos_stop_.store(true, std::memory_order_release);
  if (chaos_) {
    chaos_->join();
    chaos_.reset();
  }
  env_.faults().clear_all();
  if (client_) client_->shutdown();
  for (auto& node : nodes_) {
    if (node->osd) node->osd->shutdown();
  }
  for (auto& node : nodes_) {
    if (node->pstore) (void)node->pstore->umount();
    if (node->store) (void)node->store->umount();
    if (node->backend) node->backend->shutdown();
  }
  if (mon_) mon_->shutdown();
}

Status Cluster::restart_osd(int i) {
  auto& node = *nodes_.at(static_cast<std::size_t>(i));
  if (node.osd) {
    node.osd->shutdown();
    node.osd.reset();
  }

  // Hard-killed node: bring the host store back through the real recovery
  // path (checkpoint locate + WAL replay). This can fail — an armed bdev
  // fault during replay, say — in which case the node stays down and the
  // chaos monitor retries.
  if (!node.store->is_mounted()) {
    const Status st = node.store->mount();
    if (!st.ok()) {
      env_.tracer().flight_snapshot("osd." + std::to_string(i) + ".remount_failed",
                                    env_.faults().firing_log());
      return st;
    }
  }
  if (cfg_.mode == DeployMode::doceph && !node.pstore) {
    // Re-create the DPU-side daemons over the surviving DpuDevice so the
    // proxy re-attaches to the remounted host store (fresh staging arena,
    // fresh RPC channel; the backend maps the new arena's host-side region).
    // The old comm channel was closed by the teardown; renegotiate it first.
    node.dpu->reset_comch();
    node.pstore =
        std::make_unique<proxy::ProxyObjectStore>(env_, *node.dpu, cfg_.proxy);
    node.backend = std::make_unique<proxy::HostBackendService>(
        env_, *node.host_cpu, *node.store, node.dpu->host_comch(),
        node.pstore->slots().host_mmap(), cfg_.backend);
    Status st = node.backend->start();
    if (!st.ok()) return st;
    st = node.pstore->mount();
    if (!st.ok()) return st;
  }

  os::ObjectStore* osd_store = node.store.get();
  net::NetNode* osd_net = node.host_net;
  sim::CpuDomain* osd_domain = node.host_cpu.get();
  if (cfg_.mode == DeployMode::doceph) {
    osd_store = node.pstore.get();
    osd_net = &node.dpu->net_node();
    osd_domain = &node.dpu->cpu();
  }
  auto osd_cfg = cfg_.osd_template;
  osd_cfg.id = i;
  node.osd = std::make_unique<osd::OSD>(env_, fabric_, *osd_net, osd_domain,
                                        *osd_store, mon_->addr(), osd_cfg);
  const Status st = node.osd->init();
  if (st.ok()) node.osd_down = false;  // only a live OSD counts as up
  return st;
}

void Cluster::wait_all_clean() {
  while (true) {
    bool clean = true;
    for (auto& node : nodes_)
      if (node->osd && !node->osd_down) clean &= node->osd->all_clean();
    if (clean) return;
    env_.keeper().sleep_for(sim::Duration{100} * 1'000'000);  // 100 ms
  }
}

Cluster::ScrubReport Cluster::scrub_replicas() {
  ScrubReport rep;
  const auto map = mon_->current_map();
  for (const auto& [pool_id, pool] : map.pools()) {
    for (std::uint32_t seed = 0; seed < pool.pg_num; ++seed) {
      const crush::pg_t pg{pool_id, seed};
      const os::coll_t coll = pg.to_coll();

      // Per-object digest on every up acting member's host store.
      struct Digest {
        std::uint64_t size = 0;
        std::uint32_t crc = 0;
      };
      std::map<std::string, std::map<int, Digest>> objects;
      std::vector<int> scanned;
      for (const int osd_id : map.pg_to_acting(pg)) {
        Node& node = *nodes_.at(static_cast<std::size_t>(osd_id));
        if (node.osd_down || !node.store->is_mounted()) continue;
        scanned.push_back(osd_id);
        if (!node.store->collection_exists(coll)) continue;
        auto listed = node.store->list_objects(coll);
        if (!listed.ok()) {
          rep.errors.push_back("pg " + pg.to_string() + " osd." +
                               std::to_string(osd_id) + " list: " +
                               listed.status().to_string());
          continue;
        }
        for (const auto& oid : *listed) {
          auto content = node.store->read(coll, oid, 0, 0);
          if (!content.ok()) {
            rep.errors.push_back("pg " + pg.to_string() + " osd." +
                                 std::to_string(osd_id) + " " + oid.name +
                                 ": " + content.status().to_string());
            continue;
          }
          objects[oid.name][osd_id] =
              Digest{content->length(), content->crc32c_verify()};
        }
      }

      for (const auto& [name, per_osd] : objects) {
        ++rep.objects;
        bool diverged = false;
        const Digest& want = per_osd.begin()->second;
        for (const int osd_id : scanned) {
          auto it = per_osd.find(osd_id);
          if (it == per_osd.end()) {
            diverged = true;
            rep.errors.push_back("pg " + pg.to_string() + " " + name +
                                 " missing on osd." + std::to_string(osd_id));
          } else if (it->second.size != want.size || it->second.crc != want.crc) {
            diverged = true;
            rep.errors.push_back("pg " + pg.to_string() + " " + name +
                                 " digest mismatch on osd." +
                                 std::to_string(osd_id));
          }
        }
        if (diverged) ++rep.divergent;
      }
    }
  }
  return rep;
}

Cluster::CpuSample Cluster::cpu_sample() const {
  CpuSample s;
  s.at = env_.now();
  for (const auto& node : nodes_) {
    s.host_busy.push_back(node->host_cpu->busy_ns());
    s.dpu_busy.push_back(node->dpu ? node->dpu->cpu().busy_ns() : 0);
  }
  return s;
}

double Cluster::host_cores_used(const CpuSample& a, const CpuSample& b) const {
  const auto window = static_cast<double>(b.at - a.at);
  if (window <= 0 || a.host_busy.empty()) return 0.0;
  double total = 0;
  for (std::size_t i = 0; i < a.host_busy.size(); ++i)
    total += static_cast<double>(b.host_busy[i] - a.host_busy[i]) / window;
  return total / static_cast<double>(a.host_busy.size());
}

std::string Cluster::admin_dump(const std::string& command) {
  JsonWriter w;
  w.begin_object();
  const auto emit = [&](const std::string& name, AdminSocket& admin) {
    const auto r = admin.execute(command);
    if (!r.ok()) return;
    w.key(name);
    w.raw_value(*r);
  };
  if (mon_) emit("mon.0", mon_->admin_socket());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = *nodes_[i];
    if (node.osd) emit("osd." + std::to_string(i), node.osd->admin_socket());
    if (node.pstore) emit("dpu." + std::to_string(i), node.pstore->admin_socket());
  }
  if (client_) emit("client", client_->admin_socket());
  w.end_object();
  return w.str();
}

std::string Cluster::dump_traces(std::string_view domain_filter) const {
  return env_.tracer().dump_chrome_json(domain_filter);
}

void Cluster::reset_observability() {
  env_.tracer().reset();
  if (mon_) mon_->perf_collection().reset_all();
  for (const auto& node : nodes_) {
    if (node->osd) {
      node->osd->perf_collection().reset_all();
      node->osd->op_tracker().clear_history();
    }
    if (node->pstore) node->pstore->perf_collection().reset_all();
    // In DoCeph mode the host BlueStore block belongs to no daemon
    // collection (the OSD fronts the proxy store); reset it directly.
    if (node->store)
      if (auto c = node->store->perf_counters()) c->reset();
  }
  if (client_) {
    client_->perf_collection().reset_all();
    client_->op_tracker().clear_history();
  }
}

double Cluster::dpu_cores_used(const CpuSample& a, const CpuSample& b) const {
  const auto window = static_cast<double>(b.at - a.at);
  if (window <= 0 || a.dpu_busy.empty()) return 0.0;
  double total = 0;
  for (std::size_t i = 0; i < a.dpu_busy.size(); ++i)
    total += static_cast<double>(b.dpu_busy[i] - a.dpu_busy[i]) / window;
  return total / static_cast<double>(a.dpu_busy.size());
}

}  // namespace doceph::cluster
