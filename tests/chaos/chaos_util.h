#pragma once

// Shared scaffolding for the chaos suite: seeded scenario runner with the
// reproducibility contract (same seed => identical fault firing sequence)
// and a single-node DoCeph storage-path fixture (DPU + proxy + host
// backend) whose universe seed the test controls.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "../test_util.h"
#include "bluestore/bluestore.h"
#include "dpu/dpu_device.h"
#include "net/fabric.h"
#include "proxy/host_backend.h"
#include "proxy/proxy_object_store.h"
#include "sim/env.h"

namespace doceph::testing {

/// Run `scenario` on a sim thread of a fresh virtual-time universe seeded
/// with `seed`; return the fault firing log (the registry keeps it across
/// clear_all(), so logs survive cluster/fixture teardown).
inline std::vector<std::string> chaos_run(
    std::uint64_t seed, const std::function<void(sim::Env&)>& scenario) {
  sim::Env env(sim::TimeKeeper::Mode::virtual_time, seed);
  run_sim(env, [&] { scenario(env); });
  return env.faults().firing_log();
}

/// Universe seed for drills whose assertions hold for ANY seed: the nightly
/// chaos matrix exports DOCEPH_SEED to sweep the suite across universes;
/// without it the fallback keeps local runs deterministic. Tests that pin
/// an exact firing log must keep their literal seed instead.
inline std::uint64_t env_seed(std::uint64_t fallback) {
  const char* s = std::getenv("DOCEPH_SEED");
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtoull(s, nullptr, 10);
}

/// The suite's determinism contract: two runs from one seed must produce
/// bit-identical fault firing sequences.
inline void expect_reproducible(std::uint64_t seed,
                                const std::function<void(sim::Env&)>& scenario) {
  const auto first = chaos_run(seed, scenario);
  const auto second = chaos_run(seed, scenario);
  EXPECT_FALSE(first.empty()) << "scenario fired no faults";
  EXPECT_EQ(first, second) << "same-seed chaos runs diverged";
}

/// One DoCeph storage node without the OSD on top: DPU ("dpu-0") + proxy
/// store + host BlueStore + backend. Unlike tests/proxy's fixture this
/// borrows the caller's Env so chaos scenarios pick the seed, and up()/
/// down() run inline (the scenario is already on a sim thread).
struct ChaosProxyNode {
  sim::Env& env;
  net::Fabric fabric;
  sim::CpuDomain host_cpu;
  dpu::DpuDevice dpu;
  std::unique_ptr<bluestore::BlueStore> store;
  std::unique_ptr<proxy::HostBackendService> backend;
  std::unique_ptr<proxy::ProxyObjectStore> proxy;

  static constexpr os::coll_t kColl{1, 0};

  explicit ChaosProxyNode(sim::Env& e, proxy::ProxyConfig pcfg = {})
      : env(e),
        fabric(e),
        host_cpu(e.keeper(), "host-0", 8, 1.0),
        dpu(e, fabric, "dpu-0", dpu::DpuProfile{}) {
    bluestore::BlueStoreConfig scfg;
    scfg.device.size_bytes = 4ull << 30;
    scfg.device.name = "bdev-0";
    store = std::make_unique<bluestore::BlueStore>(env, &host_cpu, scfg);
    proxy = std::make_unique<proxy::ProxyObjectStore>(env, dpu, pcfg);
    backend = std::make_unique<proxy::HostBackendService>(
        env, host_cpu, *store, dpu.host_comch(), proxy->slots().host_mmap());
  }

  Status up() {
    Status st = store->mkfs();
    if (!st.ok()) return st;
    st = store->mount();
    if (!st.ok()) return st;
    st = backend->start();
    if (!st.ok()) return st;
    st = proxy->mount();
    if (!st.ok()) return st;
    os::Transaction t;
    t.create_collection(kColl);
    return commit(std::move(t));
  }

  void down() {
    (void)proxy->umount();
    (void)store->umount();
    backend->shutdown();
  }

  /// Queue a transaction and block (sim time) until the host commits it.
  Status commit(os::Transaction t) {
    std::mutex m;
    sim::CondVar cv(env.keeper());
    bool done = false;
    Status out;
    proxy->queue_transaction(std::move(t), [&](Status st) {
      const std::lock_guard<std::mutex> lk(m);
      out = st;
      done = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return done; });
    return out;
  }

  Status write(const std::string& name, std::size_t bytes, unsigned seed = 7) {
    os::Transaction t;
    t.write(kColl, {1, name}, 0, BufferList::copy_of(pattern(bytes, seed)));
    return commit(std::move(t));
  }
};

}  // namespace doceph::testing
