#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bluestore/bluestore.h"
#include "client/rados_client.h"
#include "common/fault.h"
#include "dpu/dpu_device.h"
#include "net/fabric.h"
#include "osd/osd.h"
#include "proxy/host_backend.h"
#include "proxy/proxy_object_store.h"

/// Calibration constants for the paper's testbed (Table 1): two storage
/// nodes (AMD EPYC 9474F host + BlueField-3 DPU + Samsung PM893 SATA SSD),
/// one client node, 100 Gbps Ethernet (1 Gbps for the Fig. 5/6 comparison).
///
/// Derivations are commented inline; EXPERIMENTS.md records how close the
/// resulting numbers land to the paper's.
namespace doceph::cluster {

enum class DeployMode {
  baseline,  ///< full Ceph on the host; BlueField in NIC mode
  doceph,    ///< OSD on the DPU; host runs BlueStore + backend service only
};

enum class NetworkKind { gbe_1, gbe_100 };

inline net::NicProfile nic_for(NetworkKind k) {
  switch (k) {
    case NetworkKind::gbe_1:
      return {.bw_bytes_per_sec = 1e9 / 8, .latency = 30'000};
    case NetworkKind::gbe_100:
      return {.bw_bytes_per_sec = 100e9 / 8, .latency = 5'000};
  }
  return {};
}

/// Kernel TCP/IP stack cost. ~0.45 ns/B covers the user/kernel copy and
/// skb handling at memory bandwidth; with the messenger's 0.3 ns/B crc32c
/// this puts messenger cost at ~0.75 ns/B of traffic — which reproduces the
/// paper's measurement that the messenger burns ~80% of Ceph CPU (Fig. 5).
inline net::StackModel default_stack() {
  return net::StackModel{
      .per_syscall = 1'500, .per_byte_ns = 0.45, .per_frame = 250, .mtu = 9000};
}

/// PM893-class SATA SSD behind BlueStore-lite.
inline bluestore::BlueStoreConfig default_store(bool retain_data) {
  bluestore::BlueStoreConfig cfg;
  cfg.device.size_bytes = 256ull << 30;
  cfg.device.write_bw = 530e6;
  cfg.device.read_bw = 550e6;
  cfg.device.write_latency = 60'000;
  cfg.device.read_latency = 90'000;
  cfg.device.retain_data = retain_data;
  cfg.device.retain_below = cfg.wal_off + cfg.wal_len;  // WAL always persists
  // Host-side data-path CPU: ~0.10 ns/B checksum + small per-op costs. Gives
  // Baseline's ObjectStore its ~8-10% share of Ceph CPU (Fig. 5) while
  // keeping the DoCeph host near the paper's ~5-7% of a core (Fig. 7).
  cfg.csum_per_byte_ns = 0.10;
  cfg.kv_costs = {.per_txn = 6'000, .per_byte_ns = 0.05};
  cfg.per_op_prep = 3'000;
  cfg.per_aio = 4'000;
  return cfg;
}

inline osd::OsdConfig default_osd(int id) {
  osd::OsdConfig cfg;
  cfg.id = id;
  cfg.public_port = 6800;
  cfg.op_threads = 2;
  // Real Ceph burns several hundred microseconds of tp_osd_tp CPU per op
  // (dispatch, PG locking, repop bookkeeping); this per-op floor is what
  // makes Baseline utilization fall from ~94% at 1 MB to ~67% at 16 MB as
  // the op rate drops 15x (Fig. 7).
  cfg.per_op_cost = 400'000;
  return cfg;
}

/// BlueField-3: 16 Cortex-A78 cores at roughly 0.45x the per-core throughput
/// of the host's EPYC cores; integrated ConnectX-7; PCIe Gen5.
inline dpu::DpuProfile default_dpu(NetworkKind net) {
  dpu::DpuProfile p;
  p.cores = 16;
  p.core_speed = 0.45;
  p.nic = nic_for(net);
  p.stack = default_stack();
  p.pcie = {.bw_bytes_per_sec = 26e9, .latency = 2'000};
  // p.dma keeps doca::DmaConfig's defaults: the Table 3 fit (2.6 GB/s engine
  // bandwidth + 2.4 ms per-job setup that pipelining overlaps across jobs).
  p.comch = {.max_msg_size = 4080,
             .per_msg_overhead = 6'000,
             .cpu_ns_per_byte = 0.15,
             .name = {}};
  return p;
}

/// Proxy defaults: 2 MB segments (hardware cap) and ONE segment's worth of
/// paired staging/write region per node — the pre-established memory region
/// the paper reuses "instead of performing CommChannel negotiation for each
/// transfer" (§3.3). The region is carved at byte granularity, so sub-segment
/// writes (16 KB) co-reside and overlap their DMA setup, while every 2 MB
/// segment still fills it: serializing large writes through it is what
/// produces the paper's large DMA-wait (44.8% of latency at 1 MB with 2 MB
/// jobs, Table 3/Fig. 9) and its 4-16 MB DoCeph IOPS column (Fig. 10);
/// ablations sweep the region size to show the headroom more would buy.
/// Reads hold the paired region only for their DMA leg: the host stages
/// their SSD results in a host-only read landing of twice the paired size
/// (4 MB), enough for the three 1 MB reads per node that keep the SSD busy
/// (DESIGN.md §4.4).
inline proxy::ProxyConfig default_proxy() {
  proxy::ProxyConfig cfg;
  cfg.segment_size = 2 << 20;
  cfg.slots = 1;
  cfg.cooldown = 500'000'000;
  cfg.stage_copy_ns_per_byte = 0.15;
  return cfg;
}

inline proxy::HostBackendConfig default_backend() {
  proxy::HostBackendConfig cfg;
  cfg.copy_ns_per_byte = 0.02;
  return cfg;
}

struct ClusterConfig {
  DeployMode mode = DeployMode::baseline;
  NetworkKind network = NetworkKind::gbe_100;

  int storage_nodes = 2;
  std::uint32_t replicas = 2;
  std::uint32_t pg_num = 64;
  os::pool_t pool_id = 1;

  /// Host CPU provisioned to the storage stack. Utilization percentages are
  /// reported per core-normalized convention (see EXPERIMENTS.md): the paper
  /// reports "CPU usage normalized to a single core".
  int host_cores = 8;
  double host_speed = 1.0;
  int client_cores = 16;

  bool retain_data = true;  ///< false for long benches (bounds host RAM)

  /// BlueStore KV shard count for every storage node. Clamped to >= 1 in
  /// store_config(); 1 keeps the paper cells byte-identical.
  int kv_shards = 1;

  osd::OsdConfig osd_template = default_osd(0);
  proxy::ProxyConfig proxy = default_proxy();
  proxy::HostBackendConfig backend = default_backend();
  client::ClientConfig client;

  /// Fault specs armed into the env registry during start() — the config
  /// half of fault injection (the admin socket's `fault set` is the runtime
  /// half). Scoping convention: net faults match "src>dst" node names,
  /// devices match "dpu-<i>" / "bdev-<i>", daemon crashes match "osd.<i>".
  std::vector<std::pair<std::string, fault::FaultSpec>> initial_faults;

  /// Poll cadence of the chaos monitor thread that executes "osd.crash"
  /// (graceful shutdown) / "osd.hard_crash" (power-loss kill through
  /// BlueStore::simulate_crash) / "osd.restart" fault fires (daemon
  /// kill/revive cannot run inline in a daemon's own thread).
  sim::Duration chaos_poll = 250'000'000;  // 250 ms

  [[nodiscard]] bluestore::BlueStoreConfig store_config() const {
    bluestore::BlueStoreConfig cfg = default_store(retain_data);
    cfg.kv_shards = std::max(1, kv_shards);  // shard-bounds: knob >= 1
    // Each KV shard owns a full-size WAL ring (DESIGN.md §15), mirroring
    // multi-instance RocksDB where every shard gets its own WAL files.
    // Splitting the single 64 MiB region N ways instead would shrink the
    // per-shard checkpoint ceiling by N (worse with hash imbalance), and
    // fresh-object floods that fit the unsharded store would trip nearfull
    // shedding. At kv_shards == 1 this is the identity, so paper cells are
    // untouched; the data region shifts by (N-1) * 64 MiB of 256 GiB.
    cfg.wal_len *= static_cast<std::uint64_t>(cfg.kv_shards);
    cfg.device.retain_below = cfg.wal_off + cfg.wal_len;
    return cfg;
  }
  [[nodiscard]] dpu::DpuProfile dpu_profile() const { return default_dpu(network); }

  /// The paper's 3-node testbed in the given mode/network.
  static ClusterConfig paper_testbed(DeployMode mode,
                                     NetworkKind net = NetworkKind::gbe_100,
                                     bool retain_data = false) {
    ClusterConfig cfg;
    cfg.mode = mode;
    cfg.network = net;
    cfg.retain_data = retain_data;
    return cfg;
  }
};

}  // namespace doceph::cluster
