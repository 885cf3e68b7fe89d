#pragma once

#include <array>
#include <string_view>

namespace doceph::fault {

/// Central registry of every fault-point name in the tree.
///
/// A fault point is a name passed to FaultRegistry::should_fire()/hit()
/// (consulting side) or set()/fire_next() (arming side). Names are
/// "<layer>.<event>"; the scope string passed alongside selects instances
/// (e.g. match=dpu-0). Every name used anywhere in src/, tests/ or bench/
/// MUST be listed here — scripts/doceph_lint.py cross-checks call-site
/// string literals against this header, so a typo'd point that would arm
/// (or probe) a name nothing ever consults fails lint instead of silently
/// never firing.
///
/// Keep the list sorted by layer, then name. DESIGN.md §7 documents the
/// semantics of each point.
namespace points {

// net/ — consulted per message hop in Fabric (scope "src->dst:port").
inline constexpr std::string_view kNetDelay = "net.delay";
inline constexpr std::string_view kNetDisconnect = "net.disconnect";
inline constexpr std::string_view kNetDrop = "net.drop";
inline constexpr std::string_view kNetPartition = "net.partition";

// doca/ — CommChannel sends and DMA transfers (scope: device name).
inline constexpr std::string_view kDocaComchDrop = "doca.comch_drop";
inline constexpr std::string_view kDocaComchStall = "doca.comch_stall";
inline constexpr std::string_view kDocaDmaError = "doca.dma_error";

// bluestore/ — per block-device IO (scope: BlockDeviceConfig::name).
inline constexpr std::string_view kBdevIoError = "bdev.io_error";
inline constexpr std::string_view kBdevLatencySpike = "bdev.latency_spike";

// osd/ — crash/restart points are polled by the cluster chaos monitor;
// osd.overload is consulted inline at client-op dispatch and forces the
// next op to be bounced with Errc::throttled (scope "osd.N").
inline constexpr std::string_view kOsdCrash = "osd.crash";
inline constexpr std::string_view kOsdHardCrash = "osd.hard_crash";
inline constexpr std::string_view kOsdOverload = "osd.overload";
inline constexpr std::string_view kOsdRestart = "osd.restart";

}  // namespace points

/// Every registered point, for enumeration (admin tooling, tests).
inline constexpr std::array<std::string_view, 13> kAllFaultPoints = {
    points::kNetDelay,      points::kNetDisconnect,   points::kNetDrop,
    points::kNetPartition,  points::kDocaComchDrop,   points::kDocaComchStall,
    points::kDocaDmaError,  points::kBdevIoError,     points::kBdevLatencySpike,
    points::kOsdCrash,      points::kOsdHardCrash,    points::kOsdOverload,
    points::kOsdRestart,
};

}  // namespace doceph::fault
