#pragma once

#include <array>
#include <string_view>

namespace doceph::trace {

/// Central registry of every span name in the tree.
///
/// A trace point is a span-name literal passed to Tracer::span() or
/// Tracer::record_span(). Names are "<layer>.<event>" (sub-events may nest
/// further dots); the domain string passed alongside selects the instance
/// (e.g. "osd.0", "dma.dpu-0"). Every name used anywhere in src/, tests/
/// or bench/ MUST be listed here — scripts/doceph_lint.py cross-checks
/// call-site string literals against this header, so a typo'd span name
/// that would fracture an op's span tree fails lint instead of silently
/// producing an orphan span.
///
/// Keep the list sorted by layer, then name. DESIGN.md §12 documents the
/// span taxonomy and which Fig.-2 stage each point covers.
namespace points {

// bluestore/ — WAL/KV commit of one transaction (domain "bluestore.<bdev>").
inline constexpr std::string_view kBluestoreTxn = "bluestore.txn";

// client/ — root span of one client op, submit -> completion (domain
// "client.<id>").
inline constexpr std::string_view kClientOp = "client.op";

// doca/ — one DMA copy job, submit -> completion (domain "dma.<engine>").
inline constexpr std::string_view kDocaDmaJob = "doca.dma_job";

// proxy/ (DPU side) — domain "dpu.<name>".
inline constexpr std::string_view kDpuRead = "dpu.read";
inline constexpr std::string_view kDpuRpcSubmitTxn = "dpu.rpc.submit_txn";
inline constexpr std::string_view kDpuWrite = "dpu.write";

// proxy/ (host side) — comch request arrival -> store commit, or -> read
// reply sent with the data staged in the landing (domain "host.<name>").
inline constexpr std::string_view kHostRead = "host.read";
inline constexpr std::string_view kHostSubmitTxn = "host.submit_txn";

// msgr/ — header arrival -> dispatcher return (domain "msgr.<entity>").
inline constexpr std::string_view kMsgrDispatch = "msgr.dispatch";

// osd/ — recv -> reply_sent, plus the five Fig.-2 stage children that
// exact-sum to it (domain "osd.<id>").
inline constexpr std::string_view kOsdOp = "osd.op";
inline constexpr std::string_view kOsdStageMessenger = "osd.stage.messenger";
inline constexpr std::string_view kOsdStageQueue = "osd.stage.queue";
inline constexpr std::string_view kOsdStageStore = "osd.stage.store";
inline constexpr std::string_view kOsdStageRepl = "osd.stage.replication";
inline constexpr std::string_view kOsdStageReply = "osd.stage.reply";
// osd.throttle replaces osd.op for ops bounced at admission (recv ->
// throttled reply sent; no stage children, the op never entered the queue).
inline constexpr std::string_view kOsdThrottle = "osd.throttle";

}  // namespace points

/// Every registered point, for enumeration (admin tooling, tests).
inline constexpr std::array<std::string_view, 16> kAllTracePoints = {
    points::kBluestoreTxn,      points::kClientOp,         points::kDocaDmaJob,
    points::kDpuRead,           points::kDpuRpcSubmitTxn,  points::kDpuWrite,
    points::kHostRead,          points::kHostSubmitTxn,    points::kMsgrDispatch,
    points::kOsdOp,             points::kOsdStageMessenger, points::kOsdStageQueue,
    points::kOsdStageStore,     points::kOsdStageRepl,     points::kOsdStageReply,
    points::kOsdThrottle,
};

}  // namespace doceph::trace
