#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "dbg/mutex.h"
#include "sim/time.h"

namespace doceph {
class JsonWriter;
}

namespace doceph::osd {

class OpTracker;

/// One request's journey through the Fig. 2 pipeline, as a list of named,
/// monotonically-stamped events. Canonical event names (see DESIGN.md for
/// the mapping to the paper's steps ①–⑨):
///
///   queued      messenger handed the op to the OSD op queue   (after ①–③)
///   dequeued    a tp_osd_tp worker picked it up               (④)
///   sub_op_sent replication messages left for the replicas    (⑤)
///   store_submit  handed to the ObjectStore (in proxy mode this is the
///                 start of the host<->DPU hop)                (⑥,⑦)
///   commit      local WAL commit (or read completion)         (⑧)
///   repl_ack    one replica acknowledged (repeated)           (⑨ per peer)
///   reply_sent  the messenger worker encoded the reply
///
/// The op's creation stamp is the messenger receive stamp, so
/// total = reply_sent - initiated covers the whole OSD-side span.
class TrackedOp {
 public:
  TrackedOp(std::string desc, sim::Time initiated)
      : desc_(std::move(desc)), initiated_(initiated) {}

  void mark_event(const char* event, sim::Time at);

  [[nodiscard]] const std::string& description() const noexcept { return desc_; }
  [[nodiscard]] sim::Time initiated_at() const noexcept { return initiated_; }

  /// Time of the first occurrence of `event` (-1 if never marked).
  [[nodiscard]] sim::Time event_time(const char* event) const;
  /// Time of the last occurrence (for repeated events like repl_ack).
  [[nodiscard]] sim::Time last_event_time(const char* event) const;

  /// Per-stage durations in ns. Consecutive-delta stages whose sum equals
  /// the op's total span *exactly* (overlap between the local commit and
  /// replica acks is resolved by crediting replication only with the tail
  /// beyond the local commit, and reply with the tail beyond both):
  ///
  ///   messenger    = queued - initiated        (rx decode + dispatch)
  ///   queue        = dequeued - queued         (PG queue wait)
  ///   objectstore  = commit - dequeued         (prep + WAL, or read)
  ///   replication  = max(0, last repl_ack - commit)
  ///   reply        = reply_sent - max(commit, last repl_ack)
  struct StageBreakdown {
    std::uint64_t messenger_ns = 0;
    std::uint64_t queue_ns = 0;
    std::uint64_t objectstore_ns = 0;
    std::uint64_t replication_ns = 0;
    std::uint64_t reply_ns = 0;
    std::uint64_t total_ns = 0;

    [[nodiscard]] std::uint64_t sum() const noexcept {
      return messenger_ns + queue_ns + objectstore_ns + replication_ns + reply_ns;
    }
  };
  [[nodiscard]] StageBreakdown stage_breakdown() const;

  /// Trace identity of this op (zero when unsampled): the context of the
  /// op-level span (`osd.op` / `client.op`), so admin-socket op dumps and
  /// trace dumps cross-reference by trace_id/span_id.
  void set_trace(const trace::TraceContext& ctx) noexcept { trace_ = ctx; }
  [[nodiscard]] const trace::TraceContext& trace() const noexcept { return trace_; }

  /// The op-level RAII span, owned here so it lives exactly as long as the
  /// op is in flight (partial on crash, ended at retirement).
  void adopt_span(trace::Span sp) noexcept { span_ = std::move(sp); }
  [[nodiscard]] trace::Span& span() noexcept { return span_; }

  /// {"description":..., "initiated_at":..., "events":[{event,at},...]}
  void dump(JsonWriter& w) const;

 private:
  friend class OpTracker;

  std::string desc_;
  sim::Time initiated_;
  // Both set once at registration (before the op is visible to dumps).
  trace::TraceContext trace_;
  trace::Span span_;
  // Guarded by the owning OpTracker's mutex_, not mutex_ below (set once at
  // registration, read at retirement) — not expressible as a static guard.
  std::uint64_t seq_ = 0;  // tracker registration id

  mutable dbg::Mutex mutex_{"osd.tracked_op"};
  std::vector<std::pair<const char*, sim::Time>> events_
      DOCEPH_GUARDED_BY(mutex_);
};
using TrackedOpRef = std::shared_ptr<TrackedOp>;

/// Registry of in-flight ops plus a bounded ring of completed "historic"
/// ops (slowest-first eviction candidates are simply the oldest — a recency
/// ring, like Ceph's OpHistory). Completed ops faster than
/// `slow_threshold` are dropped unless the threshold is zero (keep all).
class OpTracker {
 public:
  struct Config {
    std::size_t history_size = 20;        ///< historic ring capacity
    sim::Duration slow_threshold = 0;     ///< 0 = keep every completed op
  };

  OpTracker() = default;
  explicit OpTracker(Config cfg) : cfg_(cfg) {}

  /// Register a new op; `initiated` is the messenger receive stamp.
  TrackedOpRef create_op(std::string desc, sim::Time initiated);

  /// Unregister; the op moves to the historic ring if it qualifies.
  void finish_op(const TrackedOpRef& op, sim::Time now);

  [[nodiscard]] std::size_t ops_in_flight() const;
  [[nodiscard]] std::size_t history_count() const;

  /// Visit completed ops, oldest first (snapshot; ops are immutable once
  /// finished).
  void for_each_historic(const std::function<void(const TrackedOp&)>& fn) const;

  /// {"ops_in_flight": n, "ops": [...]}
  [[nodiscard]] std::string dump_ops_in_flight() const;
  /// {"history_size": n, "ops": [...oldest first...]}
  [[nodiscard]] std::string dump_historic_ops() const;

  void clear_history();

 private:
  Config cfg_;
  mutable dbg::Mutex mutex_{"osd.op_tracker"};
  std::uint64_t next_seq_ DOCEPH_GUARDED_BY(mutex_) = 1;
  std::map<std::uint64_t, TrackedOpRef> in_flight_ DOCEPH_GUARDED_BY(mutex_);
  std::deque<TrackedOpRef> history_ DOCEPH_GUARDED_BY(mutex_);
};

}  // namespace doceph::osd
