#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "common/admin_socket.h"
#include "common/perf_counters.h"
#include "dbg/cond_var.h"
#include "dbg/io_gate.h"
#include "dbg/mutex.h"
#include "mon/mon_client.h"
#include "msgr/messages.h"
#include "msgr/messenger.h"
#include "os/types.h"
#include "osd/op_tracker.h"
#include "sim/rng.h"

namespace doceph::client {

/// Metric indices of the per-client "client" PerfCounters block.
enum {
  l_client_first = 92000,
  l_client_op,          ///< ops completed (any status)
  l_client_op_retry,    ///< resends (busy bounce, retarget, no-primary, silence)
  l_client_op_timeout,  ///< ops failed by deadline or retry exhaustion
  l_client_op_lat,      ///< client-observed end-to-end latency, ns histogram
  l_client_op_throttled,  ///< throttled bounces received (each is later retried)
  l_client_cwnd,          ///< gauge: current AIMD window (effective queue depth)
  l_client_last,
};

/// Retry/timeout policy. The backoff is exponential with "equal jitter"
/// (delay in [d/2, d], d doubling per attempt up to the cap) so a thundering
/// herd of retries against a recovering OSD spreads out; the jitter stream
/// is seeded from the env, so runs stay deterministic. `resend_timeout`
/// turns a silent primary (partition, crash before reply) into a resend
/// instead of a hang; `op_deadline` bounds the op's total lifetime.
struct ClientConfig {
  int max_attempts = 300;
  sim::Duration retry_delay_base = 10'000'000;    // 10 ms
  sim::Duration retry_delay_max = 1'000'000'000;  // 1 s
  sim::Duration resend_timeout = 5'000'000'000;   // 5 s of reply silence
  sim::Duration op_deadline = 120'000'000'000;    // 120 s hard limit

  /// AIMD flow control: concurrently-sent ops are capped by a congestion
  /// window that starts here, halves on each Errc::throttled bounce (down
  /// to kCwndMin) and grows by 1/cwnd per successful op (up to kCwndMax).
  /// Ops beyond the window wait client-side instead of hammering an
  /// overloaded OSD.
  double cwnd_init = 64;
};

/// Bounds of the AIMD congestion window (ClientConfig::cwnd_init).
inline constexpr double kCwndMin = 1;
inline constexpr double kCwndMax = 4096;

/// Completion handle for asynchronous object operations (librados
/// AioCompletion). wait() blocks the calling sim thread.
class AioCompletion {
 public:
  explicit AioCompletion(sim::TimeKeeper& tk) : cv_(tk, "client.completion_cv") {}

  /// Block until the operation completed; returns its status.
  Status wait();

  [[nodiscard]] bool complete() const;
  [[nodiscard]] Status status() const;
  [[nodiscard]] std::uint64_t object_version() const { return version_; }
  [[nodiscard]] std::uint64_t object_size() const { return size_; }
  [[nodiscard]] const BufferList& data() const { return data_; }

 private:
  friend class RadosClient;
  mutable dbg::Mutex m_{"client.completion"};
  mutable dbg::CondVar cv_;
  bool done_ DOCEPH_GUARDED_BY(m_) = false;
  Status status_ DOCEPH_GUARDED_BY(m_);
  // version_/size_/data_ are written under m_ strictly before done_ is
  // published; the lock-free accessors above are only valid once wait()
  // (or complete()) has observed done_, so they stay unannotated.
  std::uint64_t version_ = 0;
  std::uint64_t size_ = 0;
  BufferList data_;
};
using AioCompletionRef = std::shared_ptr<AioCompletion>;

class IoCtx;

/// librados-lite: connects to the MON for maps and embeds an Objecter that
/// targets the primary OSD per object via CRUSH, resends on map changes /
/// wrong-primary bounces, and matches replies by tid.
class RadosClient final : public msgr::Dispatcher {
 public:
  RadosClient(sim::Env& env, net::Fabric& fabric, net::NetNode& node,
              sim::CpuDomain* domain, net::Address mon_addr,
              std::uint64_t client_id = 1, ClientConfig cfg = {});
  ~RadosClient() override;

  /// Start messenger, fetch the map, subscribe. Call from a sim thread.
  Status connect();
  void shutdown();

  /// Handle for I/O against one pool.
  IoCtx io_ctx(os::pool_t pool);

  /// Administrative command to the MON (e.g. pool creation).
  Result<std::string> mon_command(std::vector<std::string> args);

  /// Current cached map epoch.
  [[nodiscard]] crush::epoch_t map_epoch() { return monc_.epoch(); }

  /// Submit an object operation; the completion fires when the primary acks.
  AioCompletionRef aio_operate(os::pool_t pool, const std::string& object,
                               msgr::OsdOpType op, std::uint64_t off,
                               std::uint64_t len, BufferList data);

  // msgr::Dispatcher
  void ms_dispatch(const msgr::MessageRef& m) override;
  void ms_handle_reset(const msgr::ConnectionRef& con) override;

  [[nodiscard]] sim::Env& env() noexcept { return env_; }

  // ---- observability ----------------------------------------------------------
  /// Admin command surface; commands are registered by connect() and
  /// unregistered by shutdown().
  [[nodiscard]] AdminSocket& admin_socket() noexcept { return admin_; }
  [[nodiscard]] perf::Collection& perf_collection() noexcept { return perf_; }
  [[nodiscard]] const perf::PerfCountersRef& perf_counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] osd::OpTracker& op_tracker() noexcept { return tracker_; }

 private:
  struct InFlight {
    std::shared_ptr<msgr::MOSDOp> request;
    AioCompletionRef completion;
    osd::TrackedOpRef tracked;
    int target_osd = -1;
    int attempts = 0;
    bool admitted = false;  ///< holds one flow-control window slot
  };

  /// (Re)send an op to the current primary; reschedules itself on failure.
  void send_op(std::uint64_t tid);
  void finish_op(std::uint64_t tid, const msgr::MessageRef& reply);
  void resend_all_mistargeted();

  /// Complete `tid` with a failure (deadline, retry exhaustion) and bump
  /// l_client_op_timeout. No-op if the op already finished.
  void fail_op(std::uint64_t tid, Status st);
  /// Fires after cfg_.resend_timeout of silence: if the op is still on the
  /// same attempt, the primary went dark — resend (with backoff targeting).
  void on_resend_silence(std::uint64_t tid, int attempt);

  /// Exponential backoff with equal jitter for retry number `attempt`.
  [[nodiscard]] sim::Duration retry_delay(int attempt);

  /// Send ops waiting in admit_queue_ while the window has room.
  void admit_waiters();

  /// Run `fn` after `delay` unless the client has been destroyed.
  void schedule_guarded(sim::Duration delay, std::function<void()> fn);

  sim::Env& env_;
  std::uint64_t client_id_;
  ClientConfig cfg_;
  msgr::Messenger msgr_;
  mon::MonClient monc_;

  dbg::Mutex mutex_{"client.objecter"};
  std::map<std::uint64_t, InFlight> in_flight_ DOCEPH_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> next_tid_{1};
  bool connected_ = false;  // connect/shutdown caller thread only
  sim::Rng rng_ DOCEPH_GUARDED_BY(mutex_);  // jitter stream

  // AIMD flow-control state.
  double cwnd_ DOCEPH_GUARDED_BY(mutex_) = 0;
  int admitted_ DOCEPH_GUARDED_BY(mutex_) = 0;
  std::deque<std::uint64_t> admit_queue_ DOCEPH_GUARDED_BY(mutex_);

  /// Scheduled retry / timeout lambdas capture `this`, and the scheduler
  /// outlives the client: they run through this gate.
  std::shared_ptr<dbg::IoGate> timer_gate_ = std::make_shared<dbg::IoGate>();

  osd::OpTracker tracker_;
  perf::PerfCountersRef counters_;
  perf::Collection perf_;
  AdminSocket admin_;
};

/// Pool-scoped synchronous + asynchronous object API (librados IoCtx).
class IoCtx {
 public:
  IoCtx() = default;
  IoCtx(RadosClient* client, os::pool_t pool) : client_(client), pool_(pool) {}

  Status write_full(const std::string& object, BufferList data);
  Status write(const std::string& object, std::uint64_t off, BufferList data);
  Result<BufferList> read(const std::string& object, std::uint64_t off,
                          std::uint64_t len);
  Result<os::ObjectInfo> stat(const std::string& object);
  Status remove(const std::string& object);

  AioCompletionRef aio_write_full(const std::string& object, BufferList data);
  AioCompletionRef aio_read(const std::string& object, std::uint64_t off,
                            std::uint64_t len);

  [[nodiscard]] os::pool_t pool() const noexcept { return pool_; }

 private:
  RadosClient* client_ = nullptr;
  os::pool_t pool_ = 0;
};

}  // namespace doceph::client
