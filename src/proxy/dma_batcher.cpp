#include "proxy/dma_batcher.h"

#include "common/logger.h"
#include "proxy/proxy_object_store.h"
#include "proxy/proxy_protocol.h"

namespace doceph::proxy {

struct DmaBatcher::BatchState {
  explicit BatchState(trace::Span sp) : span(std::move(sp)) {}
  std::vector<Entry> entries;
  std::vector<Status> statuses;
  std::size_t remaining = 0;
  std::size_t off = 0;  ///< the batch's extent in the staging region
  std::size_t len = 0;
  sim::Time submit = 0;
  trace::Span span;
};

DmaBatcher::DmaBatcher(sim::Env& env, dpu::DpuDevice& dpu, StagingArena& arena,
                       RpcChannel& rpc, FallbackManager& fallback,
                       perf::PerfCountersRef counters, DmaBatchConfig cfg,
                       std::size_t max_batch_bytes,
                       double stage_copy_ns_per_byte, std::string name)
    : env_(env),
      dpu_(dpu),
      arena_(arena),
      rpc_(rpc),
      fallback_(fallback),
      counters_(std::move(counters)),
      cfg_(cfg),
      max_batch_bytes_(max_batch_bytes),
      stage_copy_ns_per_byte_(stage_copy_ns_per_byte),
      name_(std::move(name)),
      cv_(env.keeper(), "proxy.dma_batcher_cv") {}

DmaBatcher::~DmaBatcher() { stop(); }  // NOLINT(bugprone-exception-escape): teardown must complete; a throw terminates, by design

void DmaBatcher::start() {
  if (started_) return;
  {
    const dbg::LockGuard lk(m_);
    stopping_ = false;
  }
  thread_ = sim::Thread(env_.keeper(), env_.stats(), "dpu-dma-batch",
                        &dpu_.cpu(), [this] { loop(); }, /*daemon=*/true);
  started_ = true;
}

void DmaBatcher::stop() {
  if (!started_) return;
  {
    const dbg::LockGuard lk(m_);
    stopping_ = true;
    cv_.notify_all();
  }
  thread_.join();
  started_ = false;
}

bool DmaBatcher::enqueue(BufferList& seg, std::uint64_t token,
                         std::uint32_t seg_index,
                         const trace::TraceContext& ctx, DoneCb done) {
  const std::size_t len = seg.length();
  if (len == 0 || len > max_batch_bytes_) return false;
  const dbg::LockGuard lk(m_);
  if (stopping_) return false;
  Entry e;
  e.seg = std::move(seg);
  e.token = token;
  e.seg_index = seg_index;
  e.trace = ctx;
  e.done = std::move(done);
  e.enqueued = env_.now();
  q_bytes_ += len;
  q_.push_back(std::move(e));
  cv_.notify_all();
  return true;
}

void DmaBatcher::loop() {
  while (true) {
    std::vector<Entry> batch;
    {
      dbg::UniqueLock lk(m_);
      cv_.wait(lk, [&] {
        m_.assert_held();  // predicate runs as a separate function
        return stopping_ || !q_.empty();
      });
      if (q_.empty()) return;  // stopping with nothing left to drain
      if (!stopping_) {
        // Deadline coalescing: hold the oldest segment at most flush_delay,
        // flushing early once the batch fills a segment or max_segments.
        const sim::Time deadline = q_.front().enqueued + cfg_.flush_delay;
        (void)cv_.wait_until(lk, deadline, [&] {
          m_.assert_held();
          return stopping_ ||
                 static_cast<int>(q_.size()) >= cfg_.max_segments ||
                 q_bytes_ >= max_batch_bytes_;
        });
      }
      // Greedy prefix that shares one extent (order-preserving).
      std::size_t bytes = 0;
      while (!q_.empty() &&
             static_cast<int>(batch.size()) < cfg_.max_segments) {
        const std::size_t n = q_.front().seg.length();
        if (!batch.empty() && bytes + n > max_batch_bytes_) break;
        bytes += n;
        q_bytes_ -= n;
        batch.push_back(std::move(q_.front()));
        q_.pop_front();
      }
    }
    if (batch.empty()) continue;

    // Chaos hook: a fired stall defers this flush by the fault's delay
    // before proceeding (segments keep their completion guarantees, just
    // later — the drill asserts the pipeline survives the hiccup).
    const fault::FaultHit stall =
        env_.faults().hit("dpu.batch_flush_stall", env_.now(), name_);
    if (stall.fired) {
      counters_->inc(l_dpu_batch_stalls);
      const sim::Time until =
          env_.now() + (stall.delay_ns > 0 ? stall.delay_ns : cfg_.flush_delay);
      dbg::UniqueLock lk(m_);
      (void)cv_.wait_until(lk, until, [&] {
        m_.assert_held();
        return stopping_;
      });
    }
    flush(std::move(batch));
  }
}

void DmaBatcher::flush(std::vector<Entry> batch) {
  // One extent of exactly the batch's bytes hosts it; blocked time counts
  // toward each member's batching wait (enqueue -> submit).
  std::size_t total = 0;
  for (auto& e : batch) total += e.seg.length();
  const std::size_t base = arena_.reserve(total);

  // The batch span parents every member's doca.dma_job span; the first
  // sampled member donates the parent context (members of an unsampled-only
  // batch record nothing, as usual).
  trace::TraceContext parent;
  for (const auto& e : batch) {
    if (e.trace.sampled()) {
      parent = e.trace;
      break;
    }
  }
  const sim::Time first_enqueue = batch.front().enqueued;
  auto bs = std::make_shared<BatchState>(
      env_.tracer().span("dpu.batch", "dpu." + name_, parent, first_enqueue,
                         batch.size()));

  // Stage every payload at its running offset in the extent and describe
  // the layout as scatter-gather extents (one engine pass for the lot).
  std::vector<doca::DmaExtent> extents;
  extents.reserve(batch.size());
  std::size_t off = 0;
  for (auto& e : batch) {
    const std::size_t n = e.seg.length();
    e.off_in_batch = static_cast<std::uint32_t>(off);
    const doca::Buf src = arena_.dpu_buf(base + off, n);
    const doca::Buf dst = arena_.host_buf(base + off, n);
    e.seg.copy_out(0, n, src.data());
    dpu_.cpu().charge(static_cast<sim::Duration>(stage_copy_ns_per_byte_ *
                                                 static_cast<double>(n)));
    extents.push_back(doca::DmaExtent{src, dst});
    off += n;
  }

  counters_->inc(l_dpu_batch_flushes);
  counters_->inc(l_dpu_batch_segments, batch.size());
  counters_->inc(l_dpu_batch_bytes, total);
  counters_->rec(l_dpu_batch_fill, batch.size());

  bs->submit = env_.now();
  bs->statuses.assign(batch.size(), Status::OK());
  bs->remaining = batch.size();
  bs->off = base;
  bs->len = total;
  bs->entries = std::move(batch);

  const Status submitted = dpu_.dma().submit_sg(
      extents, doca::DmaDir::dpu_to_host,
      [this, bs](std::size_t index, Status st) {
        // Scheduler thread; per-pass fan-out arrives serially.
        bs->statuses[index] = std::move(st);
        if (--bs->remaining == 0) finish_batch(bs);
      },
      bs->span.context());
  if (!submitted.ok()) {
    // The whole batch never reached the engine; members fall back to the
    // RPC path via their owners' any_failed machinery.
    fallback_.on_dma_failure(env_.now());
    arena_.release(base, total);
    bs->span.end(env_.now());
    const sim::Time now = env_.now();
    for (auto& e : bs->entries) e.done(submitted, bs->submit, now);
  }
}

void DmaBatcher::finish_batch(const std::shared_ptr<BatchState>& bs) {
  // Per-extent failures resolve their members now; survivors ride one
  // stage_batch RPC and resolve on its ack (the host acks the batch as a
  // unit, so an ack error fails every surviving member).
  const sim::Time now = env_.now();
  StageBatch msg;
  msg.off = static_cast<std::uint32_t>(bs->off);
  std::vector<std::size_t> ok_members;
  for (std::size_t i = 0; i < bs->entries.size(); ++i) {
    if (!bs->statuses[i].ok()) {
      fallback_.on_dma_failure(now);
      bs->entries[i].done(bs->statuses[i], bs->submit, now);
      continue;
    }
    const Entry& e = bs->entries[i];
    msg.entries.push_back(StageBatchEntry{
        .token = e.token,
        .seg_index = e.seg_index,
        .off = e.off_in_batch,
        .len = static_cast<std::uint32_t>(e.seg.length())});
    ok_members.push_back(i);
  }
  if (ok_members.empty()) {
    arena_.release(bs->off, bs->len);
    bs->span.end(now);
    return;
  }

  BufferList request;
  encode(ProxyOp::stage_batch, request);
  msg.encode(request);
  rpc_.call_async(
      std::move(request),
      [this, bs, ok_members = std::move(ok_members)](Result<BufferList> r) {
        Status st = r.ok() ? Status::OK() : r.status();
        if (r.ok()) {
          BufferList::Cursor cur(*r);
          std::int32_t res = 0;
          if (!decode(res, cur))
            st = Status(Errc::corrupt, "bad stage_batch ack");
          else if (res != 0)
            st = Status(static_cast<Errc>(-res), "stage_batch host error");
        }
        arena_.release(bs->off, bs->len);
        const sim::Time done_at = env_.now();
        bs->span.end(done_at);
        for (const std::size_t i : ok_members)
          bs->entries[i].done(st, bs->submit, done_at);
      },
      bs->span.context());
}

}  // namespace doceph::proxy
