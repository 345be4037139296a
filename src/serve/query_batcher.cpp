#include "serve/query_batcher.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "autodiff/variable.h"
#include "common/error.h"
#include "common/failpoint.h"

namespace mfn::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::chrono::microseconds est_us(double row_ms, std::int64_t rows) {
  return std::chrono::microseconds(
      static_cast<std::int64_t>(row_ms * 1e3 * static_cast<double>(rows)));
}

/// The brownout ladder: level 0 serves what was asked, level 1 caps the
/// tier at bf16, level 2 at int8. Reduced-tier requests are never
/// *upgraded* — a client that asked for int8 gets int8 at every level.
backend::Precision brownout_tier(backend::Precision requested, int level) {
  if (level <= 0) return requested;
  if (level == 1)
    return requested == backend::Precision::kFp32 ? backend::Precision::kBf16
                                                  : requested;
  return backend::Precision::kInt8;
}

}  // namespace

QueryBatcher::QueryBatcher(QueryBatcherConfig config)
    : config_(config) {
  MFN_CHECK(config_.workers >= 1, "QueryBatcher needs >= 1 worker");
  MFN_CHECK(config_.max_batch_rows >= 1,
            "max_batch_rows must be >= 1, got " << config_.max_batch_rows);
  MFN_CHECK(config_.max_queue_rows >= config_.max_batch_rows,
            "max_queue_rows " << config_.max_queue_rows
                              << " below max_batch_rows "
                              << config_.max_batch_rows);
  MFN_CHECK(config_.max_wait_us >= 0, "max_wait_us must be >= 0");
  MFN_CHECK(config_.fair_quantum_rows >= 1,
            "fair_quantum_rows must be >= 1, got "
                << config_.fair_quantum_rows);
  if (config_.brownout.enabled) {
    BrownoutConfig& b = config_.brownout;
    MFN_CHECK(b.high_rows > 0 || b.high_wait_ms > 0,
              "brownout enabled but no high watermark set");
    // A high watermark whose low mate was left at 0 gets a usable default
    // instead of a latch: the queue-wait EWMA decays toward the idle wait
    // but never back to exactly 0, so "exit when ewma <= 0" would pin the
    // ladder at a degraded tier after the first burst, forever.
    if (b.high_rows > 0 && b.low_rows <= 0) b.low_rows = b.high_rows / 2;
    if (b.high_wait_ms > 0 && b.low_wait_ms <= 0)
      b.low_wait_ms = b.high_wait_ms / 2;
    MFN_CHECK(b.low_rows <= b.high_rows && b.low_wait_ms <= b.high_wait_ms,
              "brownout low watermarks must not exceed the high ones");
    MFN_CHECK(b.dwell_flushes >= 1, "brownout dwell must be >= 1 flush");
  }
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

QueryBatcher::~QueryBatcher() { shutdown(); }

void QueryBatcher::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_pending_.notify_all();
  cv_capacity_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void QueryBatcher::fail_expired(Request& req) {
  req.promise.set_exception(std::make_exception_ptr(DeadlineExceeded(
      "request deadline exceeded before decode (queued rows outlived their "
      "budget)")));
}

std::future<Tensor> QueryBatcher::submit(
    std::shared_ptr<const ModelSnapshot> snapshot, Tensor latent,
    Tensor coords, std::optional<backend::Precision> precision,
    std::optional<Deadline> deadline, TenantId tenant) {
  MFN_CHECK(snapshot != nullptr && snapshot->model != nullptr,
            "submit requires a model snapshot");
  MFN_CHECK(latent.defined() && latent.ndim() == 5 && latent.dim(0) == 1,
            "latent must be a single-sample (1, C, LT, LZ, LX) grid");
  MFN_CHECK(coords.defined() && coords.ndim() == 2 && coords.dim(1) == 3 &&
                coords.dim(0) >= 1,
            "coords must be (Q, 3) with Q >= 1");
  // A non-finite coordinate has no grid cell. Rejecting it here, per
  // request and before coalescing, keeps one bad request from failing the
  // others in its flush.
  const float* pc = coords.data();
  for (std::int64_t i = 0; i < coords.numel(); ++i)
    MFN_CHECK(std::isfinite(pc[i]), "query coordinate "
                                        << pc[i] << " of query " << i / 3
                                        << " is not finite");
  Request req;
  req.precision = precision.value_or(snapshot->decode_precision);
  req.snapshot = std::move(snapshot);
  req.latent = std::move(latent);
  req.coords = std::move(coords);
  req.tenant = tenant;
  req.deadline = deadline;
  req.enqueued = Clock::now();
  std::future<Tensor> fut = req.promise.get_future();

  // Fail-fast: an already-expired request must not cost a queue slot, let
  // alone a decode.
  if (req.deadline && *req.deadline <= req.enqueued) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.expired_submit;
      ++queues_[tenant].counters.expired_submit;
    }
    req.promise.set_exception(std::make_exception_ptr(DeadlineExceeded(
        "request deadline already expired at submit()")));
    return fut;
  }

  const std::int64_t rows = req.coords.dim(0);
  bool rejected = false;
  bool expired_waiting = false;
  std::vector<Request> shed;
  {
    std::unique_lock<std::mutex> lk(mu_);
    const auto has_room = [&] {
      return stop_ || queued_rows_ + rows <= config_.max_queue_rows ||
             queued_rows_ == 0;
    };
    switch (config_.admission) {
      case AdmissionPolicy::kBlock:
        // Backpressure toward the caller; a deadline bounds the wait.
        if (req.deadline) {
          if (!cv_capacity_.wait_until(lk, *req.deadline, has_room))
            expired_waiting = true;
        } else {
          cv_capacity_.wait(lk, has_room);
        }
        break;
      case AdmissionPolicy::kReject:
        rejected = !has_room();
        break;
      case AdmissionPolicy::kShedOldest:
        // Fail the oldest queued requests of the tenant hogging the most
        // queued rows until this one fits: under overload the hog's queue
        // head has burned the most latency budget AND taking the victim
        // there keeps one hot tenant's flood from forcing other tenants'
        // requests out. With a single tenant this is exactly oldest-first.
        while (!has_room()) {
          SubQueue* hog = nullptr;
          for (auto& [id, sq] : queues_)
            if (!sq.q.empty() && (hog == nullptr || sq.rows > hog->rows))
              hog = &sq;
          if (hog == nullptr) break;  // nothing sheddable; admit below
          Request victim = std::move(hog->q.front());
          hog->q.pop_front();
          const std::int64_t vr = victim.coords.dim(0);
          hog->rows -= vr;
          queued_rows_ -= vr;
          ++stats_.admission_shed;
          ++hog->counters.shed;
          shed.push_back(std::move(victim));
        }
        break;
    }
    if (expired_waiting) {
      ++stats_.expired_submit;
      ++queues_[tenant].counters.expired_submit;
    } else if (rejected) {
      ++stats_.admission_rejected;
      ++queues_[tenant].counters.rejected;
    } else {
      MFN_CHECK(!stop_, "QueryBatcher is shut down");
      SubQueue& sq = queues_[tenant];
      sq.q.push_back(std::move(req));
      sq.rows += rows;
      if (!sq.active) {
        sq.active = true;
        rr_.push_back(tenant);
      }
      queued_rows_ += rows;
      ++stats_.requests;
      stats_.rows += static_cast<std::uint64_t>(rows);
      ++sq.counters.requests;
      sq.counters.rows += static_cast<std::uint64_t>(rows);
    }
  }
  // Promises are fulfilled outside mu_: a continuation running inline on a
  // future must never re-enter the batcher under our lock.
  for (Request& victim : shed)
    victim.promise.set_exception(std::make_exception_ptr(Overloaded(
        "request shed (oldest-first) to admit newer traffic: queue over "
        "max_queue_rows")));
  if (!shed.empty()) cv_capacity_.notify_all();
  if (expired_waiting) {
    req.promise.set_exception(std::make_exception_ptr(DeadlineExceeded(
        "deadline expired while blocked on queue admission")));
    return fut;
  }
  if (rejected) {
    req.promise.set_exception(std::make_exception_ptr(Overloaded(
        "request rejected: queue over max_queue_rows rows")));
    return fut;
  }
  cv_pending_.notify_one();
  return fut;
}

void QueryBatcher::update_brownout_locked(std::int64_t depth_rows) {
  const BrownoutConfig& b = config_.brownout;
  if (!b.enabled) return;
  ++flushes_since_level_change_;
  if (flushes_since_level_change_ < b.dwell_flushes) return;
  const bool depth_high = b.high_rows > 0 && depth_rows >= b.high_rows;
  const bool wait_high = b.high_wait_ms > 0 && wait_ewma_ms_ >= b.high_wait_ms;
  const bool depth_low = b.high_rows == 0 || depth_rows <= b.low_rows;
  const bool wait_low = b.high_wait_ms == 0 || wait_ewma_ms_ <= b.low_wait_ms;
  if ((depth_high || wait_high) && brownout_level_ < 2) {
    ++brownout_level_;
    ++stats_.brownout_enters;
    flushes_since_level_change_ = 0;
  } else if (depth_low && wait_low && brownout_level_ > 0) {
    --brownout_level_;
    ++stats_.brownout_exits;
    flushes_since_level_change_ = 0;
  }
  stats_.brownout_level = brownout_level_;
}

std::int64_t QueryBatcher::take_batch_locked(FlushReason reason,
                                             std::vector<Request>* batch,
                                             std::vector<Request>* expired) {
  const auto now = Clock::now();
  // Brownout signals are sampled before this flush drains the queue: the
  // depth a new arrival would experience.
  const std::int64_t depth_rows = queued_rows_;
  std::int64_t rows = 0;
  std::optional<Deadline> earliest;
  double max_wait_ms = 0.0;
  // Surplus-round-robin across per-tenant sub-queues: each turn recharges
  // the tenant's row credit (quantum * weight), service spends it — the
  // last request of a turn may overdraw into negative credit, which
  // carries as debt into the tenant's next turn — and the tenant rotates
  // to the tail of the ring afterwards. An empty batch always admits the
  // head request regardless of credit (work conservation: credit debt must
  // never idle the decoder), so with one tenant this is the plain FIFO
  // drain. A tenant whose sub-queue empties leaves the ring with its
  // credit reset: fairness protects queued traffic, it does not bank idle
  // time.
  bool stop_batch = false;
  while (!rr_.empty() && !stop_batch) {
    const TenantId tid = rr_.front();
    rr_.pop_front();
    SubQueue& sq = queues_[tid];
    sq.deficit += static_cast<std::int64_t>(
        static_cast<double>(config_.fair_quantum_rows) * sq.weight);
    while (!sq.q.empty()) {
      Request& front = sq.q.front();
      const std::int64_t r = front.coords.dim(0);
      // Expire requests that cannot make their deadline even decoded alone
      // (or that are already past it) — before they cost a decode.
      if (front.deadline &&
          (*front.deadline <= now ||
           (est_row_ms_ > 0 &&
            now + est_us(est_row_ms_, r) > *front.deadline))) {
        sq.rows -= r;
        queued_rows_ -= r;
        ++stats_.expired_queue;
        ++sq.counters.expired_queue;
        expired->push_back(std::move(front));
        sq.q.pop_front();
        continue;
      }
      if (!batch->empty() && rows + r > config_.max_batch_rows) {
        stop_batch = true;
        break;
      }
      // Never form a batch the earliest deadline inside it can't survive:
      // stop growing once the estimated decode of (rows + r) would overrun
      // it. The leftover requests coalesce into the next flush instead.
      if (!batch->empty() && earliest && est_row_ms_ > 0 &&
          now + est_us(est_row_ms_, rows + r) > *earliest) {
        stop_batch = true;
        break;
      }
      if (sq.deficit <= 0 && !batch->empty()) break;  // credit spent: next
      if (front.deadline && (!earliest || *front.deadline < *earliest))
        earliest = *front.deadline;
      max_wait_ms = std::max(
          max_wait_ms,
          std::chrono::duration<double, std::milli>(now - front.enqueued)
              .count());
      rows += r;
      sq.deficit -= r;
      sq.rows -= r;
      queued_rows_ -= r;
      sq.counters.drained_rows += static_cast<std::uint64_t>(r);
      batch->push_back(std::move(front));
      sq.q.pop_front();
    }
    if (sq.q.empty()) {
      sq.active = false;
      sq.deficit = 0;
    } else {
      rr_.push_back(tid);
    }
  }
  if (!batch->empty()) {
    ++stats_.flushes;
    switch (reason) {
      case FlushReason::kImmediate: ++stats_.flushes_immediate; break;
      case FlushReason::kFull: ++stats_.flushes_full; break;
      case FlushReason::kTarget: ++stats_.flushes_target; break;
      case FlushReason::kDeadline: ++stats_.flushes_deadline; break;
      case FlushReason::kWindow: ++stats_.flushes_window; break;
    }
    stats_.max_flush_rows =
        std::max(stats_.max_flush_rows, static_cast<std::uint64_t>(rows));
    // Queue-wait EWMA over flushes (worst member per flush): the brownout
    // latency signal.
    wait_ewma_ms_ = wait_ewma_ms_ == 0.0
                        ? max_wait_ms
                        : 0.8 * wait_ewma_ms_ + 0.2 * max_wait_ms;
    update_brownout_locked(depth_rows);
    if (brownout_level_ > 0) {
      for (Request& r : *batch) {
        const backend::Precision eff =
            brownout_tier(r.precision, brownout_level_);
        if (eff != r.precision) {
          r.precision = eff;
          r.degraded = true;
          ++stats_.degraded_requests;
          ++queues_[r.tenant].counters.degraded_requests;
        }
      }
    }
    if (timing_capture_) {
      for (const Request& r : *batch)
        timing_.queue_wait_ms.push_back(
            std::chrono::duration<double, std::milli>(now - r.enqueued)
                .count());
    }
  }
  recent_flush_rows_[takes_++ % kRecentFlushes] = rows;
  return rows;
}

std::optional<QueryBatcher::Deadline> QueryBatcher::deadline_close_locked()
    const {
  std::optional<Deadline> earliest;
  for (const auto& [id, sq] : queues_)
    for (const Request& r : sq.q)
      if (r.deadline && (!earliest || *r.deadline < *earliest))
        earliest = r.deadline;
  if (!earliest) return std::nullopt;
  // take_batch_locked expires a request whose estimated decode no longer
  // fits before its deadline, so a window closing exactly one estimate
  // early would hand it a batch the wakeup delay had already doomed.
  return *earliest - 2 * est_us(est_row_ms_, queued_rows_);
}

std::optional<QueryBatcher::FlushReason> QueryBatcher::hold_window(
    std::unique_lock<std::mutex>& lk) {
  if (stop_ || config_.max_wait_us == 0 ||
      queued_rows_ >= config_.max_batch_rows)
    return FlushReason::kImmediate;
  // The window opens from *now*, so requests that trickle in while this
  // worker was busy decoding the previous batch still coalesce (a window
  // anchored at the oldest request's arrival is always already expired in
  // closed-loop steady state, which fragments every batch).
  const auto expiry =
      Clock::now() + std::chrono::microseconds(config_.max_wait_us);
  const std::uint64_t opened_after = takes_;
  // Only a take writes the ring, and a take ends this window: the target
  // is fixed for the window's life (0: no history, no target).
  const std::int64_t target =
      *std::max_element(recent_flush_rows_.begin(), recent_flush_rows_.end());
  // Every waiter re-checks every exit when woken, so the submit that
  // completes the target closes the window whichever worker it wakes: an
  // idle one opens its own window and finds the exit already open.
  for (;;) {
    if (queued_rows_ == 0 || takes_ != opened_after) return std::nullopt;
    if (stop_) return FlushReason::kImmediate;
    if (queued_rows_ >= config_.max_batch_rows) return FlushReason::kFull;
    if (target > 0 && queued_rows_ >= target) return FlushReason::kTarget;
    const auto now = Clock::now();
    const std::optional<Deadline> due = deadline_close_locked();
    if (due && *due <= now && *due < expiry) return FlushReason::kDeadline;
    if (now >= expiry) return FlushReason::kWindow;
    cv_pending_.wait_until(lk, due ? std::min(*due, expiry) : expiry);
  }
}

void QueryBatcher::worker_loop() {
  for (;;) {
    std::vector<Request> batch;
    std::vector<Request> expired;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_pending_.wait(lk, [&] { return stop_ || queued_rows_ > 0; });
      if (queued_rows_ == 0) return;  // stop_ set and nothing left to drain
      const std::optional<FlushReason> reason = hold_window(lk);
      if (!reason) continue;  // another worker took a batch meanwhile
      take_batch_locked(*reason, &batch, &expired);
    }
    cv_capacity_.notify_all();
    for (Request& req : expired) fail_expired(req);
    if (batch.empty()) continue;  // everything taken this round expired
    // Plan first, then account, then decode: clients unblock the moment
    // their promise is set, and a stats() read right after future.get()
    // must already see this flush's decode calls.
    const std::vector<std::vector<std::size_t>> units =
        plan_decode_units(batch);
    {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.decode_calls += units.size();
    }
    for (const auto& unit : units) execute_unit(batch, unit);
  }
}

std::vector<std::vector<std::size_t>> QueryBatcher::plan_decode_units(
    const std::vector<Request>& batch) {
  // Partition by (snapshot, precision) first (linear scan, arrival order
  // preserved): a decode never spans two snapshots, so every response is
  // computed wholly by one model even while the engine swaps mid-traffic;
  // and a unit decodes at exactly one precision tier, so a request's
  // values never depend on which tier its queue neighbors asked for.
  using GroupKey = std::pair<const ModelSnapshot*, backend::Precision>;
  std::vector<std::pair<GroupKey, std::vector<std::size_t>>> snaps;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const GroupKey key{batch[i].snapshot.get(), batch[i].precision};
    std::vector<std::size_t>* members = nullptr;
    for (auto& cand : snaps)
      if (cand.first == key) {
        members = &cand.second;
        break;
      }
    if (members == nullptr) {
      snaps.emplace_back(key, std::vector<std::size_t>{});
      members = &snaps.back().second;
    }
    members->push_back(i);
  }

  // Within a snapshot, a single decoder call can serve either requests
  // that share one latent (concatenated (B, 3) decode) or requests over
  // several same-shape latents with equal query blocks (the stacked
  // (N, Q, 3) batched decode). Anything ragged splits per distinct
  // latent.
  std::vector<std::vector<std::size_t>> units;
  for (auto& [key, members] : snaps) {
    const Request& first = batch[members.front()];
    const std::int64_t q0 = first.coords.dim(0);
    bool stackable = true;  // equal Q, equal latent shape
    bool multi_latent = false;
    for (std::size_t m : members) {
      stackable = stackable && batch[m].coords.dim(0) == q0 &&
                  batch[m].latent.shape() == first.latent.shape();
      multi_latent =
          multi_latent || batch[m].latent.data() != first.latent.data();
    }
    if (!multi_latent || stackable) {
      units.push_back(std::move(members));
      continue;
    }
    std::vector<std::pair<const float*, std::vector<std::size_t>>> by_latent;
    for (std::size_t m : members) {
      const float* data = batch[m].latent.data();
      std::vector<std::size_t>* sub = nullptr;
      for (auto& cand : by_latent)
        if (cand.first == data) {
          sub = &cand.second;
          break;
        }
      if (sub == nullptr) {
        by_latent.emplace_back(data, std::vector<std::size_t>{});
        sub = &by_latent.back().second;
      }
      sub->push_back(m);
    }
    for (auto& [data, sub] : by_latent) units.push_back(std::move(sub));
  }
  return units;
}

// One unit's decode. Replays a cached DecodePlan at the requested
// precision — zero graph traversal / dispatch / allocation / weight
// packing; fp32 plans run the fused kernel's value pass, bf16/int8 match
// the tape within their tier's error bound — or, when that tier does not
// compile for the snapshot, the fp32 plan. Without prepared weights the
// unit runs the no-grad decode(), the same fp32 value pass over the live
// model. *served reports the tier that actually ran, so reduced-tier
// fallback is never silent.
Tensor QueryBatcher::decode_unit(const ModelSnapshot& snap,
                                 const Tensor& latent, const Tensor& coords,
                                 backend::Precision precision, bool* planned,
                                 backend::Precision* served) {
  // Fail point for overload/deadline tests: a decode that takes `arg`
  // milliseconds, deterministically.
  if (auto f = failpoint::poll("serve.slow_decode"))
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<std::int64_t>(f->arg * 1e3)));
  if (snap.plans != nullptr && snap.prepared != nullptr) {
    std::int64_t n = 1, q = 0;
    if (coords.ndim() == 2) {
      q = coords.dim(0);
    } else {
      n = coords.dim(0);
      q = coords.dim(1);
    }
    auto plan_at = [&](backend::Precision p) {
      return snap.plans->get_or_compile(snap.prepared, n, q, latent.dim(2),
                                        latent.dim(3), latent.dim(4), p);
    };
    std::shared_ptr<const core::DecodePlan> plan = plan_at(precision);
    if (plan == nullptr && precision != backend::Precision::kFp32)
      plan = plan_at(backend::Precision::kFp32);
    if (plan != nullptr) {
      *planned = true;
      *served = plan->key().precision;
      return plan->execute(latent, coords);
    }
  }
  *planned = false;
  *served = backend::Precision::kFp32;  // decode() is always fp32
  ad::NoGradGuard no_grad;
  ad::Var lv(latent, /*requires_grad=*/false);
  return snap.model->decoder().decode(lv, coords).value();
}

// Runs one planned unit through a single decode and fulfills its
// promises. By construction a unit is either single-latent or a uniform
// multi-latent stack.
void QueryBatcher::execute_unit(std::vector<Request>& batch,
                                const std::vector<std::size_t>& members) {
  Request& first = batch[members.front()];
  const ModelSnapshot& snap = *first.snapshot;
  bool degraded = false;
  std::int64_t unit_rows = 0;
  for (std::size_t m : members) {
    degraded = degraded || batch[m].degraded;
    unit_rows += batch[m].coords.dim(0);
  }

  bool multi_latent = false;
  for (std::size_t m : members)
    multi_latent =
        multi_latent || batch[m].latent.data() != first.latent.data();

  std::size_t fulfilled = 0;
  bool planned = false;
  backend::Precision served = backend::Precision::kFp32;
  try {
    if (members.size() == 1) {
      // Single request: decode straight from/into its tensors, skipping
      // the assemble/demux copies.
      const auto t0 = Clock::now();
      Tensor out = decode_unit(snap, first.latent, first.coords,
                               first.precision, &planned, &served);
      account_decode(t0, planned, first.precision, served, degraded,
                     unit_rows);
      first.promise.set_value(std::move(out));
      return;
    }

    if (!multi_latent) {
      // One hot latent: concatenate all query rows into a single (B, 3)
      // decode against it.
      std::int64_t rows = 0;
      for (std::size_t m : members) rows += batch[m].coords.dim(0);
      Tensor coords = Tensor::uninitialized(Shape{rows, 3});
      std::int64_t row = 0;
      for (std::size_t m : members) {
        const Tensor& c = batch[m].coords;
        std::memcpy(coords.data() + row * 3, c.data(),
                    static_cast<std::size_t>(c.numel()) * sizeof(float));
        row += c.dim(0);
      }
      const auto t0 = Clock::now();
      Tensor out = decode_unit(snap, first.latent, coords, first.precision,
                               &planned, &served);
      account_decode(t0, planned, first.precision, served, degraded,
                     unit_rows);
      demux_rows(batch, members, out, &fulfilled);
      return;
    }

    // Several hot latents of one shape with equal-sized query blocks (the
    // canonical serving shape): stack one latent sample per request and
    // run one (N, Q, 3) decode unit — at fp32 one value pass of the plan
    // (or the no-grad decode()) over all N*Q queries, instead of one
    // decode per latent. The (N*Q, out) sample-major result demuxes by
    // contiguous row ranges, exactly like the concatenated case.
    const Tensor& l0 = first.latent;
    const std::int64_t q0 = first.coords.dim(0);
    const std::int64_t N = static_cast<std::int64_t>(members.size());
    const std::int64_t slab = l0.numel();  // one (1, C, LT, LZ, LX) grid
    Tensor latents = Tensor::uninitialized(
        Shape{N, l0.dim(1), l0.dim(2), l0.dim(3), l0.dim(4)});
    Tensor coords = Tensor::uninitialized(Shape{N, q0, 3});
    std::int64_t s = 0;
    for (std::size_t m : members) {
      std::memcpy(latents.data() + s * slab, batch[m].latent.data(),
                  static_cast<std::size_t>(slab) * sizeof(float));
      std::memcpy(coords.data() + s * q0 * 3, batch[m].coords.data(),
                  static_cast<std::size_t>(q0 * 3) * sizeof(float));
      ++s;
    }
    const auto t0 = Clock::now();
    Tensor out = decode_unit(snap, latents, coords, first.precision,
                             &planned, &served);
    account_decode(t0, planned, first.precision, served, degraded,
                   unit_rows);
    demux_rows(batch, members, out, &fulfilled);
  } catch (...) {
    for (std::size_t k = fulfilled; k < members.size(); ++k)
      batch[members[k]].promise.set_exception(std::current_exception());
  }
}

void QueryBatcher::account_decode(std::chrono::steady_clock::time_point t0,
                                  bool planned,
                                  backend::Precision requested,
                                  backend::Precision served, bool degraded,
                                  std::int64_t rows) {
  const auto t1 = Clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::lock_guard<std::mutex> lk(mu_);
  if (planned)
    ++stats_.planned_decodes;
  else
    ++stats_.tape_decodes;
  if (served == backend::Precision::kBf16) ++stats_.planned_bf16;
  if (served == backend::Precision::kInt8) ++stats_.planned_int8;
  if (requested != backend::Precision::kFp32 && served != requested)
    ++stats_.precision_fallbacks;
  if (degraded) ++stats_.degraded_units;
  // Per-row decode cost EWMA: what the deadline estimator charges a
  // request for. Conservative by construction — it includes the fail-point
  // sleep when armed, so injected slowness is *seen* by the estimator.
  if (rows > 0) {
    const double per_row = ms / static_cast<double>(rows);
    est_row_ms_ =
        est_row_ms_ == 0.0 ? per_row : 0.8 * est_row_ms_ + 0.2 * per_row;
  }
  if (timing_capture_) timing_.decode_ms.push_back(ms);
}

void QueryBatcher::demux_rows(std::vector<Request>& batch,
                              const std::vector<std::size_t>& members,
                              const Tensor& out, std::size_t* fulfilled) {
  const std::int64_t oc = out.dim(1);
  std::int64_t row = 0;
  for (std::size_t m : members) {
    const std::int64_t q = batch[m].coords.dim(0);
    Tensor slice = Tensor::uninitialized(Shape{q, oc});
    std::memcpy(slice.data(), out.data() + row * oc,
                static_cast<std::size_t>(q * oc) * sizeof(float));
    batch[m].promise.set_value(std::move(slice));
    ++*fulfilled;
    row += q;
  }
}

QueryBatcher::Stats QueryBatcher::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats out = stats_;
  out.queue_rows = queued_rows_;
  for (const auto& [id, sq] : queues_) {
    Stats::TenantCounters c = sq.counters;
    c.queue_rows = sq.rows;
    out.per_tenant[id] = c;
  }
  return out;
}

void QueryBatcher::set_tenant_weight(TenantId tenant, double weight) {
  MFN_CHECK(weight > 0.0,
            "tenant fair-share weight must be positive, got " << weight);
  std::lock_guard<std::mutex> lk(mu_);
  queues_[tenant].weight = weight;
}

void QueryBatcher::set_timing_capture(bool on) {
  std::lock_guard<std::mutex> lk(mu_);
  if (on && !timing_capture_) timing_ = TimingSamples{};
  timing_capture_ = on;
}

QueryBatcher::TimingSamples QueryBatcher::take_timing_samples() {
  std::lock_guard<std::mutex> lk(mu_);
  TimingSamples out = std::move(timing_);
  timing_ = TimingSamples{};
  return out;
}

}  // namespace mfn::serve
