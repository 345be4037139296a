// Dynamic query batcher: coalesces continuous-query requests from many
// client threads into single batched decoder SGEMMs — and keeps doing so
// under overload.
//
// Clients submit (snapshot, latent, coords) and get a future for the
// decoded (Q, out_channels) values. Worker threads drain a bounded queue.
// A worker that finds fewer than max_batch_rows rows pending holds a
// batching window open for more arrivals and flushes at its first exit:
//  - full: the queue reached max_batch_rows;
//  - target: the queue holds as many rows as the largest of the
//    batcher's last kRecentFlushes (8) flushes — in closed-loop steady
//    state, the moment the last client has resubmitted (no history, or
//    only fully expired flushes: no target);
//  - deadline: the earliest queued deadline minus twice the estimated
//    decode of the queued rows (one estimate for the decode, one as slack
//    for the wakeup, so the flush still passes the expiry check below);
//  - window: max_wait_us elapsed since the window opened.
// So max_wait_us bounds the wait rather than fixing its length. Each
// flush groups requests by (snapshot, latent storage) — the serving
// workload is many small query batches against few hot latents — and
// runs one ContinuousDecoder::decode call per group, demultiplexing the
// result rows back to per-request promises.
//
// Overload behavior is explicit, never emergent:
//  - deadlines: submit() takes an optional absolute deadline. A request
//    that is already expired fails fast with DeadlineExceeded before
//    touching the queue; one that expires while queued (or that can no
//    longer finish even decoded alone, by the batcher's per-row decode
//    cost estimate) is failed before any decode runs on it, and a worker
//    stops growing a batch once adding more rows would push the earliest
//    deadline in the batch past its estimated completion.
//  - admission control: when the queue is over max_queue_rows the
//    configured AdmissionPolicy decides — Block (wait for room, the
//    legacy behavior), Reject (fail the new request with Overloaded), or
//    ShedOldest (fail the oldest queued requests to make room — the
//    newest traffic is the most likely to still meet its deadline). Every
//    policy decision is counted in Stats.
//  - precision brownout: when queue depth or the observed queue-wait EWMA
//    crosses its high watermark, drained requests are downgraded
//    fp32 -> bf16 -> int8 through the prepacked-plan precision tiers (one
//    level per dwell window, with hysteresis: recovery needs the signals
//    below the low watermarks). Degradation is visible in
//    Stats::degraded_units / degraded_requests and in per-response tiers,
//    never silent.
//  - fair share across tenants: requests queue into per-tenant sub-queues
//    and a flush drains them surplus-round-robin — each tenant's turn
//    recharges a row credit of fair_quantum_rows * weight, service spends
//    it (a request may overdraw; the debt carries), and the tenant rotates
//    to the tail of the active ring after its turn. A hot tenant at 10x
//    offered load fills its own sub-queue but cannot starve a cold
//    tenant's flushes, and ShedOldest sheds from the tenant hogging the
//    most queued rows rather than from whoever happens to be oldest
//    globally. With a single tenant all of this degenerates to the plain
//    FIFO drain.
//
// Correctness properties the test suite pins:
//  - parity: at fp32, coalescing never changes a bit of a request's
//    values — the value pass computes each query from its coordinates,
//    its latent and the weights alone; the bf16/int8 tiers keep them
//    within float tolerance;
//  - snapshot atomicity: a group never mixes snapshots, so every response
//    is computed wholly by one model snapshot even while the engine
//    hot-swaps mid-traffic;
//  - determinism: plan replay carves its query blocks independently of
//    MFN_NUM_THREADS, so a given coalesced batch yields bit-identical rows
//    at any pool size.
//
// The decode itself parallelizes across the global ThreadPool (plan replay
// runs in each pool worker's Workspace arena); batcher workers are plain
// threads, so concurrent flushes interleave safely on the pool.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/decode_plan.h"
#include "core/meshfree_flownet.h"
#include "tensor/tensor.h"

namespace mfn::serve {

/// Stable tenant identity shared by the batcher's fair-share sub-queues
/// and the engine's ModelRegistry. Single-model callers never mention it:
/// everything defaults to tenant 0.
using TenantId = std::uint32_t;
inline constexpr TenantId kDefaultTenant = 0;

/// A request's deadline passed before it could be decoded. Thrown through
/// the submit() future (or directly by a Block-policy submit that timed
/// out waiting for queue room).
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

/// The queue was over max_queue_rows and the admission policy chose this
/// request as the victim: a Reject-policy arrival, or a queued request
/// shed by ShedOldest to make room for newer traffic.
class Overloaded : public Error {
 public:
  explicit Overloaded(const std::string& what) : Error(what) {}
};

/// Immutable model snapshot shared between the engine and in-flight
/// requests. The model is logically const: serving only ever runs
/// eval-mode no-grad forwards, which read weights/buffers without mutating
/// them. A swap publishes a brand-new snapshot; the old one stays alive
/// until its last in-flight request drains.
struct ModelSnapshot {
  std::unique_ptr<core::MeshfreeFlowNet> model;
  std::uint64_t version = 0;
  /// Prepacked serving weights for this version (self-contained: plans
  /// compiled from it never dangle into the module tree).
  std::shared_ptr<const core::PreparedSnapshot> prepared;
  /// The engine's shared plan cache; null sends every decode through
  /// the no-grad ContinuousDecoder::decode (standalone batcher uses in
  /// tests).
  std::shared_ptr<core::PlanCache> plans;
  /// Default decode precision tier for requests that don't override it.
  /// Non-fp32 tiers fall back to fp32 (visibly, via Stats::
  /// precision_fallbacks) for shapes the quantized prepack can't cover
  /// and for the derivative bundle.
  backend::Precision decode_precision = backend::Precision::kFp32;
};

/// What submit() does when the queue is already over max_queue_rows.
enum class AdmissionPolicy {
  kBlock,      ///< wait for room (backpressure toward the caller)
  kReject,     ///< fail the NEW request's future with Overloaded
  kShedOldest  ///< fail the OLDEST queued requests to make room
};

inline const char* admission_policy_name(AdmissionPolicy p) {
  switch (p) {
    case AdmissionPolicy::kBlock: return "block";
    case AdmissionPolicy::kReject: return "reject";
    case AdmissionPolicy::kShedOldest: return "shed-oldest";
  }
  return "?";
}

/// Precision brownout: automatic load-shedding of numerical precision
/// before load-shedding of requests. Disabled by default; a watermark of 0
/// means that signal is unused. Level transitions happen at flush time (a
/// fully idle batcher holds its level until traffic resumes).
struct BrownoutConfig {
  bool enabled = false;
  /// Enter (one level deeper) when queued rows reach high_rows; eligible
  /// to exit when back at or below low_rows.
  std::int64_t high_rows = 0;
  std::int64_t low_rows = 0;
  /// Same watermark pair for the observed queue-wait EWMA (milliseconds a
  /// drained request spent waiting to coalesce). A configured high
  /// watermark whose low mate is left at 0 is defaulted to high/2 at
  /// construction: the wait EWMA decays toward the idle queue wait but
  /// never returns to exactly 0, so a low_wait_ms of 0 would make exit
  /// unreachable and latch the ladder at a degraded tier forever.
  double high_wait_ms = 0.0;
  double low_wait_ms = 0.0;
  /// Minimum flushes between level changes (hysteresis dwell: one burst
  /// cannot slam the ladder to int8 and back within a window).
  int dwell_flushes = 4;
};

struct QueryBatcherConfig {
  /// Decode worker threads draining the queue. One worker already keeps
  /// the ThreadPool busy (decode parallelizes internally); more workers
  /// overlap demux/assembly with compute.
  int workers = 1;
  /// Flush as soon as this many query rows are pending (the
  /// throughput knob: bigger batches amortize SGEMM setup).
  std::int64_t max_batch_rows = 4096;
  /// Bound on the batching window for sub-max batches: when a worker
  /// finds fewer than max_batch_rows pending it holds the flush open at
  /// most this long for more arrivals (the latency knob). The window
  /// closes earlier once the queue holds the recent-flush target or a
  /// queued deadline needs the decode to start (see the file comment).
  /// 0 flushes immediately — the right setting for a single synchronous
  /// client, which can never have a second request in flight to wait for.
  std::int64_t max_wait_us = 100;
  /// Queue bound (rows) past which the admission policy kicks in.
  std::int64_t max_queue_rows = 1 << 20;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  BrownoutConfig brownout;
  /// Fair-share drain: row credit a tenant's sub-queue recharges each time
  /// its round-robin turn comes up, scaled by the tenant's weight. Smaller
  /// values interleave tenants within one flush; larger values trade
  /// fairness granularity for fewer sub-queue switches. Irrelevant with a
  /// single tenant.
  std::int64_t fair_quantum_rows = 1024;
};

class QueryBatcher {
 public:
  struct Stats {
    std::uint64_t requests = 0;       ///< submitted requests
    std::uint64_t rows = 0;           ///< submitted query rows
    std::uint64_t flushes = 0;        ///< batches drained from the queue
    // -- why each flush's window closed (the five sum to flushes) -------
    std::uint64_t flushes_full = 0;      ///< reached max_batch_rows
    std::uint64_t flushes_target = 0;    ///< reached the recent-flush target
    std::uint64_t flushes_deadline = 0;  ///< a queued deadline was due
    std::uint64_t flushes_window = 0;    ///< max_wait_us ran out
    /// No window held: max_wait_us is 0, the queue was already at
    /// max_batch_rows when the worker looked, or the batcher is shutting
    /// down.
    std::uint64_t flushes_immediate = 0;
    std::uint64_t decode_calls = 0;   ///< decoder invocations (groups)
    std::uint64_t planned_decodes = 0;  ///< units served by cached plans
    /// Units not served from the plan cache: they ran the no-grad
    /// decode() (the snapshot carries no prepared weights or plan cache).
    std::uint64_t tape_decodes = 0;
    std::uint64_t planned_bf16 = 0;     ///< planned units on the bf16 tier
    std::uint64_t planned_int8 = 0;     ///< planned units on the int8 tier
    /// Units that requested a reduced tier but were served fp32 (a
    /// decoder too wide for that tier's panels, or no prepared weights).
    /// Fallback is never silent: it always shows up here.
    std::uint64_t precision_fallbacks = 0;
    std::uint64_t max_flush_rows = 0; ///< largest coalesced flush seen
    // -- deadline accounting ------------------------------------------
    std::uint64_t expired_submit = 0;  ///< failed fast at submit()
    std::uint64_t expired_queue = 0;   ///< expired after queuing, pre-decode
    // -- admission accounting -----------------------------------------
    std::uint64_t admission_rejected = 0;  ///< Reject-policy arrivals failed
    std::uint64_t admission_shed = 0;      ///< ShedOldest victims failed
    // -- brownout accounting ------------------------------------------
    std::uint64_t degraded_requests = 0;  ///< requests served below the
                                          ///< tier they asked for
    std::uint64_t degraded_units = 0;  ///< decode units with >= 1 degraded
                                       ///< member
    std::uint64_t brownout_enters = 0;  ///< upward level steps
    std::uint64_t brownout_exits = 0;   ///< downward level steps
    int brownout_level = 0;  ///< current ladder level (0 fp32 / 1 bf16 /
                             ///< 2 int8)
    std::int64_t queue_rows = 0;  ///< queued rows at stats() time
    /// Per-tenant slice of the global counters above (fair-share
    /// accounting: who submitted, who was shed, who got degraded). Keyed
    /// by every tenant the batcher has ever seen.
    struct TenantCounters {
      std::uint64_t requests = 0;        ///< submitted requests
      std::uint64_t rows = 0;            ///< submitted query rows
      std::uint64_t drained_rows = 0;    ///< rows handed to decode units
      std::uint64_t expired_submit = 0;  ///< failed fast at submit()
      std::uint64_t expired_queue = 0;   ///< expired after queuing
      std::uint64_t rejected = 0;        ///< Reject-policy arrivals failed
      std::uint64_t shed = 0;            ///< ShedOldest victims failed
      std::uint64_t degraded_requests = 0;  ///< brownout downgrades
      std::int64_t queue_rows = 0;  ///< queued rows at stats() time
    };
    std::map<TenantId, TenantCounters> per_tenant;
    /// Mean coalescing factor: requests per decoder invocation.
    double requests_per_decode() const {
      return decode_calls == 0
                 ? 0.0
                 : static_cast<double>(requests) /
                       static_cast<double>(decode_calls);
    }
  };

  using Deadline = std::chrono::steady_clock::time_point;

  explicit QueryBatcher(QueryBatcherConfig config);
  ~QueryBatcher();  ///< drains the queue, then joins the workers

  QueryBatcher(const QueryBatcher&) = delete;
  QueryBatcher& operator=(const QueryBatcher&) = delete;

  /// Enqueue a decode of `coords` (Q, 3) against `latent`
  /// (1, C, LT, LZ, LX) under `snapshot`'s decoder. Queue-full behavior is
  /// config().admission's call: Block waits (until `deadline`, if set),
  /// Reject/ShedOldest never block. The future resolves to
  /// (Q, out_channels) values, or to the exception the request's path
  /// raised — DeadlineExceeded / Overloaded are the expected overload
  /// outcomes. `precision` overrides the snapshot's default decode tier
  /// for this request; requests at different (effective) tiers never
  /// share a decode unit. `tenant` routes the request into its fair-share
  /// sub-queue (single-model callers leave it at the default tenant 0).
  /// Malformed shapes and non-finite coordinates throw mfn::Error here,
  /// before the request reaches the queue.
  std::future<Tensor> submit(
      std::shared_ptr<const ModelSnapshot> snapshot, Tensor latent,
      Tensor coords,
      std::optional<backend::Precision> precision = std::nullopt,
      std::optional<Deadline> deadline = std::nullopt,
      TenantId tenant = kDefaultTenant);

  /// Set a tenant's fair-share weight (its DRR turn recharges
  /// fair_quantum_rows * weight). Implicitly 1.0 for any tenant never
  /// mentioned here; safe to call while traffic is in flight.
  void set_tenant_weight(TenantId tenant, double weight);

  /// Stop accepting work, serve everything still queued, join workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  Stats stats() const;
  const QueryBatcherConfig& config() const { return config_; }

  /// Per-request queue wait and per-unit decode time, recorded while
  /// timing capture is on. serve-bench splits its latency report with
  /// these: end-to-end p99 includes the batching queue, which is NOT
  /// decode latency.
  struct TimingSamples {
    std::vector<double> queue_wait_ms;  // one per drained request
    std::vector<double> decode_ms;      // one per decode unit
  };
  /// Enable/disable sample capture (off by default — steady-state serving
  /// should not grow sample vectors without a consumer).
  void set_timing_capture(bool on);
  /// Take and clear the captured samples.
  TimingSamples take_timing_samples();

 private:
  struct Request {
    std::shared_ptr<const ModelSnapshot> snapshot;
    Tensor latent;
    Tensor coords;
    /// Resolved at submit (override or snapshot default) so grouping and
    /// decode never re-consult the snapshot. Brownout may later lower it
    /// (see `degraded`).
    backend::Precision precision = backend::Precision::kFp32;
    /// True when brownout lowered `precision` below what was requested.
    bool degraded = false;
    TenantId tenant = kDefaultTenant;
    std::optional<Deadline> deadline;
    std::promise<Tensor> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// One tenant's FIFO sub-queue plus its fair-share state. Sub-queues are
  /// created on first submit (or set_tenant_weight) and never destroyed —
  /// counters must outlive idle periods.
  struct SubQueue {
    std::deque<Request> q;
    std::int64_t rows = 0;     ///< queued rows in q
    std::int64_t deficit = 0;  ///< DRR row credit (may overdraw negative)
    double weight = 1.0;
    bool active = false;  ///< true iff present in rr_
    Stats::TenantCounters counters;
  };

  /// Why a flush's batching window closed: one Stats::flushes_* each.
  enum class FlushReason { kImmediate, kFull, kTarget, kDeadline, kWindow };

  void worker_loop();
  /// Hold the batching window open (mu_ held through `lk`) until one of
  /// its exits fires, and return which. nullopt when another worker took
  /// a batch meanwhile: the queue is empty, or what is queued now belongs
  /// to a new window.
  std::optional<FlushReason> hold_window(std::unique_lock<std::mutex>& lk);
  /// When the earliest queued deadline closes the window: that deadline
  /// minus twice the estimated decode of the queued rows (the deadline
  /// itself while the estimator is 0). nullopt when no queued request
  /// carries a deadline. Caller holds mu_.
  std::optional<Deadline> deadline_close_locked() const;
  /// Pop requests into `*batch` under mu_: drains per-tenant sub-queues in
  /// surplus-round-robin order, expires dead requests into `*expired`,
  /// respects max_batch_rows and the earliest taken deadline, applies the
  /// brownout tier, updates the brownout/flush stats (counting a
  /// non-empty flush under `reason`) and records the popped row count in
  /// the recent-flush ring. Returns the popped row count.
  std::int64_t take_batch_locked(FlushReason reason,
                                 std::vector<Request>* batch,
                                 std::vector<Request>* expired);
  /// Advance the brownout ladder from the current signals (queue depth in
  /// rows pre-take, queue-wait EWMA). Caller holds mu_.
  void update_brownout_locked(std::int64_t depth_rows);
  /// Split a drained batch into units, each servable by exactly one
  /// decoder call (pure planning — no promises are touched, so the
  /// worker can account stats before clients unblock).
  static std::vector<std::vector<std::size_t>> plan_decode_units(
      const std::vector<Request>& batch);
  void execute_unit(std::vector<Request>& batch,
                    const std::vector<std::size_t>& members);
  /// One unit's decode, routed through a cached DecodePlan replay at the
  /// requested precision when the snapshot carries prepared weights — the
  /// fp32 plan when that tier does not compile — and through the no-grad
  /// ContinuousDecoder::decode (always fp32) otherwise. Sets *planned and
  /// *served (the tier that actually computed the rows — fp32 when a
  /// reduced-tier request fell back).
  static Tensor decode_unit(const ModelSnapshot& snap, const Tensor& latent,
                            const Tensor& coords,
                            backend::Precision precision, bool* planned,
                            backend::Precision* served);
  /// Record one finished decode unit of `rows` rows (started at `t0`)
  /// under mu_: planned/tape + per-tier counters, the per-row decode cost
  /// EWMA the deadline estimator uses, plus a decode_ms sample when
  /// capture is on.
  void account_decode(std::chrono::steady_clock::time_point t0, bool planned,
                      backend::Precision requested,
                      backend::Precision served, bool degraded,
                      std::int64_t rows);
  static void demux_rows(std::vector<Request>& batch,
                         const std::vector<std::size_t>& members,
                         const Tensor& out, std::size_t* fulfilled);
  /// Fail `req` with DeadlineExceeded (never under mu_).
  static void fail_expired(Request& req);

  QueryBatcherConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_pending_;   // workers wait for work/flush
  std::condition_variable cv_capacity_;  // submitters wait for room
  // Per-tenant sub-queues (std::map: deterministic iteration for shed
  // victim selection and stats) plus the round-robin ring of tenants with
  // queued work. queued_rows_ is the global total across sub-queues.
  std::map<TenantId, SubQueue> queues_;
  std::deque<TenantId> rr_;
  std::int64_t queued_rows_ = 0;
  bool stop_ = false;
  Stats stats_;
  // Deadline estimator: EWMA of decode milliseconds per query row
  // (0 until the first decode lands). Guarded by mu_.
  double est_row_ms_ = 0.0;
  // Flush history (guarded by mu_): the row counts of the last
  // kRecentFlushes takes, in a ring indexed by the running take count.
  // Their max is the queue depth at which a window closes. takes_ also
  // dates windows: one opened before another worker's take is stale.
  static constexpr std::size_t kRecentFlushes = 8;
  std::array<std::int64_t, kRecentFlushes> recent_flush_rows_{};
  std::uint64_t takes_ = 0;
  // Brownout state (guarded by mu_): current ladder level, queue-wait
  // EWMA, and flushes since the last level change (dwell).
  int brownout_level_ = 0;
  double wait_ewma_ms_ = 0.0;
  int flushes_since_level_change_ = 0;
  bool timing_capture_ = false;
  TimingSamples timing_;
  std::vector<std::thread> workers_;
};

}  // namespace mfn::serve
