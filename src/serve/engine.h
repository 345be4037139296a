// Thread-safe inference engine: immutable model snapshots with hot swap,
// per-tenant latent-grid LRU caches, and a fair-share dynamic query
// batcher.
//
// The serving pipeline exploits the paper's split architecture end to end:
//
//   client threads ──▶ InferenceEngine::query(tenant, patch_id, lr_patch,
//                        │                    coords)
//                        ├─ ModelRegistry: tenant id -> snapshot chain,
//                        │  caches, decode tier, reload policy. One
//                        │  shared_ptr read pins the request to that
//                        │  snapshot for BOTH encode and decode (hot swaps
//                        │  never produce mixed responses)
//                        ├─ per-tenant LatentCache: (version, patch_id) ->
//                        │  latent grid; misses run the Context Generation
//                        │  Network once — racing misses on one key are
//                        │  single-flighted, so N clients after a hot swap
//                        │  pay 1 encode, not N
//                        └─ QueryBatcher: coalesces the decode with other
//                           clients' queries into one batched SGEMM,
//                           draining per-tenant sub-queues fair-share
//                           ──▶ std::future<Tensor> (Q, out_channels)
//
// Single-model callers never mention tenants: the construction model is
// tenant 0 and every legacy signature forwards to it.
//
// Hot swap: swap_model()/reload_from_checkpoint() publish a new immutable
// snapshot on the tenant's chain; in-flight requests keep the old snapshot
// alive through their shared_ptr and drain against it. Readers never block
// on a swap beyond the pointer-copy critical section, and a swap
// invalidates exactly the swapping tenant's caches.
//
// All forwards run eval-mode + NoGradGuard, which is read-only on model
// state (batch-norm uses running statistics, no tape is recorded), so any
// number of threads may serve against one snapshot concurrently.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/meshfree_flownet.h"
#include "serve/latent_cache.h"
#include "serve/model_registry.h"
#include "serve/query_batcher.h"

namespace mfn::serve {

struct InferenceEngineConfig {
  /// Shared latent-cache byte pool, carved into per-tenant budgets (see
  /// ModelRegistry: explicit TenantConfig::cache_bytes first, weighted
  /// shares of the remainder for the rest).
  std::size_t cache_bytes = 64u << 20;
  /// Compiled decode-plan LRU capacity per tenant (shape-keyed; see
  /// core::PlanCache).
  std::size_t plan_cache_entries = 64;
  /// Default decode precision tier for tenant 0 (the construction model).
  /// Further tenants set theirs via TenantConfig. Requests may override
  /// per call; decoders too wide for the reduced-tier panels and the
  /// derivative bundle fall back to fp32 (counted in batcher_stats()).
  backend::Precision decode_precision = backend::Precision::kFp32;
  QueryBatcherConfig batcher;
  /// Reload policy for tenant 0; further tenants set theirs via
  /// TenantConfig.
  ReloadConfig reload;
};

class InferenceEngine {
 public:
  /// Takes ownership of the model (switched to eval mode), registered as
  /// tenant 0, snapshot version 1.
  InferenceEngine(std::unique_ptr<core::MeshfreeFlowNet> model,
                  InferenceEngineConfig config = {});
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  // ---- tenants ------------------------------------------------------

  /// Register a further model under `tenant` (rejects duplicates and
  /// tenant ids already in use, including 0). Cache budgets re-carve and
  /// the batcher learns the tenant's fair-share weight. Safe mid-traffic.
  void add_tenant(TenantId tenant,
                  std::unique_ptr<core::MeshfreeFlowNet> model,
                  TenantConfig config = {});
  bool has_tenant(TenantId tenant) const;
  std::vector<TenantId> tenants() const;

  // ---- queries ------------------------------------------------------

  /// Asynchronous continuous query against `tenant`'s current snapshot:
  /// values of `coords` (Q, 3) inside the patch `lr_patch`
  /// (1, C, lt, lz, lx). `patch_id` identifies the patch content for
  /// latent caching — callers must not reuse an id for different patch
  /// data within a tenant. Thread-safe; blocks only on batcher
  /// backpressure. `precision` overrides the tenant's default decode tier
  /// for this request only. `deadline` bounds the request end to end: an
  /// expired request fails its future with serve::DeadlineExceeded instead
  /// of costing a decode (see QueryBatcher).
  std::future<Tensor> query(
      TenantId tenant, std::uint64_t patch_id, const Tensor& lr_patch,
      const Tensor& query_coords,
      std::optional<backend::Precision> precision = std::nullopt,
      std::optional<QueryBatcher::Deadline> deadline = std::nullopt);

  /// Tenant-0 convenience (the single-model API).
  std::future<Tensor> query(
      std::uint64_t patch_id, const Tensor& lr_patch,
      const Tensor& query_coords,
      std::optional<backend::Precision> precision = std::nullopt,
      std::optional<QueryBatcher::Deadline> deadline = std::nullopt);

  /// Blocking convenience wrappers around query().get().
  Tensor query_sync(TenantId tenant, std::uint64_t patch_id,
                    const Tensor& lr_patch, const Tensor& query_coords,
                    std::optional<backend::Precision> precision = std::nullopt,
                    std::optional<QueryBatcher::Deadline> deadline =
                        std::nullopt);
  Tensor query_sync(std::uint64_t patch_id, const Tensor& lr_patch,
                    const Tensor& query_coords,
                    std::optional<backend::Precision> precision = std::nullopt,
                    std::optional<QueryBatcher::Deadline> deadline =
                        std::nullopt);

  /// Encode-and-cache without decoding (cache warming).
  void prewarm(TenantId tenant, std::uint64_t patch_id,
               const Tensor& lr_patch);
  void prewarm(std::uint64_t patch_id, const Tensor& lr_patch);

  // ---- snapshot lifecycle -------------------------------------------

  /// Publish `model` (switched to eval mode) as a new snapshot on the
  /// tenant's chain; that tenant's stale cached latents and plans are
  /// dropped eagerly, every other tenant is untouched. Traffic in flight
  /// finishes on the old snapshot; requests submitted after the swap use
  /// the new one.
  void swap_model(TenantId tenant,
                  std::unique_ptr<core::MeshfreeFlowNet> model);
  void swap_model(std::unique_ptr<core::MeshfreeFlowNet> model);

  /// Hot reload, hardened for mid-traffic use: build a fresh model with
  /// the tenant's architecture, load the checkpoint's weights into it
  /// (core::load_checkpoint_weights — rejects non-finite weights), and
  /// VALIDATE the candidate (canary decode against sanity bounds) before
  /// swap_model() publishes it. Failures retry with capped exponential
  /// backoff (the tenant's ReloadConfig); after max_attempts the engine
  /// rolls back — the last-good snapshot keeps serving untouched,
  /// reload_stats() records the rollback, and the error is rethrown to the
  /// caller. In-flight and future traffic NEVER observes a broken model.
  void reload_from_checkpoint(TenantId tenant, const std::string& path);
  void reload_from_checkpoint(const std::string& path);

  struct ReloadStats {
    std::uint64_t reloads = 0;    ///< successful publishes
    std::uint64_t attempts = 0;   ///< load attempts, including retries
    std::uint64_t retries = 0;    ///< attempts after the first, per reload
    std::uint64_t rollbacks = 0;  ///< reloads that gave up (last-good kept)
    std::string last_error;       ///< most recent attempt failure message
  };
  /// Engine-wide (summed over tenants).
  ReloadStats reload_stats() const;

  /// Version of the snapshot new requests of `tenant` will use (1 for the
  /// registration model, +1 per swap). Chains are per tenant.
  std::uint64_t snapshot_version(TenantId tenant) const;
  std::uint64_t snapshot_version() const;

  /// The architecture every snapshot of `tenant` shares.
  const core::MFNConfig& model_config(TenantId tenant) const;
  const core::MFNConfig& model_config() const;

  // ---- introspection ------------------------------------------------

  LatentCache::Stats cache_stats(TenantId tenant) const;
  LatentCache::Stats cache_stats() const;
  EncodeStats encode_stats(TenantId tenant) const;
  EncodeStats encode_stats() const;
  core::PlanCache::Stats plan_stats(TenantId tenant) const;
  core::PlanCache::Stats plan_stats() const;
  QueryBatcher::Stats batcher_stats() const { return batcher_.stats(); }

  LatentCache& cache(TenantId tenant = kDefaultTenant);
  QueryBatcher& batcher() { return batcher_; }
  core::PlanCache& plans(TenantId tenant = kDefaultTenant);
  const ModelRegistry& registry() const { return registry_; }

 private:
  /// Cache lookup with single-flight encode on miss (see ModelRegistry).
  Tensor latent_for(ModelRegistry::Tenant& t,
                    const std::shared_ptr<const ModelSnapshot>& snap,
                    std::uint64_t patch_id, const Tensor& lr_patch);
  /// Throws mfn::Error unless a canary predict through `model` stays
  /// finite and inside the tenant's canary_abs_bound.
  static void validate_candidate(const ModelRegistry::Tenant& t,
                                 core::MeshfreeFlowNet& model);

  mutable std::mutex reload_mu_;
  ReloadStats reload_stats_;
  ModelRegistry registry_;
  // Last member: destroyed (and therefore drained) first, while the
  // snapshots and caches it references are still alive.
  QueryBatcher batcher_;
};

}  // namespace mfn::serve
