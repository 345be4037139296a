#include "core/decode_plan.h"

#include <algorithm>

#include "backend/sgemm.h"
#include "backend/workspace.h"
#include "common/error.h"
#include "tensor/tensor_ops.h"
#include "threading/thread_pool.h"

namespace mfn::core {

namespace {

// The reduced tiers replay fixed global blocks of 256 queries: block i
// starts at query i*256 whichever worker runs it, so output bits do not
// depend on MFN_NUM_THREADS. 256 queries keep a block's activations
// (8 * 256 rows x the widest layer) inside L2.
constexpr std::int64_t kBlockQueries = 256;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

// ------------------------------------------------------ PreparedSnapshot --

std::shared_ptr<const PreparedSnapshot> PreparedSnapshot::prepare(
    MeshfreeFlowNet& model, std::uint64_t version) {
  model.set_training(false);
  // Ahead-of-time eval folds (e.g. the encoder's conv->BN epilogue
  // affines): every later encode serves them from cache.
  model.prepare_inference();
  const nn::MLP& mlp = model.decoder().mlp();
  const auto& fcs = mlp.layers();
  MFN_CHECK(!fcs.empty(), "decoder MLP has no layers");
  std::shared_ptr<PreparedSnapshot> ps(new PreparedSnapshot());
  ps->version_ = version;
  ps->latent_channels_ = fcs.front()->in_features() - 3;
  ps->out_channels_ = fcs.back()->out_features();
  ps->activation_ = mlp.activation();
  ps->reduced_tiers_ = true;
  for (const auto& fc : fcs) {
    Layer layer;
    layer.in = fc->in_features();
    layer.out = fc->out_features();
    const float* w = fc->weight().value().data();
    layer.weight.assign(w, w + layer.out * layer.in);
    if (fc->has_bias()) {
      const float* b = fc->bias().value().data();
      layer.bias.assign(b, b + layer.out);
    }
    if (layer.in <= backend::sgemm_prepacked_max_k()) {
      // Reduced-precision prepacks for the bf16/int8 plan tiers, built
      // once here so replay pays zero quantization cost on the weights.
      layer.packed_bf16.resize(
          backend::sgemm_prepack_b_bf16_elems(layer.in, layer.out));
      backend::sgemm_prepack_b_bf16(backend::Trans::kYes, layer.in,
                                    layer.out, layer.weight.data(),
                                    layer.packed_bf16.data());
      layer.packed_i8.resize(
          backend::sgemm_prepack_b_int8_elems(layer.in, layer.out));
      layer.w8.resize(static_cast<std::size_t>(layer.out * layer.in));
      layer.scales.resize(static_cast<std::size_t>(layer.out));
      backend::sgemm_prepack_b_int8(backend::Trans::kYes, layer.in,
                                    layer.out, layer.weight.data(),
                                    layer.packed_i8.data(), layer.w8.data(),
                                    layer.scales.data());
    } else {
      ps->reduced_tiers_ = false;  // beyond the single-k-block panel range
    }
    ps->layers_.push_back(std::move(layer));
  }
  return ps;
}

// ------------------------------------------------------------ DecodePlan --

std::size_t PlanKeyHash::operator()(const PlanKey& k) const {
  std::uint64_t h = splitmix64(k.version);
  h = splitmix64(h ^ static_cast<std::uint64_t>(k.n));
  h = splitmix64(h ^ static_cast<std::uint64_t>(k.q));
  h = splitmix64(h ^ static_cast<std::uint64_t>(k.lt));
  h = splitmix64(h ^ static_cast<std::uint64_t>(k.lz));
  h = splitmix64(h ^ static_cast<std::uint64_t>(k.lx));
  h = splitmix64(h ^ static_cast<std::uint64_t>(k.precision));
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const DecodePlan> DecodePlan::compile(
    std::shared_ptr<const PreparedSnapshot> snap, const PlanKey& key) {
  if (snap == nullptr) return nullptr;
  if (key.n < 1 || key.q < 1) return nullptr;
  if (key.lt < 2 || key.lz < 2 || key.lx < 2) return nullptr;
  if (key.precision != backend::Precision::kFp32 && !snap->reduced_tiers())
    return nullptr;

  std::shared_ptr<DecodePlan> plan(new DecodePlan());
  plan->snap_ = std::move(snap);
  plan->key_ = key;
  plan->b_total_ = key.n * key.q;
  plan->out_ch_ = plan->snap_->out_channels();
  const auto& layers = plan->snap_->layers();
  for (const auto& layer : layers)
    plan->jet_layers_.push_back(
        {layer.in, layer.out, layer.weight.data(),
         layer.bias.empty() ? nullptr : layer.bias.data()});
  if (key.precision == backend::Precision::kFp32) return plan;

  plan->in0_ = 3 + plan->snap_->latent_channels();
  plan->slab_ = key.lt * key.lz * key.lx;
  for (int j = 0; j < 8; ++j) {
    const std::int64_t jt = (j >> 2) & 1, jz = (j >> 1) & 1, jx = j & 1;
    plan->corner_delta_[j] = (jt * key.lz + jz) * key.lx + jx;
  }
  std::int64_t wmax = plan->in0_;
  for (const auto& layer : layers) wmax = std::max(wmax, layer.out);

  void (*act_fn)(float*, std::int64_t) = nullptr;
  backend::FusedAct fact = backend::FusedAct::kNone;
  switch (plan->snap_->activation()) {
    case nn::Activation::kSoftplus:
      act_fn = softplus_inplace;
      fact = backend::FusedAct::kSoftplus;
      break;
    case nn::Activation::kTanh:
      act_fn = tanh_inplace;
      fact = backend::FusedAct::kTanh;
      break;
    case nn::Activation::kReLU:
      act_fn = relu_inplace;
      fact = backend::FusedAct::kRelu;
      break;
  }

  // Value arena: two ping-pong activation banks + the blend weight table.
  // The int8 tier appends a quantized-activation block (int16 viewed
  // through the float arena) and its per-row fp32 scales.
  const std::int64_t rows_max = 8 * kBlockQueries;
  const std::int64_t bank = rows_max * wmax;
  plan->off_in_ = 0;
  plan->off_w_ = 2 * bank;
  std::int64_t arena_floats = 2 * bank + rows_max;
  std::int64_t qbuf_off = 0, qscale_off = 0;
  if (key.precision == backend::Precision::kInt8) {
    std::int64_t kpad_max = 0;
    for (const auto& layer : layers)
      kpad_max = std::max(kpad_max, (layer.in + 1) & ~std::int64_t{1});
    qbuf_off = arena_floats;
    const std::int64_t qbuf_floats = (rows_max * kpad_max + 1) / 2;
    qscale_off = qbuf_off + qbuf_floats;
    arena_floats = qscale_off + rows_max;
  }
  plan->prog_.arena_floats = static_cast<std::size_t>(arena_floats);
  std::int64_t cur = 0, nxt = bank;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const auto& layer = layers[li];
    const bool last = li + 1 == layers.size();
    const float* bias = layer.bias.empty() ? nullptr : layer.bias.data();
    if (key.precision == backend::Precision::kBf16) {
      backend::PlanStep gemm;
      gemm.kernel = backend::PlanKernel::kGemmBf16;
      gemm.packed_b16 = layer.packed_bf16.data();
      gemm.in = cur;
      gemm.out = nxt;
      gemm.n = layer.out;
      gemm.k = layer.in;
      gemm.bias = bias;
      plan->prog_.steps.push_back(gemm);
      if (!last) {
        backend::PlanStep act;
        act.kernel = backend::PlanKernel::kActivation;
        act.out = nxt;
        act.n = layer.out;
        act.act_fn = act_fn;
        plan->prog_.steps.push_back(act);
      }
    } else {
      backend::PlanStep quant;
      quant.kernel = backend::PlanKernel::kQuantizeRows;
      quant.in = cur;
      quant.out = qbuf_off;
      quant.aux = qscale_off;
      quant.n = layer.in;
      plan->prog_.steps.push_back(quant);
      backend::PlanStep gemm;
      gemm.kernel = backend::PlanKernel::kGemmInt8;
      gemm.in = qbuf_off;
      gemm.aux = qscale_off;
      gemm.out = nxt;
      gemm.n = layer.out;
      gemm.k = layer.in;
      gemm.packed_s8 = layer.packed_i8.data();
      gemm.dense_s8 = layer.w8.data();
      gemm.col_scale = layer.scales.data();
      gemm.bias = bias;
      gemm.fact = last ? backend::FusedAct::kNone : fact;  // fused act
      plan->prog_.steps.push_back(gemm);
    }
    std::swap(cur, nxt);
  }
  plan->off_final_ = cur;
  plan->nblocks_ = (plan->b_total_ + kBlockQueries - 1) / kBlockQueries;
  return plan;
}

void DecodePlan::check_inputs(const Tensor& latent,
                              const Tensor& query_coords) const {
  MFN_CHECK(latent.ndim() == 5 && latent.dim(0) == key_.n &&
                latent.dim(1) == snap_->latent_channels() &&
                latent.dim(2) == key_.lt && latent.dim(3) == key_.lz &&
                latent.dim(4) == key_.lx,
            "decode plan: latent " << latent.shape().str()
                                   << " does not match the compiled key");
  if (query_coords.ndim() == 2) {
    MFN_CHECK(query_coords.dim(1) == 3 && key_.n == 1 &&
                  query_coords.dim(0) == key_.q,
              "decode plan: (B, 3) coords " << query_coords.shape().str()
                                            << " do not match the key");
  } else {
    MFN_CHECK(query_coords.ndim() == 3 && query_coords.dim(2) == 3 &&
                  query_coords.dim(0) == key_.n &&
                  query_coords.dim(1) == key_.q,
              "decode plan: coords " << query_coords.shape().str()
                                     << " do not match the compiled key");
  }
}

jet::Grid DecodePlan::grid(const Tensor& latent) const {
  return {latent.data(), key_.n,  key_.q, snap_->latent_channels(),
          key_.lt,       key_.lz, key_.lx};
}

Tensor DecodePlan::execute(const Tensor& latent,
                           const Tensor& query_coords) const {
  check_inputs(latent, query_coords);
  Tensor out = Tensor::uninitialized(Shape{b_total_, out_ch_});
  if (key_.precision == backend::Precision::kFp32) {
    jet::forward(grid(latent), query_coords.data(), jet_layers_,
                 snap_->activation(), {out.data()});
    return out;
  }
  const float* pl = latent.data();
  const float* pq = query_coords.data();
  float* po = out.data();
  // Blocks are carved from the global query range (see kBlockQueries),
  // never from parallel_for's thread-count-dependent chunks.
  parallel_for(
      nblocks_,
      [&](std::int64_t blk0, std::int64_t blk1) {
        backend::Workspace& ws = backend::local_workspace();
        const backend::Workspace::Mark m = ws.mark();
        float* arena = ws.alloc(prog_.arena_floats);
        for (std::int64_t blk = blk0; blk < blk1; ++blk) {
          const std::int64_t q0 = blk * kBlockQueries;
          run_block(pl, pq, po, q0, std::min(q0 + kBlockQueries, b_total_),
                    arena);
        }
        ws.release(m);
      },
      /*grain=*/1);
  return out;
}

void DecodePlan::run_block(const float* latent, const float* coords,
                           float* out, std::int64_t q0, std::int64_t q1,
                           float* arena) const {
  const std::int64_t nb = q1 - q0, rows = 8 * nb;
  const std::int64_t C = snap_->latent_channels();
  float* cur = arena + off_in_;
  float* wblk = arena + off_w_;

  // Fused single-pass gather: geometry (the double math of core::cellof,
  // as in the fused kernel), [coords | latent] rows, and blend weights,
  // with no intermediate tensors and no per-query index recomputation
  // beyond the three cellof splits.
  for (std::int64_t b = q0; b < q1; ++b) {
    const std::int64_t n = b / key_.q;
    const auto [t0, ft] = cellof(coords[b * 3 + 0], key_.lt);
    const auto [z0, fz] = cellof(coords[b * 3 + 1], key_.lz);
    const auto [x0, fx] = cellof(coords[b * 3 + 2], key_.lx);
    const std::int64_t base0 =
        n * C * slab_ + (t0 * key_.lz + z0) * key_.lx + x0;
    for (int j = 0; j < 8; ++j) {
      const int jt = (j >> 2) & 1, jz = (j >> 1) & 1, jx = j & 1;
      const std::int64_t row = static_cast<std::int64_t>(j) * nb + (b - q0);
      float* r = cur + row * in0_;
      r[0] = static_cast<float>(ft - jt);
      r[1] = static_cast<float>(fz - jz);
      r[2] = static_cast<float>(fx - jx);
      const float* src = latent + base0 + corner_delta_[j];
      for (std::int64_t c = 0; c < C; ++c) r[3 + c] = src[c * slab_];
      const double wt = jt ? ft : 1.0 - ft;
      const double wz = jz ? fz : 1.0 - fz;
      const double wx = jx ? fx : 1.0 - fx;
      wblk[row] = static_cast<float>(wt * wz * wx);
    }
  }

  backend::plan_run(prog_, rows, arena);

  // Trilinear blend in corner order, as the tape reference decoder sums.
  const float* y0 = arena + off_final_;
  for (std::int64_t b = q0; b < q1; ++b) {
    float* r = out + b * out_ch_;
    for (std::int64_t c = 0; c < out_ch_; ++c) r[c] = 0.0f;
    for (int j = 0; j < 8; ++j) {
      const std::int64_t row = static_cast<std::int64_t>(j) * nb + (b - q0);
      const float wj = wblk[row];
      const float* y = y0 + row * out_ch_;
      for (std::int64_t c = 0; c < out_ch_; ++c) r[c] += wj * y[c];
    }
  }
}

PlannedDerivs DecodePlan::execute_derivatives(
    const Tensor& latent, const Tensor& query_coords) const {
  check_inputs(latent, query_coords);
  PlannedDerivs out;
  Tensor* members[jet::kMembers] = {&out.value, &out.d_dt,   &out.d_dz,
                                    &out.d_dx,  &out.d2_dz2, &out.d2_dx2};
  std::array<float*, jet::kMembers> outs{};
  for (int m = 0; m < jet::kMembers; ++m) {
    *members[m] = Tensor::uninitialized(Shape{b_total_, out_ch_});
    outs[m] = members[m]->data();
  }
  jet::forward(grid(latent), query_coords.data(), jet_layers_,
               snap_->activation(), outs);
  return out;
}

// ------------------------------------------------------------- PlanCache --

PlanCache::PlanCache(std::size_t max_entries)
    : max_entries_(std::max<std::size_t>(max_entries, 1)) {}

std::shared_ptr<const DecodePlan> PlanCache::get_or_compile(
    const std::shared_ptr<const PreparedSnapshot>& snap, std::int64_t n,
    std::int64_t q, std::int64_t lt, std::int64_t lz, std::int64_t lx,
    backend::Precision precision) {
  if (snap == nullptr) return nullptr;
  const PlanKey key{snap->version(), n, q, lt, lz, lx, precision};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    ++stats_.misses;
  }

  // Compile outside the lock: a miss on one shape must not serialize
  // replays (or other compiles) behind it.
  std::shared_ptr<const DecodePlan> plan = DecodePlan::compile(snap, key);
  if (plan == nullptr) return nullptr;  // not compiled: not cached

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.compiles;
  if (key.version < min_version_) {
    // A newer model was published while we compiled. The plan is still
    // correct for the snapshot this request holds, but it must not enter
    // the cache — later lookups would replay a superseded version.
    ++stats_.invalidations;
    return plan;
  }
  auto it = map_.find(key);
  if (it != map_.end()) {  // lost a compile race: serve the cached one
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  lru_.emplace_front(key, plan);
  map_[key] = lru_.begin();
  if (map_.size() > max_entries_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = map_.size();
  return plan;
}

void PlanCache::drop_stale_versions(std::uint64_t live_version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (live_version <= min_version_) return;  // stale publisher raced ahead
  min_version_ = live_version;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->first.version < min_version_) {
      map_.erase(it->first);
      it = lru_.erase(it);
      ++stats_.invalidations;
    } else {
      ++it;
    }
  }
  stats_.entries = map_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
  stats_.entries = 0;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mfn::core
