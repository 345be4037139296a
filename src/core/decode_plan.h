// Compiled decode plans: the no-grad value decode of the Continuous
// Decoding Network.
//
// A no-grad decode is the same graph every time — only the data changes.
// The tape path re-walks the op graph, re-derives corner geometry into
// intermediate tensors, and re-packs the decoder weight panels inside
// every SGEMM. This module compiles that work away, in two stages:
//
//  - PreparedSnapshot: an immutable, self-contained copy of the decoder
//    MLP. pack() clones its weights and biases out of the module tree and
//    prepacks them into persistent SGEMM panels (backend::sgemm_prepack_b)
//    without touching the module. prepare() also freezes a model for
//    serving — eval mode, and the encoder's conv->BN affines folded ahead
//    of time (Module::prepare_inference) — and runs once per swap_model /
//    reload_from_checkpoint. Plans reference the snapshot's buffers by
//    pointer, so a cached plan stays valid even after the source model is
//    hot-swapped away.
//
//  - DecodePlan: lowers the no-grad decode for one concrete (snapshot
//    version, N, Q, grid, precision) shape into a flat
//    backend::PlanProgram — fused corner gather, prepacked-weight GEMMs,
//    in-place activations, trilinear blend — over fixed float offsets
//    carved from the executing thread's workspace arena. Replay does zero
//    graph traversal, zero dispatch branching, zero heap allocation, and
//    zero per-call weight packing. Work runs in fixed global blocks of
//    256 queries (the last block takes the remainder), so output bits do
//    not depend on MFN_NUM_THREADS.
//
// Two callers compile plans. ContinuousDecoder::decode, under NoGradGuard,
// packs the current weights and compiles an fp32 plan on every call (it
// caches nothing: optimizers update weights in place, and no weight
// version exists to invalidate a cache on). The serving layer compiles
// once per shape into a PlanCache LRU against the snapshot prepare() made.
// fp32 plans are bitwise identical to the tape decode, which stays their
// test oracle; bf16/int8 plans replay the reduced-precision prepacked
// kernels (backend/sgemm.h) and match the tape only within documented
// error bounds.
//
// execute_derivatives() covers predict_with_derivatives by running the
// derivative node's forward (core/decode_jet.h) over the snapshot's fp32
// weights — no tape and no per-call tensors beyond the six outputs.
//
// Shapes the compiler cannot lower (a decoder layer wider than the
// prepacked panel range, or no queries) return nullptr from compile();
// callers fall back to the tape path. The PreparedSnapshot layer format
// plus the backend::PlanKernel tag is the seam the quantized weight tiers
// plug into.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "backend/plan.h"
#include "core/decode_jet.h"
#include "core/meshfree_flownet.h"
#include "nn/mlp.h"
#include "tensor/tensor.h"

namespace mfn::core {

/// Immutable serving weights for one published model version.
class PreparedSnapshot {
 public:
  struct Layer {
    std::int64_t in = 0, out = 0;
    std::vector<float> weight;  // dense (out, in) clone
    std::vector<float> bias;    // out entries; empty when the layer has none
    std::vector<float> packed;  // sgemm_prepack_b panels (empty if too wide)
    // Reduced-precision prepacks, built by prepare() only (empty after
    // pack(), and when the layer is too wide): bf16 panels, int8
    // pair-interleaved panels + dense int8 weights + per-output-column
    // fp32 dequant scales.
    std::vector<std::uint16_t> packed_bf16;
    std::vector<std::int16_t> packed_i8;
    std::vector<std::int8_t> w8;
    std::vector<float> scales;
  };

  /// Freeze `model` for serving (set_training(false) +
  /// Module::prepare_inference()) and pack its decoder MLP for every
  /// precision tier.
  static std::shared_ptr<const PreparedSnapshot> prepare(
      MeshfreeFlowNet& model, std::uint64_t version);

  /// Clone a decoder MLP (input rows [3 relative coords | latent
  /// channels]) and prepack it for fp32 plans only. Reads the module and
  /// changes nothing in it — no training-mode switch, no eval folds.
  static std::shared_ptr<const PreparedSnapshot> pack(
      const nn::MLP& decoder_mlp, std::uint64_t version);

  std::uint64_t version() const { return version_; }
  const std::vector<Layer>& layers() const { return layers_; }
  nn::Activation activation() const { return activation_; }
  std::int64_t latent_channels() const { return latent_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  /// False when some layer exceeds the prepacked panel range — plans for
  /// this snapshot cannot compile and callers stay on the tape path.
  bool plannable() const { return plannable_; }

 private:
  PreparedSnapshot() = default;

  static std::shared_ptr<const PreparedSnapshot> build(
      const nn::MLP& decoder_mlp, std::uint64_t version,
      bool reduced_tiers);

  std::uint64_t version_ = 0;
  std::int64_t latent_channels_ = 0;
  std::int64_t out_channels_ = 0;
  nn::Activation activation_ = nn::Activation::kSoftplus;
  std::vector<Layer> layers_;
  bool plannable_ = false;
};

/// One concrete decode shape: snapshot version, query batch, latent grid,
/// decode precision tier (a plan is compiled per precision).
struct PlanKey {
  std::uint64_t version = 0;
  std::int64_t n = 0, q = 0;        // latent samples, queries per sample
  std::int64_t lt = 0, lz = 0, lx = 0;  // latent grid extents
  backend::Precision precision = backend::Precision::kFp32;
  bool operator==(const PlanKey& o) const {
    return version == o.version && n == o.n && q == o.q && lt == o.lt &&
           lz == o.lz && lx == o.lx && precision == o.precision;
  }
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const;
};

/// Forward-mode derivative bundle decoded by a plan (plain tensors; the
/// tape-producing DecodeDerivs stays the training-path type).
struct PlannedDerivs {
  Tensor value;
  Tensor d_dt, d_dz, d_dx;
  Tensor d2_dz2, d2_dx2;
};

class DecodePlan {
 public:
  /// Lower the decode for `key`'s shape against `snap`'s weights. Returns
  /// nullptr when the shape cannot be lowered (see PreparedSnapshot::
  /// plannable) or `snap` lacks the key's precision tier; callers must
  /// then take the tape path.
  static std::shared_ptr<const DecodePlan> compile(
      std::shared_ptr<const PreparedSnapshot> snap, const PlanKey& key);

  /// Replay: values at the query points, (N*Q, out_channels). `latent` is
  /// (N, C, LT, LZ, LX) matching the key; `query_coords` is (B, 3) or
  /// (N, Q, 3) with B == N*Q rows either way. Output bits do not depend
  /// on MFN_NUM_THREADS. fp32 plans are bitwise identical to the tape
  /// decode; bf16/int8 plans match it only within their tier's error
  /// bound.
  Tensor execute(const Tensor& latent, const Tensor& query_coords) const;

  /// Replay with exact forward-mode coordinate derivatives (the
  /// predict_with_derivatives bundle): the derivative node's forward over
  /// the snapshot's fp32 weights.
  PlannedDerivs execute_derivatives(const Tensor& latent,
                                    const Tensor& query_coords) const;

  const PlanKey& key() const { return key_; }
  const PreparedSnapshot& snapshot() const { return *snap_; }

 private:
  DecodePlan() = default;

  void check_inputs(const Tensor& latent, const Tensor& query_coords) const;
  void run_block(const float* latent, const float* coords, float* out,
                 std::int64_t q0, std::int64_t q1, float* arena) const;

  std::shared_ptr<const PreparedSnapshot> snap_;
  PlanKey key_;
  std::int64_t b_total_ = 0;  // N * Q
  std::int64_t in0_ = 0;      // 3 + latent channels
  std::int64_t out_ch_ = 0;
  std::int64_t wmax_ = 0;     // widest activation panel
  std::int64_t slab_ = 0;     // latent channel stride: LT * LZ * LX
  std::int64_t corner_delta_[8] = {};  // gather offset of corner j

  // Value program: fixed offsets into one per-chunk arena.
  backend::PlanProgram prog_;
  std::int64_t off_in_ = 0;     // gather destination (first GEMM input)
  std::int64_t off_final_ = 0;  // last GEMM output (blend source)
  std::int64_t off_w_ = 0;      // trilinear weights, one per block row
  std::int64_t nblocks_ = 0;

  // Derivative replay: the snapshot's fp32 layers.
  std::vector<jet::Layer> jet_layers_;
};

/// Shape-keyed LRU of compiled plans, shared by the serving layer. Same
/// keying discipline as LatentCache: the snapshot version is part of the
/// key, a monotonic version floor makes a racing insert of a stale plan
/// impossible, and hot-swap eagerly drops superseded versions.
class PlanCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t compiles = 0;       // misses that produced a plan
    std::uint64_t evictions = 0;      // LRU capacity drops
    std::uint64_t invalidations = 0;  // stale-version entries dropped
    std::size_t entries = 0;
    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  explicit PlanCache(std::size_t max_entries = 64);

  /// Cached plan for the shape, compiling (outside the lock) on miss.
  /// Returns nullptr for unplannable shapes — not cached, callers fall
  /// back to the tape path. Plans for versions older than the newest
  /// drop_stale_versions() floor are still returned (the caller holds that
  /// snapshot and the math is correct) but never (re)inserted.
  std::shared_ptr<const DecodePlan> get_or_compile(
      const std::shared_ptr<const PreparedSnapshot>& snap, std::int64_t n,
      std::int64_t q, std::int64_t lt, std::int64_t lz, std::int64_t lx,
      backend::Precision precision = backend::Precision::kFp32);

  /// Drop every plan compiled against a version older than `live_version`
  /// and raise the insert floor (monotonic — late calls with older
  /// versions cannot lower it).
  void drop_stale_versions(std::uint64_t live_version);

  void clear();
  Stats stats() const;

 private:
  using Entry = std::pair<PlanKey, std::shared_ptr<const DecodePlan>>;

  mutable std::mutex mu_;
  std::size_t max_entries_;
  std::uint64_t min_version_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> map_;
  Stats stats_;
};

}  // namespace mfn::core
