// Compiled decode plans: the serving decode of the Continuous Decoding
// Network, at three precision tiers.
//
//  - PreparedSnapshot: an immutable, self-contained copy of the decoder
//    MLP, made by prepare() once per swap_model / reload_from_checkpoint.
//    prepare() also freezes the model for serving — eval mode, and the
//    encoder's conv->BN affines folded ahead of time
//    (Module::prepare_inference) — and prepacks every layer whose input
//    fits backend::sgemm_prepacked_max_k() into bf16 and int8 panels
//    (backend/sgemm.h). Plans reference the snapshot's buffers by pointer,
//    so a cached plan stays valid after the source model is hot-swapped
//    away.
//
//  - DecodePlan: the decode for one concrete (snapshot version, N, Q,
//    grid, precision) shape. An fp32 plan runs the fused decoder kernel's
//    value pass (core/decode_jet.h) over the snapshot's weights: layer 0's
//    per-voxel term W0_lat z + b0 computed once per replay for every voxel
//    of the latent, then per corner row that voxel's row plus three FMAs,
//    the hidden layers, the blend and one output projection per query. It
//    takes any width, stays within 1e-5 of the tape reference decoder (the
//    MLP's tape ops over gathered corner rows, tests/tape_decoder.h)
//    relative to its largest entry, and is bitwise equal to
//    ContinuousDecoder::decode, which runs the same pass over the live
//    MLP. Nothing per voxel is cached between replays. A bf16 or int8
//    plan lowers the decode into a flat backend::PlanProgram — fused
//    corner gather, reduced-precision prepacked GEMMs, activations,
//    trilinear blend — over fixed float offsets carved from the executing
//    thread's workspace arena, and matches the tape only within its
//    tier's error bound. Replay does no graph traversal and no heap allocation beyond
//    the output tensor, and output bits do not depend on MFN_NUM_THREADS.
//
// The serving layer compiles once per shape into a PlanCache LRU against
// the snapshot prepare() made. execute_derivatives() covers
// predict_with_derivatives by running the derivative node's forward over
// the snapshot's fp32 weights — no tape and no per-call tensors beyond the
// six outputs.
//
// compile() returns nullptr for a shape without queries and for a bf16 or
// int8 key on a snapshot whose layers are too wide for the reduced-tier
// panels (PreparedSnapshot::reduced_tiers()); the serving layer then
// serves fp32.
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
    // Reduced-precision prepacks (empty when the layer is too wide for the
    // panels): bf16 panels, int8 pair-interleaved panels + dense int8
    // weights + per-output-column fp32 dequant scales.
    std::vector<std::uint16_t> packed_bf16;
    std::vector<std::int16_t> packed_i8;
    std::vector<std::int8_t> w8;
    std::vector<float> scales;
  };

  /// Freeze `model` for serving (set_training(false) +
  /// Module::prepare_inference()), clone its decoder MLP and prepack it
  /// for the reduced-precision tiers.
  static std::shared_ptr<const PreparedSnapshot> prepare(
      MeshfreeFlowNet& model, std::uint64_t version);

  std::uint64_t version() const { return version_; }
  const std::vector<Layer>& layers() const { return layers_; }
  nn::Activation activation() const { return activation_; }
  std::int64_t latent_channels() const { return latent_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  /// True when every layer carries the bf16 and int8 prepacks. A layer
  /// wider than backend::sgemm_prepacked_max_k() leaves the snapshot
  /// fp32-only: compile() refuses its reduced-precision keys.
  bool reduced_tiers() const { return reduced_tiers_; }

 private:
  PreparedSnapshot() = default;

  std::uint64_t version_ = 0;
  std::int64_t latent_channels_ = 0;
  std::int64_t out_channels_ = 0;
  nn::Activation activation_ = nn::Activation::kSoftplus;
  std::vector<Layer> layers_;
  bool reduced_tiers_ = false;
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
  /// Compile the decode for `key`'s shape against `snap`'s weights.
  /// Returns nullptr for a shape without queries or a grid without a
  /// cell, and for a bf16/int8 key when `snap` lacks that tier's panels
  /// (PreparedSnapshot::reduced_tiers()).
  static std::shared_ptr<const DecodePlan> compile(
      std::shared_ptr<const PreparedSnapshot> snap, const PlanKey& key);

  /// Replay: values at the query points, (N*Q, out_channels). `latent` is
  /// (N, C, LT, LZ, LX) matching the key; `query_coords` is (B, 3) or
  /// (N, Q, 3) with B == N*Q rows either way. Output bits do not depend
  /// on MFN_NUM_THREADS, and an fp32 query's bits depend only on its
  /// coordinates, its latent and the weights. fp32 plans run the value
  /// pass, bitwise the no-grad decode() and within 1e-5 of the tape
  /// reference; bf16/int8 plans match it only within their tier's error
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
  jet::Grid grid(const Tensor& latent) const;
  void run_block(const float* latent, const float* coords, float* out,
                 std::int64_t q0, std::int64_t q1, float* arena) const;

  std::shared_ptr<const PreparedSnapshot> snap_;
  PlanKey key_;
  std::int64_t b_total_ = 0;  // N * Q
  std::int64_t out_ch_ = 0;
  // The snapshot's fp32 layers: the value pass and the derivative replay.
  std::vector<jet::Layer> jet_layers_;

  // bf16/int8 program: fixed offsets into one per-block arena.
  std::int64_t in0_ = 0;   // 3 + latent channels
  std::int64_t slab_ = 0;  // latent channel stride: LT * LZ * LX
  std::int64_t corner_delta_[8] = {};  // gather offset of corner j
  backend::PlanProgram prog_;
  std::int64_t off_in_ = 0;     // gather destination (first GEMM input)
  std::int64_t off_final_ = 0;  // last GEMM output (blend source)
  std::int64_t off_w_ = 0;      // trilinear weights, one per block row
  std::int64_t nblocks_ = 0;
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
  /// Returns nullptr when compile() does — not cached. Plans for versions
  /// older than the newest drop_stale_versions() floor are still returned
  /// (the caller holds that snapshot and the math is correct) but never
  /// (re)inserted.
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
