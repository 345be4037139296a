// Flat replayable kernel programs for the reduced-precision decode plans.
//
// A PlanProgram is the backend half of a bf16 or int8 DecodePlan
// (core/decode_plan.h): the per-shape compiler lowers a frozen model's
// math into a flat array of PlanStep records — reduced-precision
// prepacked GEMMs, row quantization and in-place activations over fixed
// float offsets carved from one scratch arena — and steady-state replay is
// a single loop over that array. No op-graph traversal, no shape-dependent
// dispatch beyond the kernel tag, no allocation: every operand is either a
// persistent prepacked weight (owned by a PreparedSnapshot) or an arena
// offset fixed at compile time. fp32 plans run no program: they replay the
// fused decoder kernel's value pass (core/decode_jet.h).
#pragma once

#include <cstdint>
#include <vector>

#include "backend/sgemm.h"

namespace mfn::backend {

/// Decode precision tier. fp32 runs the fused decoder kernel's value pass,
/// within 1e-5 of the tape reference decoder (tests/tape_decoder.h)
/// relative to its largest entry; bf16/int8
/// execute the reduced-precision prepacked kernels (sgemm.h) within their
/// documented error bounds.
enum class Precision : std::uint8_t { kFp32, kBf16, kInt8 };

inline const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kBf16: return "bf16";
    case Precision::kInt8: return "int8";
  }
  return "?";
}

enum class PlanKernel : std::uint8_t {
  /// In-place activation over arena[out][0 : rows * n] via `act_fn`.
  kActivation,
  /// arena[out](rows, n) = arena[in](rows, k) . W^T + bias against bf16
  /// panels in `packed_b16` (fp32 accumulate).
  kGemmBf16,
  /// Quantize arena[in](rows, n) per-row to int16-widened int8 at
  /// arena[out] (viewed as int16; rows padded to even n) with the fp32
  /// row scales at arena[aux].
  kQuantizeRows,
  /// arena[out](rows, n) = act( (q . Wq) dequantized + bias ): int8 GEMM
  /// over quantized activations at arena[in] (int16 view, row scales at
  /// arena[aux]), panels in `packed_s8` / `dense_s8` / `col_scale`, with
  /// the fused `fact` epilogue.
  kGemmInt8,
};

struct PlanStep {
  PlanKernel kernel = PlanKernel::kActivation;
  std::int64_t in = 0;   // arena float offset of the input panel
  std::int64_t out = 0;  // arena float offset of the output panel
  std::int64_t n = 0;    // output width (gemm) / row width (activation)
  std::int64_t k = 0;    // inner dimension (gemm only)
  const float* bias = nullptr;     // n-entry column bias (gemm; may be null)
  void (*act_fn)(float*, std::int64_t) = nullptr;  // activation only
  const std::uint16_t* packed_b16 = nullptr;  // bf16 panels
  const std::int16_t* packed_s8 = nullptr;    // int8 pair-interleaved panels
  const std::int8_t* dense_s8 = nullptr;      // dense (n, k) int8 weights
  const float* col_scale = nullptr;           // int8 per-column dequant
  std::int64_t aux = 0;  // arena float offset of the row-scale block
  FusedAct fact = FusedAct::kNone;  // int8 fused epilogue activation
};

struct PlanProgram {
  std::vector<PlanStep> steps;
  /// Scratch floats one replay chunk needs; the driver carves this from
  /// its thread-local workspace arena per chunk.
  std::size_t arena_floats = 0;
};

/// Execute one step against `rows` live rows. `arena` is the chunk's
/// scratch block; all step offsets index into it.
void plan_exec_step(const PlanStep& step, std::int64_t rows, float* arena);

/// Replay the whole program: a flat loop over steps.
void plan_run(const PlanProgram& prog, std::int64_t rows, float* arena);

}  // namespace mfn::backend
