#include "backend/plan.h"

#include "backend/sgemm.h"
#include "common/error.h"

namespace mfn::backend {

void plan_exec_step(const PlanStep& step, std::int64_t rows, float* arena) {
  switch (step.kernel) {
    case PlanKernel::kActivation:
      step.act_fn(arena + step.out, rows * step.n);
      return;
    case PlanKernel::kGemmBf16:
      sgemm_bf16_prepacked_nt(rows, step.n, step.k, arena + step.in,
                              step.packed_b16, step.bias, arena + step.out);
      return;
    case PlanKernel::kQuantizeRows:
      quantize_rows_i16(rows, step.n, arena + step.in,
                        reinterpret_cast<std::int16_t*>(arena + step.out),
                        arena + step.aux);
      return;
    case PlanKernel::kGemmInt8:
      sgemm_int8_prepacked_nt(
          rows, step.n, step.k,
          reinterpret_cast<const std::int16_t*>(arena + step.in),
          arena + step.aux, step.packed_s8, step.dense_s8, step.col_scale,
          step.bias, step.fact, arena + step.out);
      return;
  }
  MFN_CHECK(false, "plan_exec_step: unknown kernel tag");
}

void plan_run(const PlanProgram& prog, std::int64_t rows, float* arena) {
  for (const PlanStep& step : prog.steps) plan_exec_step(step, rows, arena);
}

}  // namespace mfn::backend
