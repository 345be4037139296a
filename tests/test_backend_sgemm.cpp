// Tests for the unified GEMM execution backend: sgemm against a naive
// reference across transpose variants, alpha/beta, and odd shapes; the
// A·Bᵀ dot-kernel route against the reference, the scalar oracle and
// itself across pool sizes; the Workspace arena; and conv3d
// forward/backward parity against the seed serial-batch reference path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "backend/sgemm.h"
#include "backend/simd.h"
#include "backend/workspace.h"
#include "common/rng.h"
#include "tensor/nn_kernels.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "threading/thread_pool.h"

namespace mfn {
namespace {

using backend::Trans;

// Real concurrency even on single-core hosts (runs before the first
// ThreadPool::global() touch). An explicit MFN_NUM_THREADS wins.
const bool kForcePool = [] {
  setenv("MFN_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

// Flip the runtime dispatch seam for the duration of a scope.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool v) : prev_(simd::force_scalar()) {
    simd::set_force_scalar(v);
  }
  ~ScopedForceScalar() { simd::set_force_scalar(prev_); }

 private:
  bool prev_;
};

// Reference C = alpha * op(A) * op(B) + beta * C in double precision.
void ref_gemm(Trans ta, Trans tb, std::int64_t M, std::int64_t N,
              std::int64_t K, float alpha, const std::vector<float>& A,
              const std::vector<float>& B, float beta, std::vector<float>& C) {
  for (std::int64_t i = 0; i < M; ++i)
    for (std::int64_t j = 0; j < N; ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < K; ++k) {
        const float a = ta == Trans::kNo ? A[static_cast<std::size_t>(i * K + k)]
                                         : A[static_cast<std::size_t>(k * M + i)];
        const float b = tb == Trans::kNo ? B[static_cast<std::size_t>(k * N + j)]
                                         : B[static_cast<std::size_t>(j * K + k)];
        acc += static_cast<double>(a) * b;
      }
      float& c = C[static_cast<std::size_t>(i * N + j)];
      c = static_cast<float>(alpha * acc +
                             (beta == 0.0f ? 0.0 : static_cast<double>(beta) * c));
    }
}

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void expect_close(const std::vector<float>& got, const std::vector<float>& want,
                  float tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float t = tol * (1.0f + std::fabs(want[i]));
    ASSERT_NEAR(got[i], want[i], t) << "at flat index " << i;
  }
}

// The tolerance of every product check: 1e-5 relative, widened with K.
float gemm_tol(std::int64_t K) {
  return 1e-5f * static_cast<float>(std::max<std::int64_t>(1, K / 64));
}

void check_case(Trans ta, Trans tb, std::int64_t M, std::int64_t N,
                std::int64_t K, float alpha, float beta, unsigned seed) {
  Rng rng(seed);
  auto A = random_vec(static_cast<std::size_t>(M * K), rng);
  auto B = random_vec(static_cast<std::size_t>(K * N), rng);
  auto C0 = random_vec(static_cast<std::size_t>(M * N), rng);
  auto got = C0;
  auto want = C0;
  backend::sgemm(ta, tb, M, N, K, alpha, A.data(), B.data(), beta, got.data());
  ref_gemm(ta, tb, M, N, K, alpha, A, B, beta, want);
  expect_close(got, want, gemm_tol(K));
}

TEST(Sgemm, AllTransposeVariants) {
  unsigned seed = 1;
  for (Trans ta : {Trans::kNo, Trans::kYes})
    for (Trans tb : {Trans::kNo, Trans::kYes})
      check_case(ta, tb, 33, 47, 29, 1.0f, 0.0f, seed++);
}

TEST(Sgemm, AlphaBetaCombos) {
  unsigned seed = 10;
  for (float alpha : {0.0f, 1.0f, -0.5f, 2.25f})
    for (float beta : {0.0f, 1.0f, -1.5f})
      check_case(Trans::kNo, Trans::kNo, 21, 35, 18, alpha, beta, seed++);
}

TEST(Sgemm, OddAndBlockedSizes) {
  unsigned seed = 40;
  // Shapes straddling the microkernel/block boundaries and the small-path
  // threshold, including vector-like edge cases.
  const std::int64_t sizes[][3] = {
      {1, 1, 1},   {1, 64, 64},  {64, 1, 64},  {64, 64, 1},  {7, 5, 3},
      {17, 19, 23}, {128, 96, 64}, {100, 100, 300}, {65, 129, 257},
      {6, 16, 256}, {8, 32, 512}, {250, 3, 40}, {3, 250, 40}};
  for (const auto& s : sizes)
    check_case(Trans::kNo, Trans::kNo, s[0], s[1], s[2], 1.0f, 0.0f, seed++);
  for (const auto& s : sizes)
    check_case(Trans::kYes, Trans::kYes, s[0], s[1], s[2], 1.0f, 1.0f, seed++);
}

void check_bias_case(bool rows, std::int64_t M, std::int64_t N, std::int64_t K,
                     float beta, unsigned seed) {
  Rng rng(seed);
  auto A = random_vec(static_cast<std::size_t>(M * K), rng);
  auto B = random_vec(static_cast<std::size_t>(K * N), rng);
  auto bias = random_vec(static_cast<std::size_t>(rows ? M : N), rng);
  auto got = random_vec(static_cast<std::size_t>(M * N), rng);
  auto want = got;
  if (rows) {
    backend::sgemm_bias_rows(Trans::kNo, Trans::kNo, M, N, K, 1.0f, A.data(),
                             B.data(), beta, bias.data(), got.data());
  } else {
    backend::sgemm_bias_cols(Trans::kNo, Trans::kNo, M, N, K, 1.0f, A.data(),
                             B.data(), beta, bias.data(), got.data());
  }
  ref_gemm(Trans::kNo, Trans::kNo, M, N, K, 1.0f, A, B, beta, want);
  for (std::int64_t i = 0; i < M; ++i)
    for (std::int64_t j = 0; j < N; ++j)
      want[static_cast<std::size_t>(i * N + j)] +=
          bias[static_cast<std::size_t>(rows ? i : j)];
  expect_close(got, want, gemm_tol(K));
}

TEST(Sgemm, FusedBiasEpilogues) {
  unsigned seed = 200;
  for (bool rows : {true, false})
    for (float beta : {0.0f, 1.0f}) {
      // small path, short-M path, packed path
      check_bias_case(rows, 5, 7, 6, beta, seed++);
      check_bias_case(rows, 16, 200, 96, beta, seed++);
      check_bias_case(rows, 96, 112, 80, beta, seed++);
      // row-parallel skinny-N path
      check_bias_case(rows, 300, 3, 64, beta, seed++);
    }
}

TEST(Sgemm, FusedBiasAppliedOncePerMultiKBlockProduct) {
  // K > 512 forces several k-blocks in the packed path; the bias epilogue
  // must fire exactly once (on the final block), not per block.
  check_bias_case(/*rows=*/true, 96, 112, 1200, 0.0f, 300);
  check_bias_case(/*rows=*/false, 96, 112, 1200, 1.0f, 301);
}

TEST(Sgemm, LargeKAccumulatesOverMultipleBlocks) {
  // K > KC (256) exercises the multi-k-block beta handling.
  check_case(Trans::kNo, Trans::kNo, 40, 48, 700, 1.0f, 0.0f, 99);
  check_case(Trans::kNo, Trans::kYes, 40, 48, 700, 0.5f, 1.0f, 100);
}

TEST(Sgemm, BetaZeroOverwritesGarbage) {
  // beta == 0 must fully overwrite C, even NaN (C treated as uninitialized),
  // on the blocked path and on the A·Bᵀ dot-kernel route.
  const std::int64_t W = simd::kWidth;
  struct Case {
    Trans tb;
    std::int64_t M, N, K;
  };
  const Case cases[] = {{Trans::kNo, 30, 40, 50},
                        {Trans::kYes, 5, 27, W + 1},
                        {Trans::kYes, 16, 108, 257},
                        {Trans::kYes, 3, 432, 2 * W + 3},
                        {Trans::kYes, 17, 4, 64}};
  unsigned seed = 7;
  for (const Case& c : cases) {
    Rng rng(seed++);
    auto A = random_vec(static_cast<std::size_t>(c.M * c.K), rng);
    auto B = random_vec(static_cast<std::size_t>(c.K * c.N), rng);
    std::vector<float> got(static_cast<std::size_t>(c.M * c.N),
                           std::numeric_limits<float>::quiet_NaN());
    std::vector<float> want(static_cast<std::size_t>(c.M * c.N), 0.0f);
    backend::sgemm(Trans::kNo, c.tb, c.M, c.N, c.K, 1.0f, A.data(), B.data(),
                   0.0f, got.data());
    ref_gemm(Trans::kNo, c.tb, c.M, c.N, c.K, 1.0f, A, B, 0.0f, want);
    SCOPED_TRACE(::testing::Message() << "M " << c.M << " N " << c.N << " K "
                                      << c.K);
    expect_close(got, want, gemm_tol(c.K));
  }
}

// ------------------------------------------ A·Bᵀ dot-kernel route ----
// On the vector tiers, sgemm(kNo, kYes) with K of at least one vector and
// a small product or a short M (conv3d's weight gradients) sums each
// output along K in vector lanes. The sweep straddles the route's edges:
// K around one and two vectors, M around the kernel's row block and the
// short-M bound, N ragged against the column block, and large-M products
// that keep the packed path.

std::vector<std::int64_t> dot_route_ks() {
  const std::int64_t W = simd::kWidth;
  std::vector<std::int64_t> ks;
  for (const std::int64_t k : {std::int64_t{1}, W - 1, W, W + 1, 2 * W + 3,
                               std::int64_t{64}, std::int64_t{256},
                               std::int64_t{257}})
    if (k >= 1 && std::find(ks.begin(), ks.end(), k) == ks.end())
      ks.push_back(k);
  return ks;
}

// C = alpha * A·Bᵀ + beta * C0 on the configured tier.
std::vector<float> run_nt(std::int64_t M, std::int64_t N, std::int64_t K,
                          float alpha, const std::vector<float>& A,
                          const std::vector<float>& B, float beta,
                          std::vector<float> C) {
  backend::sgemm(Trans::kNo, Trans::kYes, M, N, K, alpha, A.data(), B.data(),
                 beta, C.data());
  return C;
}

TEST(SgemmDotRoute, ShapeSweepMatchesReferenceAndScalarOracle) {
  const std::pair<float, float> alpha_beta[] = {
      {1.0f, 0.0f}, {-0.5f, 1.0f}, {2.25f, -1.5f}, {1.0f, 1.0f}};
  unsigned seed = 500;
  int combo = 0;
  for (const std::int64_t M : {1, 3, 4, 5, 8, 16, 17})
    for (const std::int64_t N : {1, 4, 27, 108, 432})
      for (const std::int64_t K : dot_route_ks()) {
        const auto [alpha, beta] = alpha_beta[combo++ % 4];
        Rng rng(seed++);
        const auto A = random_vec(static_cast<std::size_t>(M * K), rng);
        const auto B = random_vec(static_cast<std::size_t>(N * K), rng);
        const auto C0 = random_vec(static_cast<std::size_t>(M * N), rng);
        SCOPED_TRACE(::testing::Message() << "M " << M << " N " << N << " K "
                                          << K << " alpha " << alpha
                                          << " beta " << beta);
        const std::vector<float> got = run_nt(M, N, K, alpha, A, B, beta, C0);
        std::vector<float> want = C0;
        ref_gemm(Trans::kNo, Trans::kYes, M, N, K, alpha, A, B, beta, want);
        expect_close(got, want, gemm_tol(K));
        ScopedForceScalar scalar(true);
        expect_close(got, run_nt(M, N, K, alpha, A, B, beta, C0),
                     gemm_tol(K));
      }
}

TEST(SgemmDotRoute, FusedEpilogues) {
  const std::int64_t W = simd::kWidth;
  const std::int64_t shapes[][3] = {
      {4, 27, 64}, {5, 108, W + 1}, {16, 4, 256}, {3, 432, 257}};
  unsigned seed = 950;
  for (const auto& s : shapes)
    for (const float beta : {0.0f, 1.0f}) {
      const std::int64_t M = s[0], N = s[1], K = s[2];
      Rng rng(seed++);
      const auto A = random_vec(static_cast<std::size_t>(M * K), rng);
      const auto B = random_vec(static_cast<std::size_t>(N * K), rng);
      const auto rs = random_vec(static_cast<std::size_t>(M), rng);
      const auto rb = random_vec(static_cast<std::size_t>(M), rng);
      const auto cb = random_vec(static_cast<std::size_t>(N), rng);
      const auto C0 = random_vec(static_cast<std::size_t>(M * N), rng);
      backend::SgemmEpilogue ep;
      ep.row_scale = rs.data();
      ep.row_bias = rb.data();
      ep.col_bias = cb.data();
      ep.act = backend::Act::kRelu;
      std::vector<float> got = C0;
      backend::sgemm_ep(Trans::kNo, Trans::kYes, M, N, K, 0.75f, A.data(),
                        B.data(), beta, got.data(), ep);
      std::vector<float> want = C0;
      ref_gemm(Trans::kNo, Trans::kYes, M, N, K, 0.75f, A, B, beta, want);
      for (std::int64_t i = 0; i < M; ++i)
        for (std::int64_t j = 0; j < N; ++j) {
          float& w = want[static_cast<std::size_t>(i * N + j)];
          w = std::max(rs[static_cast<std::size_t>(i)] * w +
                           rb[static_cast<std::size_t>(i)] +
                           cb[static_cast<std::size_t>(j)],
                       0.0f);
        }
      SCOPED_TRACE(::testing::Message() << "M " << M << " N " << N << " K "
                                        << K << " beta " << beta);
      expect_close(got, want, gemm_tol(K));
    }
}

// An un-nested call splits its column blocks over the pool; each output
// is still summed by one thread in one order, so the bits match the
// inline run's.
TEST(SgemmDotRoute, PooledCallIsBitwiseInlineCall) {
  ASSERT_GE(ThreadPool::global().size(), 2) << "needs a multi-thread pool";
  const std::int64_t shapes[][3] = {{4, 4096, 256}, {16, 1003, 257},
                                    {7, 2000, 64}};
  unsigned seed = 990;
  for (const auto& s : shapes) {
    const std::int64_t M = s[0], N = s[1], K = s[2];
    Rng rng(seed++);
    const auto A = random_vec(static_cast<std::size_t>(M * K), rng);
    const auto B = random_vec(static_cast<std::size_t>(N * K), rng);
    const std::vector<float> C0(static_cast<std::size_t>(M * N), 0.0f);
    std::vector<float> serial;
    {
      ScopedInlineLoops inline_loops;
      serial = run_nt(M, N, K, 1.0f, A, B, 0.0f, C0);
    }
    for (int rep = 0; rep < 3; ++rep) {
      const std::vector<float> pooled = run_nt(M, N, K, 1.0f, A, B, 0.0f, C0);
      EXPECT_EQ(std::memcmp(pooled.data(), serial.data(),
                            serial.size() * sizeof(float)),
                0)
          << "M " << M << " N " << N << " K " << K << " repeat " << rep;
    }
  }
}

TEST(Sgemm, MatchesMatmulFamilyDispatch) {
  Rng rng(11);
  Tensor a = Tensor::randn(Shape{37, 53}, rng);
  Tensor b = Tensor::randn(Shape{53, 41}, rng);
  Tensor c = matmul(a, b);
  Tensor c_tn = matmul_tn(transpose2d(a), b);
  Tensor c_nt = matmul_nt(a, transpose2d(b));
  EXPECT_TRUE(allclose(c, c_tn, 1e-4f, 1e-4f));
  EXPECT_TRUE(allclose(c, c_nt, 1e-4f, 1e-4f));
}

TEST(Workspace, MarkReleaseReusesCapacity) {
  backend::Workspace ws;
  const auto m0 = ws.mark();
  float* a = ws.alloc(1000);
  float* b = ws.alloc(2000);
  EXPECT_NE(a, b);
  a[999] = 1.0f;
  b[1999] = 2.0f;  // distinct, writable
  const std::size_t cap = ws.capacity();
  ws.release(m0);
  float* a2 = ws.alloc(1000);
  EXPECT_EQ(a, a2);             // same storage handed back
  EXPECT_EQ(ws.capacity(), cap);  // no growth on reuse
}

TEST(Workspace, EarlierAllocationsSurviveGrowth) {
  backend::Workspace ws;
  float* small = ws.alloc(16);
  small[0] = 42.0f;
  // Force many chunk growths; `small` must stay valid (chunks never move).
  for (int i = 0; i < 8; ++i) ws.alloc(1u << (16 + i));
  EXPECT_EQ(small[0], 42.0f);
}

// ------------------------------------------------------- conv3d parity --

struct ConvCase {
  std::int64_t N, C, F, D, H, W;
  Conv3dSpec spec;
  bool bias;
};

void check_conv_parity(const ConvCase& cc, unsigned seed) {
  Rng rng(seed);
  Tensor x = Tensor::randn(Shape{cc.N, cc.C, cc.D, cc.H, cc.W}, rng);
  Tensor w = Tensor::randn(Shape{cc.F, cc.C, cc.spec.kernel[0],
                                 cc.spec.kernel[1], cc.spec.kernel[2]},
                           rng, 0.3f);
  Tensor b = cc.bias ? Tensor::randn(Shape{cc.F}, rng) : Tensor();

  Tensor y = conv3d_forward(x, w, b, cc.spec);
  Tensor y_ref = conv3d_forward_reference(x, w, b, cc.spec);
  ASSERT_TRUE(y.shape() == y_ref.shape());
  EXPECT_TRUE(allclose(y, y_ref, 1e-5f, 1e-5f))
      << "forward mismatch, max |diff| = "
      << max_abs(sub(y, y_ref));

  Tensor gy = Tensor::randn(y.shape(), rng);
  Conv3dGrads g = conv3d_backward(x, w, cc.bias, cc.spec, gy);
  Conv3dGrads g_ref = conv3d_backward_reference(x, w, cc.bias, cc.spec, gy);
  EXPECT_TRUE(allclose(g.gx, g_ref.gx, 1e-5f, 1e-4f))
      << "gx mismatch, max |diff| = " << max_abs(sub(g.gx, g_ref.gx));
  EXPECT_TRUE(allclose(g.gweight, g_ref.gweight, 1e-5f, 1e-4f))
      << "gweight mismatch, max |diff| = "
      << max_abs(sub(g.gweight, g_ref.gweight));
  if (cc.bias) {
    EXPECT_TRUE(allclose(g.gbias, g_ref.gbias, 1e-5f, 1e-4f))
        << "gbias mismatch";
  } else {
    EXPECT_FALSE(g.gbias.defined());
  }
}

TEST(Conv3dBackendParity, StridePaddingBiasSweep) {
  unsigned seed = 123;
  std::vector<ConvCase> cases = {
      // batch > 1 exercises the batch-parallel path
      {4, 3, 5, 4, 6, 6, {{3, 3, 3}, {1, 1, 1}, {1, 1, 1}}, true},
      {4, 3, 5, 4, 6, 6, {{3, 3, 3}, {1, 1, 1}, {1, 1, 1}}, false},
      // stride 2 with padding
      {3, 2, 4, 5, 7, 7, {{3, 3, 3}, {2, 2, 2}, {1, 1, 1}}, true},
      // no padding, kernel 1 (pure pointwise GEMM)
      {2, 4, 6, 3, 5, 5, {{1, 1, 1}, {1, 1, 1}, {0, 0, 0}}, true},
      // anisotropic kernel/stride/padding
      {2, 3, 4, 6, 8, 8, {{1, 3, 3}, {1, 2, 2}, {0, 1, 1}}, true},
      // single sample (GEMM-internal parallel path)
      {1, 8, 8, 4, 8, 8, {{3, 3, 3}, {1, 1, 1}, {1, 1, 1}}, true},
      // wide channels so CK crosses one k-block
      {2, 16, 12, 3, 6, 6, {{3, 3, 3}, {1, 1, 1}, {1, 1, 1}}, true},
      // kernel 5: same-size conv with |w-shift| > 1 (generic row path)
      {2, 3, 4, 6, 7, 7, {{5, 5, 5}, {1, 1, 1}, {2, 2, 2}}, true},
  };
  for (const auto& cc : cases) check_conv_parity(cc, seed++);
}

}  // namespace
}  // namespace mfn
