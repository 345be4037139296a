#include "core/decode_jet.h"

#include <type_traits>

#include "backend/simd.h"
#include "backend/workspace.h"
#include "tensor/tensor_ops.h"
#include "threading/thread_pool.h"

namespace mfn::core {
namespace jet {
namespace {

using nn::Activation;

constexpr int kStreams = 6;  // value, t/z/x tangents, z/x curvatures
constexpr int kRows = 8;     // rows per tile: one query's 8 corners

// Activation derivatives the backward keeps per row of an S-stream pass:
// f' for the value pass, f', f'', f''' for the jet.
template <int S>
constexpr int kDerivs = S == 1 ? 1 : 3;

// ------------------------------------------------------------ lane types --
// Every kernel below is written once over a lane type: simd::VF on the
// vector tiers, or single floats on the scalar reference path, whose
// transcendentals are the tensor_ops scalar references. simd::enabled()
// picks one per call. Lanes run along a layer's features; kRegs (the
// tier's register count) sizes the register tiles.

inline simd::VF operator+(simd::VF a, simd::VF b) { return simd::vadd(a, b); }
inline simd::VF operator-(simd::VF a, simd::VF b) { return simd::vsub(a, b); }
inline simd::VF operator*(simd::VF a, simd::VF b) { return simd::vmul(a, b); }

struct VecLanes {
  using V = simd::VF;
  static constexpr std::int64_t kWidth = simd::kWidth;
  static constexpr int kRegs = simd::kWidth >= 16 ? 32 : 16;
  static V load(const float* p) { return simd::vloadu(p); }
  static void store(float* p, V v) { simd::vstoreu(p, v); }
  static V set1(float x) { return simd::vset1(x); }
  static V fma(V a, V b, V c) { return simd::vfma(a, b, c); }
  // Softplus of z from e = exp(-|z|).
  static V softplus(V z, V e) {
    return simd::vmax(z, simd::vzero()) + simd::v_log1p(e);
  }
  // f at z, the same arithmetic as derivs' f.
  template <Activation A>
  static V act(V z) {
    if constexpr (A == Activation::kSoftplus)
      return softplus(z, simd::v_exp(simd::vneg(simd::vabs(z))));
    else if constexpr (A == Activation::kTanh)
      return simd::v_tanh(z);
    else
      return simd::vmax(z, simd::vzero());
  }
  // f, f', f'', f''' at z. Softplus shares one exp(-|z|) between the
  // v_softplus and v_sigmoid formulas, so f and f' equal those kernels'.
  template <Activation A>
  static void derivs(V z, V& f, V& d1, V& d2, V& d3) {
    const V one = simd::vset1(1.0f);
    if constexpr (A == Activation::kSoftplus) {
      const V e = simd::v_exp(simd::vneg(simd::vabs(z)));
      f = softplus(z, e);
      const V s = simd::vdiv(e, one + e);
      d1 = simd::vselect(simd::vcmp_ge(z, simd::vzero()), one - s, s);
      d2 = d1 * (one - d1);
      d3 = d2 * (one - (d1 + d1));
    } else if constexpr (A == Activation::kTanh) {
      f = act<A>(z);
      d1 = one - f * f;
      d2 = simd::vset1(-2.0f) * f * d1;
      d3 = d1 * (simd::vset1(6.0f) * f * f - simd::vset1(2.0f));
    } else {
      const V zero = simd::vzero();
      f = act<A>(z);
      d1 = simd::vselect(simd::vcmp_gt(z, zero), one, zero);
      d2 = zero;
      d3 = zero;
    }
  }
};

struct ScalarLanes {
  using V = float;
  static constexpr std::int64_t kWidth = 1;
  static constexpr int kRegs = 16;
  static V load(const float* p) { return *p; }
  static void store(float* p, V v) { *p = v; }
  static V set1(float x) { return x; }
  static V fma(V a, V b, V c) { return a * b + c; }
  template <Activation A>
  static V act(V z) {
    V f;
    if constexpr (A == Activation::kSoftplus)
      scalar_ref::softplus(&z, &f, 1);
    else if constexpr (A == Activation::kTanh)
      scalar_ref::tanh(&z, &f, 1);
    else
      f = z > 0.0f ? z : 0.0f;
    return f;
  }
  template <Activation A>
  static void derivs(V z, V& f, V& d1, V& d2, V& d3) {
    f = act<A>(z);
    if constexpr (A == Activation::kSoftplus) {
      scalar_ref::sigmoid(&z, &d1, 1);
      d2 = d1 * (1.0f - d1);
      d3 = d2 * (1.0f - (d1 + d1));
    } else if constexpr (A == Activation::kTanh) {
      d1 = 1.0f - f * f;
      d2 = -2.0f * f * d1;
      d3 = d1 * (6.0f * f * f - 2.0f);
    } else {
      d1 = z > 0.0f ? 1.0f : 0.0f;
      d2 = 0.0f;
      d3 = 0.0f;
    }
  }
};

// Calls f(lanes, tag) with VecLanes when `vec`, else ScalarLanes, and
// `act` as the compile-time constant decltype(tag)::value.
template <class F>
void dispatch(bool vec, Activation act, F&& f) {
  auto with = [&](auto tag) {
    if (vec)
      f(VecLanes{}, tag);
    else
      f(ScalarLanes{}, tag);
  };
  switch (act) {
    case Activation::kSoftplus:
      with(std::integral_constant<Activation, Activation::kSoftplus>{});
      break;
    case Activation::kTanh:
      with(std::integral_constant<Activation, Activation::kTanh>{});
      break;
    case Activation::kReLU:
      with(std::integral_constant<Activation, Activation::kReLU>{});
      break;
  }
}

// ------------------------------------------------------------ tile layout --
// A tile is one query's 8 corner rows (row j = corner j). A layer's
// activations in a tile are row-major with the features padded to whole
// column panels: stream m of row r starts at (r * S + m) * ld for S
// streams (1 for the layer-0 input and the value pass, 6 for a jet).

// Column tiling of a width: panels of np vectors (two when the width
// exceeds one vector), ld = padded width. Padding lanes hold finite
// values that no later pass reads back into a real lane.
struct Cols {
  int np = 1;
  std::int64_t panels = 0, ld = 0;
};

template <class P>
Cols cols(std::int64_t n) {
  Cols c;
  c.np = n > P::kWidth ? 2 : 1;
  const std::int64_t pw = c.np * P::kWidth;
  c.panels = (n + pw - 1) / pw;
  c.ld = c.panels * pw;
  return c;
}

// Calls f(std::integral_constant<int, np>) for np in {1, 2}.
template <class F>
void with_np(int np, F&& f) {
  if (np == 2)
    f(std::integral_constant<int, 2>{});
  else
    f(std::integral_constant<int, 1>{});
}

// Column panels of the n x kk matrix M(i, j) = at(i, j) over i: panel p
// holds kk rows of pw = np * W consecutive i, at
// (p * kk + j) * pw + i', zero past n. One per layer and direction per
// call, small enough to stay in L1 while a tile walks the layer.
template <class P, class At>
float* pack_panels(std::int64_t n, std::int64_t kk, At&& at,
                   backend::Workspace& ws) {
  const Cols c = cols<P>(n);
  const std::int64_t pw = c.np * P::kWidth;
  float* p = ws.alloc(static_cast<std::size_t>(c.panels * kk * pw));
  for (std::int64_t t = 0; t < c.panels; ++t)
    for (std::int64_t j = 0; j < kk; ++j)
      for (std::int64_t i = 0; i < pw; ++i) {
        const std::int64_t col = t * pw + i;
        p[(t * kk + j) * pw + i] = col < n ? at(col, j) : 0.0f;
      }
  return p;
}

// n floats of src (or zeros with a null src) padded with zeros to ld.
float* padded(const float* src, std::int64_t n, std::int64_t ld,
              backend::Workspace& ws) {
  float* p = ws.alloc(static_cast<std::size_t>(ld));
  for (std::int64_t i = 0; i < ld; ++i)
    p[i] = src != nullptr && i < n ? src[i] : 0.0f;
  return p;
}

// The per-call weights: every layer's panels, padded biases, and layer 0's
// coordinate columns wc[k * ld0 + o] = W0(o, k), k in {t, z, x}.
struct Net {
  std::vector<Layer> layers;
  std::vector<const float*> fwd, bwd, bias;
  const float* wc = nullptr;
};

// fwd: panels over each layer's outputs (column o of M is W's row o).
// bwd (with `backward`): panels over each layer's inputs (W^T), layer 0's
// over its latent columns only, which are what the input adjoint is kept
// for.
template <class P>
Net make_net(const std::vector<Layer>& layers, bool backward,
             backend::Workspace& ws) {
  Net net{layers, {}, {}, {}, nullptr};
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const Layer& ly = layers[l];
    net.fwd.push_back(pack_panels<P>(
        ly.out, ly.in,
        [&ly](std::int64_t o, std::int64_t k) {
          return ly.weight[o * ly.in + k];
        },
        ws));
    if (backward) {
      const std::int64_t k0 = l == 0 ? 3 : 0;
      net.bwd.push_back(pack_panels<P>(
          ly.in - k0, ly.out,
          [&ly, k0](std::int64_t k, std::int64_t o) {
            return ly.weight[o * ly.in + k0 + k];
          },
          ws));
    }
    net.bias.push_back(padded(ly.bias, ly.out, cols<P>(ly.out).ld, ws));
  }
  const Layer& l0 = layers.front();
  const std::int64_t ld0 = cols<P>(l0.out).ld;
  float* wc = ws.alloc(static_cast<std::size_t>(3 * ld0));
  for (int k = 0; k < 3; ++k)
    for (std::int64_t o = 0; o < ld0; ++o)
      wc[k * ld0 + o] = o < l0.out ? l0.weight[o * l0.in + k] : 0.0f;
  net.wc = wc;
  return net;
}

// ---------------------------------------------------------- tile kernels --

// One register tile of a layer product: R rows x S streams x NP vectors,
// acc[r][m][v] = sum over k < n of src(r, m, k) * panel(k, v), the source
// entries broadcast against the panel's vectors. src(r, m, k) is at
// src + r * ldr + m * lds + k.
template <class P, int R, int S, int NP>
inline void product(const float* src, std::int64_t ldr, std::int64_t lds,
                    std::int64_t n, const float* panel,
                    typename P::V (&acc)[R][S][NP]) {
  using V = typename P::V;
  constexpr std::int64_t W = P::kWidth;
  for (int r = 0; r < R; ++r)
    for (int m = 0; m < S; ++m)
      for (int v = 0; v < NP; ++v) acc[r][m][v] = P::set1(0.0f);
  for (std::int64_t k = 0; k < n; ++k) {
    V w[NP];
    for (int v = 0; v < NP; ++v) w[v] = P::load(panel + (k * NP + v) * W);
    for (int r = 0; r < R; ++r)
      for (int m = 0; m < S; ++m) {
        const V a = P::set1(src[r * ldr + m * lds + k]);
        for (int v = 0; v < NP; ++v) acc[r][m][v] = P::fma(a, w[v], acc[r][m][v]);
      }
  }
}

// Rows of a register tile acc[R][S][NP].
template <class T, int R, int S, int NP>
constexpr int rows_of(const T (&)[R][S][NP]) {
  return R;
}

// Rows per register tile of an S-stream product with NP-vector panels:
// R * S * NP accumulators fill about three quarters of the registers.
template <class P, int S, int NP>
constexpr int tile_rows() {
  constexpr int budget = P::kRegs * 3 / 4;
  constexpr int r = budget / (S * NP);
  return r >= 8 ? 8 : r >= 4 ? 4 : r >= 2 ? 2 : 1;
}

// A layer pass: for every column panel and every R-row register tile of
// `rows` rows, the product of the S-stream source (row stride S * lds,
// stream stride lds, n inputs) with the panel, handed to wb(r0, c0, acc)
// for the write-back of rows r0.. and columns c0...
template <class P, int S, int NP, int R = tile_rows<P, S, NP>(), class WB>
void layer_pass(const float* src, std::int64_t lds, int rows, std::int64_t n,
                const float* panels, std::int64_t npanels, WB&& wb) {
  constexpr std::int64_t pw = NP * P::kWidth;
  static_assert(kRows % R == 0, "register tiles cover the tile's rows");
  for (std::int64_t p = 0; p < npanels; ++p)
    for (int r0 = 0; r0 < rows; r0 += R) {
      typename P::V acc[R][S][NP];
      product<P, R, S, NP>(src + r0 * S * lds, S * lds, lds, n,
                           panels + p * n * pw, acc);
      wb(r0, p * pw, acc);
    }
}

// Weight-gradient partial: acc(o, k) += sum over rows and streams of
// zbar(r, m, o) h(r, m, k), for an out x in layer whose output adjoint
// zbar (stream stride ldz) and input h (stream stride ldh, padded to whole
// panels) hold `rows` rows of S streams; acc rows are ldh apart. Register
// tiles of NO outputs x NP vectors stay in registers over all rank-1
// updates.
template <class P, int S, int NO, int NP>
inline void wgrad_tile(const float* zbar, std::int64_t ldz, const float* h,
                       std::int64_t ldh, int rows, std::int64_t o0,
                       std::int64_t c0, float* acc) {
  using V = typename P::V;
  constexpr std::int64_t W = P::kWidth;
  V a[NO][NP];
  for (int i = 0; i < NO; ++i)
    for (int v = 0; v < NP; ++v)
      a[i][v] = P::load(acc + (o0 + i) * ldh + c0 + v * W);
  for (int r = 0; r < rows * S; ++r) {  // row r / S, stream r % S
    V hv[NP];
    for (int v = 0; v < NP; ++v) hv[v] = P::load(h + r * ldh + c0 + v * W);
    for (int i = 0; i < NO; ++i) {
      const V z = P::set1(zbar[r * ldz + o0 + i]);
      for (int v = 0; v < NP; ++v) a[i][v] = P::fma(z, hv[v], a[i][v]);
    }
  }
  for (int i = 0; i < NO; ++i)
    for (int v = 0; v < NP; ++v)
      P::store(acc + (o0 + i) * ldh + c0 + v * W, a[i][v]);
}

template <class P, int S>
void wgrad(const float* zbar, std::int64_t ldz, std::int64_t out,
           const float* h, std::int64_t in, int rows, float* acc) {
  const Cols c = cols<P>(in);
  with_np(c.np, [&](auto np) {
    constexpr int NP = decltype(np)::value;
    constexpr int NO = P::kRegs / 2 / NP;
    for (std::int64_t p = 0; p < c.panels; ++p) {
      const std::int64_t c0 = p * NP * P::kWidth;
      std::int64_t o = 0;
      for (; o + NO <= out; o += NO)
        wgrad_tile<P, S, NO, NP>(zbar, ldz, h, c.ld, rows, o, c0, acc);
      for (; o < out; ++o)
        wgrad_tile<P, S, 1, NP>(zbar, ldz, h, c.ld, rows, o, c0, acc);
    }
  });
}

// acc[c] += the sum over `rows` rows of src(r, c), stream 0 of an S-stream
// set of stream stride ld: a bias gradient.
template <class P>
void row_sums(const float* src, int S, std::int64_t ld, int rows,
              float* acc) {
  for (std::int64_t c = 0; c < ld; c += P::kWidth) {
    typename P::V a = P::load(acc + c);
    for (int r = 0; r < rows; ++r) a = a + P::load(src + r * S * ld + c);
    P::store(acc + c, a);
  }
}

// The value activation h = f(z). With Save, also stores f' at d for the
// backward.
template <class P, Activation A, bool Save>
inline void act_value(typename P::V z, float* h, float* d) {
  if constexpr (Save) {
    typename P::V f{}, d1{}, d2{}, d3{};
    P::template derivs<A>(z, f, d1, d2, d3);
    P::store(h, f);
    P::store(d, d1);
  } else {
    P::store(h, P::template act<A>(z));
  }
}

// The jet activation of pre-activation jet z into h (stream m at m * ss):
// h = f(z), t = f' tau, c = f'' tau^2 + f' kappa. With d, also stores
// f', f'', f''' there (derivative e at e * ss) for the backward.
template <class P, Activation A>
inline void act_jet(const typename P::V (&z)[kStreams], float* h,
                    std::int64_t ss, float* d) {
  using V = typename P::V;
  V f{}, d1{}, d2{}, d3{};
  P::template derivs<A>(z[0], f, d1, d2, d3);
  P::store(h, f);
  P::store(h + ss, d1 * z[1]);
  P::store(h + 2 * ss, d1 * z[2]);
  P::store(h + 3 * ss, d1 * z[3]);
  P::store(h + 4 * ss, d2 * (z[2] * z[2]) + d1 * z[4]);
  P::store(h + 5 * ss, d2 * (z[3] * z[3]) + d1 * z[5]);
  if (d == nullptr) return;
  P::store(d, d1);
  P::store(d + ss, d2);
  P::store(d + 2 * ss, d3);
}

// Layer 0's pre-activation jet at columns c..: the value z, and W0's
// coordinate columns as tangents (the seeds fold away), zero curvatures.
template <class P>
inline void layer0_jet(typename P::V z, const float* wc, std::int64_t ld0,
                       typename P::V (&j)[kStreams]) {
  j[0] = z;
  for (int k = 0; k < 3; ++k) j[1 + k] = P::load(wc + k * ld0);
  j[4] = j[5] = P::set1(0.0f);
}

// The trilinear blend of a tile's 8 corner jets h (S streams of stride
// ld) into S members m (member stride ld):
//   value = sum w h, d/dk = sum dw_k h + w t_k,
//   d2/dk2 = sum 2 dw_k t_k + w c_k.
// The output layer is linear, so blending its input and projecting once
// per query equals projecting each corner and blending the outputs.
template <class P, int S>
void blend(const float* h, std::int64_t ld, const float* geo, float* m) {
  using V = typename P::V;
  for (std::int64_t c = 0; c < ld; c += P::kWidth) {
    V acc[S];
    for (V& a : acc) a = P::set1(0.0f);
    for (int j = 0; j < kRows; ++j) {
      const V w = P::set1(geo[4 * j]);
      V y[S];
      for (int s = 0; s < S; ++s) y[s] = P::load(h + (j * S + s) * ld + c);
      acc[kValue] = acc[kValue] + w * y[0];
      if constexpr (S == kStreams) {
        const V two = P::set1(2.0f), dt = P::set1(geo[4 * j + 1]),
                dz = P::set1(geo[4 * j + 2]), dx = P::set1(geo[4 * j + 3]);
        acc[kDt] = acc[kDt] + (dt * y[0] + w * y[1]);
        acc[kDz] = acc[kDz] + (dz * y[0] + w * y[2]);
        acc[kDx] = acc[kDx] + (dx * y[0] + w * y[3]);
        acc[kDzz] = acc[kDzz] + (two * dz * y[2] + w * y[4]);
        acc[kDxx] = acc[kDxx] + (two * dx * y[3] + w * y[5]);
      }
    }
    for (int s = 0; s < S; ++s) P::store(m + s * ld + c, acc[s]);
  }
}

// Blend adjoint at corner j (weights geo): the adjoint hb of the corner's
// S streams from the S members' adjoint mb.
template <class P, int S>
inline void blend_adjoint(const typename P::V (&mb)[S], const float* geo,
                          typename P::V (&hb)[S]) {
  using V = typename P::V;
  const V w = P::set1(geo[0]);
  if constexpr (S == 1) {
    hb[0] = w * mb[kValue];
  } else {
    const V two = P::set1(2.0f);
    const V dt = P::set1(geo[1]), dz = P::set1(geo[2]), dx = P::set1(geo[3]);
    hb[0] = w * mb[kValue] + dt * mb[kDt] + dz * mb[kDz] + dx * mb[kDx];
    hb[1] = w * mb[kDt];
    hb[2] = w * mb[kDz] + two * dz * mb[kDzz];
    hb[3] = w * mb[kDx] + two * dx * mb[kDxx];
    hb[4] = w * mb[kDzz];
    hb[5] = w * mb[kDxx];
  }
}

// A single-layer decoder's output layer reads layer 0's input as a jet:
// the [rel | latent] rows with unit tangent seeds on the coordinate
// columns and zero curvatures (stream stride ldx).
void seed_jet(const float* x, std::int64_t ldx, float* h) {
  for (int r = 0; r < kRows; ++r) {
    float* hr = h + r * kStreams * ldx;
    std::fill(hr, hr + kStreams * ldx, 0.0f);
    std::copy(x + r * ldx, x + (r + 1) * ldx, hr);
    for (int k = 0; k < 3; ++k) hr[(1 + k) * ldx + k] = 1.0f;
  }
}

std::int64_t block_count(const Grid& g) {
  return (g.n * g.q + kBlockQueries - 1) / kBlockQueries;
}

// The widest padded row of any layer's input or output.
template <class P>
std::int64_t widest_ld(const std::vector<Layer>& layers) {
  std::int64_t w = cols<P>(layers.front().in).ld;
  for (const Layer& l : layers) w = std::max(w, cols<P>(l.out).ld);
  return w;
}

// --------------------------------------------------------------- gather --

// Query b's sample, the latent voxel of its base corner (t, z, x) and its
// fractions in the cell.
struct Cell {
  std::int64_t sample = 0, voxel = 0;
  double ft = 0.0, fz = 0.0, fx = 0.0;
};

Cell locate(const Grid& g, const float* coords, std::int64_t b) {
  const auto [t0, ft] = cellof(coords[b * 3 + 0], g.lt);
  const auto [z0, fz] = cellof(coords[b * 3 + 1], g.lz);
  const auto [x0, fx] = cellof(coords[b * 3 + 2], g.lx);
  return {b / g.q, (t0 * g.lz + z0) * g.lx + x0, ft, fz, fx};
}

// Voxel offset of corner j (bits jt jz jx) from the base corner.
std::int64_t corner_offset(const Grid& g, int j) {
  return (((j >> 2) & 1) * g.lz + ((j >> 1) & 1)) * g.lx + (j & 1);
}

// The latent channels-last, lc[(n * slab + voxel) * c + ch], so a corner's
// latent row is one contiguous copy.
float* channels_last(const Grid& g, backend::Workspace& ws) {
  const std::int64_t slab = g.lt * g.lz * g.lx;
  float* lc = ws.alloc(static_cast<std::size_t>(g.n * slab * g.c));
  for (std::int64_t n = 0; n < g.n; ++n)
    for (std::int64_t ch = 0; ch < g.c; ++ch) {
      const float* src = g.latent + (n * g.c + ch) * slab;
      float* dst = lc + n * slab * g.c + ch;
      for (std::int64_t v = 0; v < slab; ++v) dst[v * g.c] = src[v];
    }
  return lc;
}

// Query b's tile: row j of x (stride ldx) is corner j's [rel | latent]
// input and geo[4 * j ..] its blend weights w, dw/dt, dw/dz, dw/dx.
void gather(const Grid& g, const float* lc, const float* coords,
            std::int64_t b, std::int64_t ldx, float* x, float* geo) {
  const Cell cell = locate(g, coords, b);
  const float* base =
      lc + (cell.sample * g.lt * g.lz * g.lx + cell.voxel) * g.c;
  for (int j = 0; j < kRows; ++j) {
    const int jt = (j >> 2) & 1, jz = (j >> 1) & 1, jx = j & 1;
    float* r = x + j * ldx;
    r[0] = static_cast<float>(cell.ft - jt);
    r[1] = static_cast<float>(cell.fz - jz);
    r[2] = static_cast<float>(cell.fx - jx);
    const float* src = base + corner_offset(g, j) * g.c;
    std::copy(src, src + g.c, r + 3);
    // per-axis hat weights; their coordinate derivatives are +-1 factors
    const double wt = jt ? cell.ft : 1.0 - cell.ft;
    const double wz = jz ? cell.fz : 1.0 - cell.fz;
    const double wx = jx ? cell.fx : 1.0 - cell.fx;
    const double st = jt ? 1.0 : -1.0, sz = jz ? 1.0 : -1.0,
                 sx = jx ? 1.0 : -1.0;
    geo[4 * j + 0] = static_cast<float>(wt * wz * wx);
    geo[4 * j + 1] = static_cast<float>(st * wz * wx);
    geo[4 * j + 2] = static_cast<float>(wt * sz * wx);
    geo[4 * j + 3] = static_cast<float>(wt * wz * sx);
  }
}

// --------------------------------------------------------------- forward --

// A gathered tile x (stride ldx) through layer 0 and every hidden layer,
// carrying S streams: the value alone (S = 1) or the jet (S = 6). Each
// layer is one S-stream product per register tile with the bias and the
// activation applied in the write-back; the value pass stores h = f(z).
// In the jet, layer 0 computes the value product only: its tangents are
// W0's coordinate columns and its curvatures zero, so the seeds fold into
// its write-back, and every later layer applies the jet activation. Hidden
// layer l's streams go to hs[l] (row r, stream m at (r * S + m) * ld_l).
// With Save (the backward's rerun; the forward passes null ds and zs), the
// activation derivatives go to ds[l] (row r, derivative e at
// (r * D + e) * ld_l for the kDerivs<S> = D kept), and in the jet the
// pre-activation jets of layers l > 0 go to zs[l] (laid out like hs[l]).
template <class P, Activation A, int S, bool Save>
void hidden_layers(const Net& net, const float* x, float* const* hs,
                   float* const* ds, float* const* zs) {
  using V = typename P::V;
  constexpr std::int64_t W = P::kWidth;
  constexpr int D = kDerivs<S>;
  const std::vector<Layer>& layers = net.layers;
  const Layer& l0 = layers.front();
  const Cols c0 = cols<P>(l0.out);
  with_np(c0.np, [&](auto np) {
    constexpr int NP = decltype(np)::value;
    layer_pass<P, 1, NP>(
        x, cols<P>(l0.in).ld, kRows, l0.in, net.fwd[0], c0.panels,
        [&](int r0, std::int64_t c, auto& acc) {
          for (int r = 0; r < rows_of(acc); ++r)
            for (int v = 0; v < NP; ++v) {
              const std::int64_t col = c + v * W;
              const V z = acc[r][0][v] + P::load(net.bias[0] + col);
              float* h = hs[0] + (r0 + r) * S * c0.ld + col;
              float* d =
                  Save ? ds[0] + (r0 + r) * D * c0.ld + col : nullptr;
              if constexpr (S == 1) {
                act_value<P, A, Save>(z, h, d);
              } else {
                V zj[kStreams];
                layer0_jet<P>(z, net.wc + col, c0.ld, zj);
                act_jet<P, A>(zj, h, c0.ld, d);
              }
            }
        });
  });
  for (std::size_t l = 1; l + 1 < layers.size(); ++l) {
    const Layer& ly = layers[l];
    const Cols cl = cols<P>(ly.out);
    with_np(cl.np, [&](auto np) {
      constexpr int NP = decltype(np)::value;
      layer_pass<P, S, NP>(
          hs[l - 1], cols<P>(ly.in).ld, kRows, ly.in, net.fwd[l], cl.panels,
          [&](int r0, std::int64_t c, auto& acc) {
            for (int r = 0; r < rows_of(acc); ++r)
              for (int v = 0; v < NP; ++v) {
                const std::int64_t col = c + v * W;
                const std::int64_t at = (r0 + r) * S * cl.ld + col;
                V z[S];
                for (int m = 0; m < S; ++m) z[m] = acc[r][m][v];
                z[0] = z[0] + P::load(net.bias[l] + col);
                float* d =
                    Save ? ds[l] + (r0 + r) * D * cl.ld + col : nullptr;
                if constexpr (S == 1) {
                  act_value<P, A, Save>(z[0], hs[l] + at, d);
                } else {
                  if constexpr (Save)
                    for (int m = 0; m < S; ++m)
                      P::store(zs[l] + at + m * cl.ld, z[m]);
                  act_jet<P, A>(z, hs[l] + at, cl.ld, d);
                }
              }
          });
    });
  }
}

// Query b through every layer with S streams: the last hidden layer (for
// a single-layer decoder, the input, seeded as a jet when S = 6) is
// blended over the 8 corners and the output layer projects the S blended
// members once. hs holds an S-stream buffer per hidden layer (distinct
// for consecutive layers); m and mem hold S members each. Member k goes
// to outs[k] unless that is null.
template <class P, Activation A, int S>
void forward_tile(const Grid& g, const float* lc, const float* coords,
                  std::int64_t b, const Net& net, float* x, float* geo,
                  float* const* hs, float* m, float* mem,
                  const std::array<float*, kMembers>& outs) {
  constexpr std::int64_t W = P::kWidth;
  const std::vector<Layer>& layers = net.layers;
  const std::size_t L = layers.size();
  const Layer& lo = layers.back();
  const std::int64_t ldx = cols<P>(layers.front().in).ld;
  gather(g, lc, coords, b, ldx, x, geo);
  const float* last = hs[L == 1 ? 0 : L - 2];
  if (L > 1)
    hidden_layers<P, A, S, false>(net, x, hs, nullptr, nullptr);
  else if constexpr (S == 1)
    last = x;
  else
    seed_jet(x, ldx, hs[0]);
  const std::int64_t ldi = cols<P>(lo.in).ld;
  blend<P, S>(last, ldi, geo, m);
  const Cols co = cols<P>(lo.out);
  with_np(co.np, [&](auto np) {
    constexpr int NP = decltype(np)::value;
    layer_pass<P, S, NP, 1>(
        m, ldi, 1, lo.in, net.fwd[L - 1], co.panels,
        [&](int, std::int64_t c, auto& acc) {
          for (int v = 0; v < NP; ++v) {
            const std::int64_t col = c + v * W;
            // the output bias reaches the value only
            P::store(mem + col, acc[0][0][v] + P::load(net.bias[L - 1] + col));
            for (int k = 1; k < S; ++k)
              P::store(mem + k * co.ld + col, acc[0][k][v]);
          }
        });
  });
  for (int k = 0; k < S; ++k)
    if (outs[k] != nullptr)
      std::copy(mem + k * co.ld, mem + k * co.ld + lo.out,
                outs[k] + b * lo.out);
}

// Forward over every block, each block's queries in order.
template <class P, Activation A, int S>
void run_forward(const Grid& g, const float* coords,
                 const std::vector<Layer>& layers,
                 const std::array<float*, kMembers>& outs) {
  const std::int64_t total = g.n * g.q;
  const std::int64_t ldx = cols<P>(layers.front().in).ld;
  const std::int64_t ldmax = widest_ld<P>(layers);
  backend::Workspace& ws0 = backend::local_workspace();
  const backend::Workspace::Mark mark0 = ws0.mark();
  const Net net = make_net<P>(layers, /*backward=*/false, ws0);
  const float* lc = channels_last(g, ws0);
  parallel_for(
      block_count(g),
      [&](std::int64_t blk0, std::int64_t blk1) {
        backend::Workspace& ws = backend::local_workspace();
        const backend::Workspace::Mark mark = ws.mark();
        auto take = [&ws](std::int64_t floats) {
          return ws.alloc(static_cast<std::size_t>(floats));
        };
        float* x = padded(nullptr, 0, kRows * ldx, ws);
        float* geo = take(4 * kRows);
        // Two stream buffers, alternating between consecutive layers.
        float* pair[2] = {take(kRows * S * ldmax), take(kRows * S * ldmax)};
        std::vector<float*> hs;
        for (std::size_t l = 0; l + 1 < std::max<std::size_t>(layers.size(), 2);
             ++l)
          hs.push_back(pair[l % 2]);
        float* m = take(S * ldmax);
        float* mem = take(S * ldmax);
        const std::int64_t b1 = std::min(blk1 * kBlockQueries, total);
        for (std::int64_t b = blk0 * kBlockQueries; b < b1; ++b)
          forward_tile<P, A, S>(g, lc, coords, b, net, x, geo, hs.data(), m,
                                mem, outs);
        ws.release(mark);
      },
      /*grain=*/1);
  ws0.release(mark0);
}

// -------------------------------------------------------------- backward --

// Offsets of each layer's weight and bias gradients inside one block's
// slice of the partial-gradient buffer.
struct GradLayout {
  std::vector<std::int64_t> w, b;
  std::int64_t total = 0;
};

GradLayout grad_layout(const std::vector<Layer>& layers) {
  GradLayout gl;
  for (const Layer& l : layers) {
    gl.w.push_back(gl.total);
    gl.total += l.out * l.in;
    gl.b.push_back(gl.total);
    if (l.bias != nullptr) gl.total += l.out;
  }
  return gl;
}

// Per-worker scratch of the backward: the tile's regathered input, blend
// weights and member gradients, its recomputed hidden streams h[l],
// activation derivatives d[l] and, in the jet, pre-activation jets z[l]
// (l > 0), the blended members and their adjoint, two adjoint buffers,
// and the block's weight, bias and coordinate-column gradient
// accumulators (rows padded like the layer's input).
struct BwdScratch {
  float *x = nullptr, *geo = nullptr, *gm = nullptr;
  std::vector<float*> h, d, z, accw, accb;
  float *m = nullptr, *mbar = nullptr, *a = nullptr, *b = nullptr;
  float* csum = nullptr;
};

// Query b's tile backward with S streams: the value pass (S = 1) or the
// jet (S = 6), whose output holds S members of `total` rows each. The
// forward saves nothing: the tile is regathered and run through the hidden
// layers again, keeping every stream set, activation derivative and (jet)
// pre-activation jet. Then the output layer's weight gradient from the
// blended members and its input adjoint, the blend adjoint to every
// corner, then per hidden layer from the top: the activation adjoint,
// zbar = f' hbar in the value pass and in the jet
//
//   zbar       = f' hbar + f'' (sum_k tau_k tbar_k + sum_m kappa_m cbar_m)
//                + f''' sum_m tau_m^2 cbar_m
//   taubar_k   = f' tbar_k  (+ 2 f'' tau_k cbar_k for k in {z, x})
//   kappabar_m = f' cbar_m
//
// (fused into the write-back of the product that produced hbar), the
// weight-gradient partial and the input-gradient product. In the jet,
// layer 0's folded tangent seeds turn its tangent and curvature adjoints
// into gradients of W0's coordinate columns (s.csum). With xbar, the
// adjoint of the tile's latent inputs goes there (row j at j * ldc).
template <class P, Activation A, int S>
void backward_tile(const Grid& g, const float* lc, const float* coords,
                   std::int64_t b, std::int64_t total, const Net& net,
                   const float* grad, BwdScratch& s, float* xbar) {
  using V = typename P::V;
  constexpr std::int64_t W = P::kWidth;
  constexpr int D = kDerivs<S>;
  const std::vector<Layer>& layers = net.layers;
  const std::size_t L = layers.size();
  const Layer& l0 = layers.front();
  const Layer& lo = layers.back();
  const std::int64_t ldx = cols<P>(l0.in).ld, ld0 = cols<P>(l0.out).ld;
  const std::int64_t ldo = cols<P>(lo.out).ld, ldi = cols<P>(lo.in).ld;
  const std::int64_t ldc = cols<P>(g.c).ld;
  gather(g, lc, coords, b, ldx, s.x, s.geo);

  const float* last = s.h[L == 1 ? 0 : L - 2];
  if (L > 1)
    hidden_layers<P, A, S, true>(net, s.x, s.h.data(), s.d.data(),
                                 s.z.data());
  else if constexpr (S == 1)
    last = s.x;
  else
    seed_jet(s.x, ldx, s.h[0]);

  // Adjoint hb of hidden layer l's output streams at row r, columns c..
  // into that of its pre-activation, zbar, into dst. In the jet, layer 0
  // keeps the value adjoint only and adds the coordinate-column gradients
  // into s.csum.
  auto act_adjoint = [&](std::size_t l, int r, std::int64_t c,
                         const V (&hb)[S], float* dst) {
    const std::int64_t ld = cols<P>(layers[l].out).ld;
    const float* d = s.d[l] + r * D * ld + c;
    const V d1 = P::load(d);
    if constexpr (S == 1) {
      P::store(dst + r * ld + c, d1 * hb[0]);
    } else {
      const V two = P::set1(2.0f);
      const V d2 = P::load(d + ld), d3 = P::load(d + 2 * ld);
      if (l == 0) {
        const V wt = P::load(net.wc + c), wz = P::load(net.wc + ld0 + c),
                wx = P::load(net.wc + 2 * ld0 + c);
        P::store(dst + r * ld0 + c,
                 d1 * hb[0] + d2 * (wt * hb[1] + wz * hb[2] + wx * hb[3]) +
                     d3 * (wz * wz * hb[4] + wx * wx * hb[5]));
        float* cs = s.csum + c;
        P::store(cs, P::load(cs) + d1 * hb[1]);
        P::store(cs + ld0,
                 P::load(cs + ld0) + (d1 * hb[2] + two * d2 * wz * hb[4]));
        P::store(cs + 2 * ld0, P::load(cs + 2 * ld0) +
                                   (d1 * hb[3] + two * d2 * wx * hb[5]));
        return;
      }
      const std::int64_t at = r * S * ld + c;
      const float* zk = s.z[l] + at;
      const V tt = P::load(zk + ld), tz = P::load(zk + 2 * ld),
              tx = P::load(zk + 3 * ld), kz = P::load(zk + 4 * ld),
              kx = P::load(zk + 5 * ld);
      const V mixed =
          tt * hb[1] + tz * hb[2] + tx * hb[3] + kz * hb[4] + kx * hb[5];
      float* zb = dst + at;
      P::store(zb, d1 * hb[0] + d2 * mixed +
                       d3 * (tz * tz * hb[4] + tx * tx * hb[5]));
      P::store(zb + ld, d1 * hb[1]);
      P::store(zb + 2 * ld, d1 * hb[2] + two * d2 * tz * hb[4]);
      P::store(zb + 3 * ld, d1 * hb[3] + two * d2 * tx * hb[5]);
      P::store(zb + 4 * ld, d1 * hb[4]);
      P::store(zb + 5 * ld, d1 * hb[5]);
    }
  };

  // Output layer: weight and bias gradients against the blended members,
  // then the members' adjoint (over the latent columns only when the
  // output layer is layer 0).
  for (int m = 0; m < S; ++m) {
    float* gm = s.gm + m * ldo;
    for (std::int64_t o = 0; o < ldo; ++o)
      gm[o] = o < lo.out ? grad[(m * total + b) * lo.out + o] : 0.0f;
  }
  blend<P, S>(last, ldi, s.geo, s.m);
  wgrad<P, S>(s.gm, ldo, lo.out, s.m, lo.in, 1, s.accw[L - 1]);
  row_sums<P>(s.gm, S, ldo, 1, s.accb[L - 1]);
  const Cols cm = cols<P>(L == 1 ? g.c : lo.in);
  with_np(cm.np, [&](auto np) {
    constexpr int NP = decltype(np)::value;
    layer_pass<P, S, NP, 1>(
        s.gm, ldo, 1, lo.out, net.bwd[L - 1], cm.panels,
        [&](int, std::int64_t c, auto& acc) {
          for (int m = 0; m < S; ++m)
            for (int v = 0; v < NP; ++v)
              P::store(s.mbar + m * cm.ld + c + v * W, acc[0][m][v]);
        });
  });

  // Blend adjoint to every corner, then the last hidden layer's
  // activation adjoint; a single-layer decoder's latent adjoint directly.
  for (int r = 0; r < kRows; ++r)
    for (std::int64_t c = 0; c < cm.ld; c += W) {
      V mb[S], hb[S];
      for (int m = 0; m < S; ++m) mb[m] = P::load(s.mbar + m * cm.ld + c);
      blend_adjoint<P, S>(mb, s.geo + 4 * r, hb);
      if (L == 1) {
        if (xbar != nullptr) P::store(xbar + r * ldc + c, hb[0]);
      } else {
        act_adjoint(L - 2, r, c, hb, s.a);
      }
    }
  if (L == 1) return;

  float* cur = s.a;
  float* nxt = s.b;
  // cur holds the adjoint of layer l's pre-activation streams.
  for (std::size_t l = L - 2; l >= 1; --l) {
    const Layer& ly = layers[l];
    const std::int64_t ldl = cols<P>(ly.out).ld;
    const Cols ci = cols<P>(ly.in);
    wgrad<P, S>(cur, ldl, ly.out, s.h[l - 1], ly.in, kRows, s.accw[l]);
    row_sums<P>(cur, S, ldl, kRows, s.accb[l]);
    with_np(ci.np, [&](auto np) {
      constexpr int NP = decltype(np)::value;
      layer_pass<P, S, NP>(
          cur, ldl, kRows, ly.out, net.bwd[l], ci.panels,
          [&](int r0, std::int64_t c, auto& acc) {
            for (int r = 0; r < rows_of(acc); ++r)
              for (int v = 0; v < NP; ++v) {
                V hb[S];
                for (int m = 0; m < S; ++m) hb[m] = acc[r][m][v];
                act_adjoint(l - 1, r0 + r, c + v * W, hb, nxt);
              }
          });
    });
    std::swap(cur, nxt);
  }
  // cur now holds zbar0, layer 0's value pre-activation adjoint.
  wgrad<P, 1>(cur, ld0, l0.out, s.x, l0.in, kRows, s.accw.front());
  row_sums<P>(cur, 1, ld0, kRows, s.accb.front());
  if (xbar == nullptr) return;
  const Cols cc = cols<P>(g.c);
  with_np(cc.np, [&](auto np) {
    constexpr int NP = decltype(np)::value;
    layer_pass<P, 1, NP>(
        cur, ld0, kRows, l0.out, net.bwd[0], cc.panels,
        [&](int r0, std::int64_t c, auto& acc) {
          for (int r = 0; r < rows_of(acc); ++r)
            for (int v = 0; v < NP; ++v)
              P::store(xbar + (r0 + r) * ldc + c + v * W, acc[r][0][v]);
        });
  });
}

// Backward of the S-stream pass over every block: block blk's weight and
// bias gradients go to partials + blk * gl.total and, when xbar is not
// null, query b's latent-input adjoint to xbar + b * 8 * ldc (corner j at
// j * ldc).
template <class P, Activation A, int S>
void run_backward(const Grid& g, const float* coords,
                  const std::vector<Layer>& layers, const float* grad,
                  const GradLayout& gl, float* partials, float* xbar) {
  const std::int64_t total = g.n * g.q;
  const std::size_t L = layers.size();
  const std::int64_t ldx = cols<P>(layers.front().in).ld;
  const std::int64_t ld0 = cols<P>(layers.front().out).ld;
  const std::int64_t ldc = cols<P>(g.c).ld;
  const std::int64_t ldmax = widest_ld<P>(layers);
  backend::Workspace& ws0 = backend::local_workspace();
  const backend::Workspace::Mark mark0 = ws0.mark();
  const Net net = make_net<P>(layers, /*backward=*/true, ws0);
  const float* lc = channels_last(g, ws0);
  parallel_for(
      block_count(g),
      [&](std::int64_t blk0, std::int64_t blk1) {
        backend::Workspace& ws = backend::local_workspace();
        const backend::Workspace::Mark mark = ws.mark();
        auto take = [&ws](std::int64_t floats) {
          return ws.alloc(static_cast<std::size_t>(floats));
        };
        BwdScratch s;
        s.x = padded(nullptr, 0, kRows * ldx, ws);
        s.geo = take(4 * kRows);
        s.gm = take(S * ldmax);
        for (std::size_t l = 0; l + 1 < std::max<std::size_t>(L, 2); ++l) {
          s.h.push_back(take(kRows * S * ldmax));
          s.d.push_back(take(kRows * kDerivs<S> * ldmax));
          s.z.push_back(S == 1 || l == 0 ? nullptr : take(kRows * S * ldmax));
        }
        s.m = take(S * ldmax);
        s.mbar = take(S * ldmax);
        s.a = take(kRows * S * ldmax);
        s.b = take(kRows * S * ldmax);
        std::int64_t acc_floats = 3 * ld0;
        for (const Layer& l : layers)
          acc_floats += l.out * cols<P>(l.in).ld + cols<P>(l.out).ld;
        float* accs = take(acc_floats);
        s.csum = accs;
        float* p = accs + 3 * ld0;
        for (const Layer& l : layers) {
          s.accw.push_back(p);
          p += l.out * cols<P>(l.in).ld;
          s.accb.push_back(p);
          p += cols<P>(l.out).ld;
        }
        for (std::int64_t blk = blk0; blk < blk1; ++blk) {
          std::fill(accs, accs + acc_floats, 0.0f);
          const std::int64_t b0 = blk * kBlockQueries;
          const std::int64_t b1 = std::min(b0 + kBlockQueries, total);
          for (std::int64_t b = b0; b < b1; ++b)
            backward_tile<P, A, S>(
                g, lc, coords, b, total, net, grad, s,
                xbar == nullptr ? nullptr : xbar + b * kRows * ldc);
          // The block's accumulators, unpadded, are its partials.
          float* part = partials + blk * gl.total;
          for (std::size_t l = 0; l < L; ++l) {
            const Layer& ly = layers[l];
            const std::int64_t ldi = cols<P>(ly.in).ld;
            for (std::int64_t o = 0; o < ly.out; ++o)
              std::copy(s.accw[l] + o * ldi, s.accw[l] + o * ldi + ly.in,
                        part + gl.w[l] + o * ly.in);
            if (ly.bias != nullptr)
              std::copy(s.accb[l], s.accb[l] + ly.out, part + gl.b[l]);
          }
          if constexpr (S == kStreams)
            for (std::int64_t o = 0; o < layers.front().out; ++o)
              for (int k = 0; k < 3; ++k)
                part[gl.w[0] + o * layers.front().in + k] +=
                    s.csum[k * ld0 + o];
        }
        ws.release(mark);
      },
      /*grain=*/1);
  ws0.release(mark0);
}

// grad[e] += the sum over blocks, in block order, of
// partials[blk * stride + off + e].
void reduce_blocks_into(const float* partials, std::int64_t nblocks,
                        std::int64_t stride, std::int64_t off,
                        std::int64_t count, float* grad) {
  for (std::int64_t e = 0; e < count; ++e) {
    float acc = 0.0f;
    for (std::int64_t blk = 0; blk < nblocks; ++blk)
      acc += partials[blk * stride + off + e];
    grad[e] += acc;
  }
}

// Adds the latent-input adjoint (row j of query b at (b * 8 + j) * ldc)
// into the latent gradient: per sample, whose latent slabs are disjoint,
// summed channels-last over its queries and corners in a fixed order, then
// added in.
void scatter_latent(const Grid& g, const float* coords, const float* xbar,
                    std::int64_t ldc, float* glat) {
  const std::int64_t slab = g.lt * g.lz * g.lx;
  parallel_for(
      g.n,
      [&](std::int64_t n0, std::int64_t n1) {
        backend::Workspace& ws = backend::local_workspace();
        const backend::Workspace::Mark mark = ws.mark();
        float* acc = ws.alloc(static_cast<std::size_t>(slab * g.c));
        for (std::int64_t n = n0; n < n1; ++n) {
          std::fill(acc, acc + slab * g.c, 0.0f);
          for (std::int64_t b = n * g.q; b < (n + 1) * g.q; ++b) {
            const Cell cell = locate(g, coords, b);
            for (int j = 0; j < kRows; ++j) {
              const float* src = xbar + (b * kRows + j) * ldc;
              float* dst = acc + (cell.voxel + corner_offset(g, j)) * g.c;
              for (std::int64_t c = 0; c < g.c; ++c) dst[c] += src[c];
            }
          }
          for (std::int64_t c = 0; c < g.c; ++c) {
            float* dst = glat + (n * g.c + c) * slab;
            for (std::int64_t v = 0; v < slab; ++v) dst[v] += acc[v * g.c + c];
          }
        }
        ws.release(mark);
      },
      /*grain=*/1);
}

}  // namespace

void forward(const Grid& grid, const float* coords,
             const std::vector<Layer>& layers, nn::Activation act,
             const std::array<float*, kMembers>& outs) {
  const bool jet = std::any_of(outs.begin() + 1, outs.end(),
                               [](const float* o) { return o != nullptr; });
  dispatch(simd::enabled(), act, [&](auto lanes, auto tag) {
    using P = decltype(lanes);
    constexpr Activation A = decltype(tag)::value;
    if (jet)
      run_forward<P, A, kStreams>(grid, coords, layers, outs);
    else
      run_forward<P, A, 1>(grid, coords, layers, outs);
  });
}

std::vector<Layer> layers_of(const nn::MLP& mlp) {
  std::vector<Layer> layers;
  for (const auto& fc : mlp.layers())
    layers.push_back({fc->in_features(), fc->out_features(),
                      fc->weight().value().data(),
                      fc->has_bias() ? fc->bias().value().data() : nullptr});
  return layers;
}

}  // namespace jet

namespace {

// The S-stream pass as one tape node: the value pass (S = 1) or the jet
// (S = jet::kMembers), whose output stacks its S members of n*q rows.
// Without a gradient to record it returns the forward's output alone.
template <int S>
ad::Var decode_node(const ad::Var& latent, const Tensor& coords,
                    std::int64_t q, const nn::MLP& mlp) {
  const Tensor& lat = latent.value();
  const jet::Grid grid{lat.data(), lat.dim(0), q,         lat.dim(1),
                       lat.dim(2), lat.dim(3), lat.dim(4)};
  const nn::Activation act = mlp.activation();
  // Parents: the latent, then each layer's weight and, when present, bias.
  // wslot / bslot hold their parent indices (bslot 0: no bias).
  std::vector<ad::Var> parents{latent};
  std::vector<std::size_t> wslot, bslot;
  for (const auto& fc : mlp.layers()) {
    wslot.push_back(parents.size());
    parents.push_back(fc->weight());
    bslot.push_back(fc->has_bias() ? parents.size() : 0);
    if (fc->has_bias()) parents.push_back(fc->bias());
  }
  const std::vector<jet::Layer> layers = jet::layers_of(mlp);
  const std::int64_t total = grid.n * q, width = layers.back().out;
  Tensor out = Tensor::uninitialized(Shape{S * total, width});
  std::array<float*, jet::kMembers> outs{};
  for (int m = 0; m < S; ++m)
    outs[m] = out.data() + m * total * width;

  bool needs_grad = false;
  if (!ad::NoGradGuard::active())
    for (const ad::Var& p : parents)
      needs_grad = needs_grad || p.requires_grad();
  // The backward differentiates the forward's arithmetic, so it takes the
  // forward's lane type even if simd::set_force_scalar flips in between.
  const bool vec = simd::enabled();
  jet::dispatch(vec, act, [&](auto lanes, auto tag) {
    jet::run_forward<decltype(lanes), decltype(tag)::value, S>(
        grid, coords.data(), layers, outs);
  });
  if (!needs_grad) return ad::Var(std::move(out), /*requires_grad=*/false);

  return ad::make_op(
      std::move(out), std::move(parents),
      [grid, geometry = coords.clone(), wslot, bslot, act, vec](ad::Node& n) {
        std::vector<jet::Layer> ls;
        for (std::size_t l = 0; l < wslot.size(); ++l) {
          const Tensor& w = n.parents[wslot[l]]->value;
          ls.push_back({w.dim(1), w.dim(0), w.data(),
                        bslot[l] != 0 ? n.parents[bslot[l]]->value.data()
                                      : nullptr});
        }
        const jet::GradLayout gl = jet::grad_layout(ls);
        const std::int64_t nblocks = jet::block_count(grid);
        ad::Node& lat = *n.parents[0];
        // The backward regathers the layer-0 inputs from the latent.
        jet::Grid g = grid;
        g.latent = lat.value.data();
        Tensor partials = Tensor::uninitialized(Shape{nblocks * gl.total});
        jet::dispatch(vec, act, [&](auto lanes, auto tag) {
          using P = decltype(lanes);
          const std::int64_t ldc = jet::cols<P>(g.c).ld;
          Tensor xbar;
          if (lat.requires_grad)
            xbar = Tensor::uninitialized(Shape{g.n * g.q * jet::kRows * ldc});
          jet::run_backward<P, decltype(tag)::value, S>(
              g, geometry.data(), ls, n.grad.data(), gl,
              partials.data(), lat.requires_grad ? xbar.data() : nullptr);
          if (lat.requires_grad)
            jet::scatter_latent(g, geometry.data(), xbar.data(), ldc,
                                lat.ensure_grad().data());
        });
        for (std::size_t l = 0; l < ls.size(); ++l) {
          ad::Node& w = *n.parents[wslot[l]];
          if (w.requires_grad)
            jet::reduce_blocks_into(partials.data(), nblocks, gl.total,
                                    gl.w[l], ls[l].out * ls[l].in,
                                    w.ensure_grad().data());
          if (bslot[l] == 0) continue;
          ad::Node& b = *n.parents[bslot[l]];
          if (b.requires_grad)
            jet::reduce_blocks_into(partials.data(), nblocks, gl.total,
                                    gl.b[l], ls[l].out,
                                    b.ensure_grad().data());
        }
      });
}

}  // namespace

ad::Var decode_jet(const ad::Var& latent, const Tensor& coords,
                   std::int64_t q, const nn::MLP& mlp) {
  return decode_node<jet::kMembers>(latent, coords, q, mlp);
}

ad::Var decode_value(const ad::Var& latent, const Tensor& coords,
                     std::int64_t q, const nn::MLP& mlp) {
  return decode_node<1>(latent, coords, q, mlp);
}

}  // namespace mfn::core
