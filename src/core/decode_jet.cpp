#include "core/decode_jet.h"

#include <type_traits>

#include "backend/sgemm.h"
#include "backend/simd.h"
#include "backend/workspace.h"
#include "tensor/tensor_ops.h"
#include "threading/thread_pool.h"

namespace mfn::core {
namespace jet {
namespace {

using backend::Trans;
using nn::Activation;

constexpr std::int64_t kBlockRows = 8 * kBlockQueries;

// ------------------------------------------------------------ lane types --
// Each jet pass is written once over a lane type: simd::VF chunks with a
// masked ragged tail on the vector tiers, or single floats on the scalar
// reference path, whose transcendentals are the tensor_ops scalar
// references. simd::enabled() picks one per call.

inline simd::VF operator+(simd::VF a, simd::VF b) { return simd::vadd(a, b); }
inline simd::VF operator-(simd::VF a, simd::VF b) { return simd::vsub(a, b); }
inline simd::VF operator*(simd::VF a, simd::VF b) { return simd::vmul(a, b); }

struct VecLanes {
  using V = simd::VF;
  static constexpr std::int64_t kWidth = simd::kWidth;
  static V load(const float* p, std::int64_t n) {
    return n == kWidth ? simd::vloadu(p)
                       : simd::vload_partial(p, static_cast<int>(n));
  }
  static void store(float* p, V v, std::int64_t n) {
    if (n == kWidth)
      simd::vstoreu(p, v);
    else
      simd::vstore_partial(p, v, static_cast<int>(n));
  }
  static V set1(float x) { return simd::vset1(x); }
  // f, f', f'', f''' at z. Softplus shares one exp(-|z|) between the
  // v_softplus and v_sigmoid formulas, so f and f' equal those kernels'.
  template <Activation A>
  static void derivs(V z, V& f, V& d1, V& d2, V& d3) {
    const V one = simd::vset1(1.0f);
    if constexpr (A == Activation::kSoftplus) {
      const V e = simd::v_exp(simd::vneg(simd::vabs(z)));
      f = simd::vmax(z, simd::vzero()) + simd::v_log1p(e);
      const V s = simd::vdiv(e, one + e);
      d1 = simd::vselect(simd::vcmp_ge(z, simd::vzero()), one - s, s);
      d2 = d1 * (one - d1);
      d3 = d2 * (one - (d1 + d1));
    } else if constexpr (A == Activation::kTanh) {
      f = simd::v_tanh(z);
      d1 = one - f * f;
      d2 = simd::vset1(-2.0f) * f * d1;
      d3 = d1 * (simd::vset1(6.0f) * f * f - simd::vset1(2.0f));
    } else {
      const V zero = simd::vzero();
      f = simd::vmax(z, zero);
      d1 = simd::vselect(simd::vcmp_gt(z, zero), one, zero);
      d2 = zero;
      d3 = zero;
    }
  }
};

struct ScalarLanes {
  using V = float;
  static constexpr std::int64_t kWidth = 1;
  static V load(const float* p, std::int64_t) { return *p; }
  static void store(float* p, V v, std::int64_t) { *p = v; }
  static V set1(float x) { return x; }
  template <Activation A>
  static void derivs(V z, V& f, V& d1, V& d2, V& d3) {
    if constexpr (A == Activation::kSoftplus) {
      scalar_ref::softplus(&z, &f, 1);
      scalar_ref::sigmoid(&z, &d1, 1);
      d2 = d1 * (1.0f - d1);
      d3 = d2 * (1.0f - (d1 + d1));
    } else if constexpr (A == Activation::kTanh) {
      scalar_ref::tanh(&z, &f, 1);
      d1 = 1.0f - f * f;
      d2 = -2.0f * f * d1;
      d3 = d1 * (6.0f * f * f - 2.0f);
    } else {
      f = z > 0.0f ? z : 0.0f;
      d1 = z > 0.0f ? 1.0f : 0.0f;
      d2 = 0.0f;
      d3 = 0.0f;
    }
  }
};

// Calls f(lanes, tag) with the lane type simd::enabled() selects and `act`
// as the compile-time constant decltype(tag)::value.
template <class F>
void dispatch(Activation act, F&& f) {
  auto with = [&](auto tag) {
    if (simd::enabled())
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

// body(i, o, n) over the column chunks of a rows x w stream: element
// offset i = r * w + o, n lanes.
template <class P, class Body>
void for_chunks(std::int64_t rows, std::int64_t w, Body&& body) {
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t o = 0; o < w; o += P::kWidth)
      body(r * w + o, o, std::min<std::int64_t>(P::kWidth, w - o));
}

// --------------------------------------------------------------- forward --
// A jet block holds six streams of rows x w — the value, the t, z, x
// tangents and the z, x curvatures — stacked: stream m starts at
// m * rows * w.

// Hidden layer l > 0: pre-activation jet z -> activation jet h. `bias`
// (may be null) is added to the value stream first and written back, so
// z keeps the true pre-activation for the backward.
template <class P, Activation A>
void act_forward(std::int64_t rows, std::int64_t w, const float* bias,
                 float* z, float* h) {
  using V = typename P::V;
  const std::int64_t s = rows * w;
  for_chunks<P>(rows, w, [&](std::int64_t i, std::int64_t o, std::int64_t n) {
    V zv = P::load(z + i, n);
    if (bias != nullptr) {
      zv = zv + P::load(bias + o, n);
      P::store(z + i, zv, n);
    }
    V f{}, d1{}, d2{}, d3{};
    P::template derivs<A>(zv, f, d1, d2, d3);
    const V tz = P::load(z + 2 * s + i, n), tx = P::load(z + 3 * s + i, n);
    P::store(h + i, f, n);
    P::store(h + s + i, d1 * P::load(z + s + i, n), n);
    P::store(h + 2 * s + i, d1 * tz, n);
    P::store(h + 3 * s + i, d1 * tx, n);
    P::store(h + 4 * s + i, d2 * (tz * tz) + d1 * P::load(z + 4 * s + i, n),
             n);
    P::store(h + 5 * s + i, d2 * (tx * tx) + d1 * P::load(z + 5 * s + i, n),
             n);
  });
}

// Layer 0 with its seeds folded away: the value pre-activation z0 and W0's
// coordinate columns (wc[k * w + o] = W0(o, k)) give the jet, because the
// tangents entering the activation are those columns and the curvatures
// are zero.
template <class P, Activation A>
void fold_layer0(std::int64_t rows, std::int64_t w, const float* z0,
                 const float* wc, float* h) {
  using V = typename P::V;
  const std::int64_t s = rows * w;
  for_chunks<P>(rows, w, [&](std::int64_t i, std::int64_t o, std::int64_t n) {
    V f{}, d1{}, d2{}, d3{};
    P::template derivs<A>(P::load(z0 + i, n), f, d1, d2, d3);
    const V wz = P::load(wc + w + o, n), wx = P::load(wc + 2 * w + o, n);
    P::store(h + i, f, n);
    P::store(h + s + i, d1 * P::load(wc + o, n), n);
    P::store(h + 2 * s + i, d1 * wz, n);
    P::store(h + 3 * s + i, d1 * wx, n);
    P::store(h + 4 * s + i, d2 * (wz * wz), n);
    P::store(h + 5 * s + i, d2 * (wx * wx), n);
  });
}

// Single-layer MLP: layer 0 is the linear output, so its tangents are the
// coordinate columns and its curvatures zero; stream 0 already holds the
// value GEMM.
void fold_linear_layer0(std::int64_t rows, std::int64_t w, const float* wc,
                        float* y) {
  const std::int64_t s = rows * w;
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = y + r * w;
    for (std::int64_t o = 0; o < w; ++o) {
      row[s + o] = wc[o];
      row[2 * s + o] = wc[w + o];
      row[3 * s + o] = wc[2 * w + o];
      row[4 * s + o] = 0.0f;
      row[5 * s + o] = 0.0f;
    }
  }
}

// Trilinear blend of the 8 corner jets of queries [q0, q0 + nb) into the
// members. geo holds the block's w, dw/dt, dw/dz, dw/dx tables, 8 * nb
// entries each.
void blend(std::int64_t nb, std::int64_t w, const float* y, const float* geo,
           std::int64_t q0, const std::array<float*, kMembers>& outs) {
  const std::int64_t rows = 8 * nb, s = rows * w;
  for (std::int64_t b = 0; b < nb; ++b) {
    std::array<float*, kMembers> p{};
    for (int m = 0; m < kMembers; ++m) {
      p[m] = outs[m] + (q0 + b) * w;
      std::fill(p[m], p[m] + w, 0.0f);
    }
    for (int j = 0; j < 8; ++j) {
      const std::int64_t row = j * nb + b;
      const float wq = geo[row], dt = geo[rows + row],
                  dz = geo[2 * rows + row], dx = geo[3 * rows + row];
      const float* h = y + row * w;
      for (std::int64_t c = 0; c < w; ++c) {
        const float tz = h[2 * s + c], tx = h[3 * s + c];
        p[kValue][c] += wq * h[c];
        p[kDt][c] += dt * h[c] + wq * h[s + c];
        p[kDz][c] += dz * h[c] + wq * tz;
        p[kDx][c] += dx * h[c] + wq * tx;
        p[kDzz][c] += 2.0f * dz * tz + wq * h[4 * s + c];
        p[kDxx][c] += 2.0f * dx * tx + wq * h[5 * s + c];
      }
    }
  }
}

// Latent offset of query b's base corner and its fractions in the cell.
struct Cell {
  std::int64_t base = 0;
  double ft = 0.0, fz = 0.0, fx = 0.0;
};

Cell locate(const Grid& g, const float* coords, std::int64_t b) {
  const auto [t0, ft] = cellof(coords[b * 3 + 0], g.lt);
  const auto [z0, fz] = cellof(coords[b * 3 + 1], g.lz);
  const auto [x0, fx] = cellof(coords[b * 3 + 2], g.lx);
  const std::int64_t slab = g.lt * g.lz * g.lx;
  return {(b / g.q) * g.c * slab + (t0 * g.lz + z0) * g.lx + x0, ft, fz, fx};
}

// Latent offset of corner j (bits jt jz jx) from the base corner.
std::int64_t corner_offset(const Grid& g, int j) {
  return (((j >> 2) & 1) * g.lz + ((j >> 1) & 1)) * g.lx + (j & 1);
}

// [coords | latent] rows, corner-major (row j * nb + b), and the blend
// tables of queries [q0, q0 + nb).
void gather(const Grid& g, const float* coords, std::int64_t q0,
            std::int64_t nb, float* x, float* geo) {
  const std::int64_t rows = 8 * nb, in0 = 3 + g.c;
  const std::int64_t slab = g.lt * g.lz * g.lx;
  for (std::int64_t b = 0; b < nb; ++b) {
    const Cell cell = locate(g, coords, q0 + b);
    for (int j = 0; j < 8; ++j) {
      const int jt = (j >> 2) & 1, jz = (j >> 1) & 1, jx = j & 1;
      const std::int64_t row = j * nb + b;
      float* r = x + row * in0;
      r[0] = static_cast<float>(cell.ft - jt);
      r[1] = static_cast<float>(cell.fz - jz);
      r[2] = static_cast<float>(cell.fx - jx);
      const float* src = g.latent + cell.base + corner_offset(g, j);
      for (std::int64_t c = 0; c < g.c; ++c) r[3 + c] = src[c * slab];
      // per-axis hat weights; their coordinate derivatives are +-1 factors
      const double wt = jt ? cell.ft : 1.0 - cell.ft;
      const double wz = jz ? cell.fz : 1.0 - cell.fz;
      const double wx = jx ? cell.fx : 1.0 - cell.fx;
      const double st = jt ? 1.0 : -1.0, sz = jz ? 1.0 : -1.0,
                   sx = jx ? 1.0 : -1.0;
      geo[row] = static_cast<float>(wt * wz * wx);
      geo[rows + row] = static_cast<float>(st * wz * wx);
      geo[2 * rows + row] = static_cast<float>(wt * sz * wx);
      geo[3 * rows + row] = static_cast<float>(wt * wz * sx);
    }
  }
}

// C(m, l.out) = A(m, l.in) W^T (+ bias).
void gemm_nt(std::int64_t m, const Layer& l, const float* a,
             const float* bias, float* c) {
  if (l.packed != nullptr)
    backend::sgemm_prepacked_nt(m, l.out, l.in, a, l.weight, l.packed, bias,
                                c);
  else if (bias != nullptr)
    backend::sgemm_bias_cols(Trans::kNo, Trans::kYes, m, l.out, l.in, 1.0f,
                             a, l.weight, 0.0f, bias, c);
  else
    backend::sgemm(Trans::kNo, Trans::kYes, m, l.out, l.in, 1.0f, a,
                   l.weight, 0.0f, c);
}

// W0's coordinate columns: wc[k * out + o] = W0(o, k), k in {t, z, x}.
void coord_columns(const Layer& l0, float* wc) {
  for (int k = 0; k < 3; ++k)
    for (std::int64_t o = 0; o < l0.out; ++o)
      wc[k * l0.out + o] = l0.weight[o * l0.in + k];
}

// Per-block buffer layout in floats, sized for a full block (a short last
// block uses the same offsets). The backward reads x, geo, z0 and the
// hidden jets h and z; y is the output layer's jet.
struct Frame {
  std::int64_t x = 0, geo = 0, z0 = 0, y = 0, total = 0;
  std::vector<std::int64_t> h;  // h[l]: jet out of hidden layer l
  std::vector<std::int64_t> z;  // z[l]: pre-activation jet of hidden l > 0
};

Frame make_frame(const std::vector<Layer>& layers) {
  Frame f;
  f.h.assign(layers.size(), 0);
  f.z.assign(layers.size(), 0);
  auto take = [&f](std::int64_t floats) {
    const std::int64_t at = f.total;
    f.total += (floats + 15) / 16 * 16;  // 64-byte aligned regions
    return at;
  };
  f.x = take(kBlockRows * layers.front().in);
  f.geo = take(4 * kBlockRows);
  if (layers.size() > 1) f.z0 = take(kBlockRows * layers.front().out);
  for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
    if (l > 0) f.z[l] = take(6 * kBlockRows * layers[l].out);
    f.h[l] = take(6 * kBlockRows * layers[l].out);
  }
  f.y = take(6 * kBlockRows * layers.back().out);
  return f;
}

std::int64_t block_count(const Grid& g) {
  return (g.n * g.q + kBlockQueries - 1) / kBlockQueries;
}

template <class P, Activation A>
void forward_block(const Grid& g, const float* coords,
                   const std::vector<Layer>& layers, const Frame& fr,
                   const float* wc, std::int64_t q0, std::int64_t nb,
                   float* base, const std::array<float*, kMembers>& outs) {
  const std::int64_t rows = 8 * nb;
  const Layer& first = layers.front();
  const Layer& last = layers.back();
  float* y = base + fr.y;
  gather(g, coords, q0, nb, base + fr.x, base + fr.geo);
  if (layers.size() == 1) {
    gemm_nt(rows, first, base + fr.x, first.bias, y);
    fold_linear_layer0(rows, first.out, wc, y);
  } else {
    gemm_nt(rows, first, base + fr.x, first.bias, base + fr.z0);
    fold_layer0<P, A>(rows, first.out, base + fr.z0, wc, base + fr.h[0]);
    for (std::size_t l = 1; l < layers.size(); ++l) {
      const bool hidden = l + 1 < layers.size();
      float* z = hidden ? base + fr.z[l] : y;
      gemm_nt(6 * rows, layers[l], base + fr.h[l - 1], nullptr, z);
      if (hidden)
        act_forward<P, A>(rows, layers[l].out, layers[l].bias, z,
                          base + fr.h[l]);
    }
    if (last.bias != nullptr)  // the output bias reaches the value only
      for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t o = 0; o < last.out; ++o)
          y[r * last.out + o] += last.bias[o];
  }
  blend(nb, last.out, y, base + fr.geo, q0, outs);
}

// Forward over every block. With `saved`, block blk's frame stays at
// saved + blk * fr.total for the backward; without, frames are scratch.
void run_forward(const Grid& g, const float* coords,
                 const std::vector<Layer>& layers, Activation act,
                 const Frame& fr, float* saved,
                 const std::array<float*, kMembers>& outs) {
  const std::int64_t total = g.n * g.q;
  dispatch(act, [&](auto lanes, auto tag) {
    using P = decltype(lanes);
    using Tag = decltype(tag);
    parallel_for(
        block_count(g),
        [&](std::int64_t blk0, std::int64_t blk1) {
          backend::Workspace& ws = backend::local_workspace();
          const backend::Workspace::Mark mark = ws.mark();
          float* wc =
              ws.alloc(static_cast<std::size_t>(3 * layers.front().out));
          coord_columns(layers.front(), wc);
          float* scratch =
              saved == nullptr
                  ? ws.alloc(static_cast<std::size_t>(fr.total))
                  : nullptr;
          for (std::int64_t blk = blk0; blk < blk1; ++blk) {
            const std::int64_t q0 = blk * kBlockQueries;
            forward_block<P, Tag::value>(
                g, coords, layers, fr, wc, q0,
                std::min(kBlockQueries, total - q0),
                saved == nullptr ? scratch : saved + blk * fr.total, outs);
          }
          ws.release(mark);
        },
        /*grain=*/1);
  });
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

// dst[o] = the sum over rows of g[r * w + o], in row order.
void column_sums(std::int64_t rows, std::int64_t w, const float* g,
                 float* dst) {
  std::fill(dst, dst + w, 0.0f);
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t o = 0; o < w; ++o) dst[o] += g[r * w + o];
}

// Blend adjoint: the member gradients of queries [q0, q0 + nb) (row
// m * total + q of g) -> the adjoint of the output layer's jet.
void blend_backward(std::int64_t nb, std::int64_t w, const float* geo,
                    std::int64_t q0, std::int64_t total, const float* g,
                    float* ybar) {
  const std::int64_t rows = 8 * nb, s = rows * w;
  for (std::int64_t b = 0; b < nb; ++b) {
    std::array<const float*, kMembers> gm{};
    for (int m = 0; m < kMembers; ++m) gm[m] = g + (m * total + q0 + b) * w;
    for (int j = 0; j < 8; ++j) {
      const std::int64_t row = j * nb + b;
      const float wq = geo[row], dt = geo[rows + row],
                  dz = geo[2 * rows + row], dx = geo[3 * rows + row];
      float* yb = ybar + row * w;
      for (std::int64_t c = 0; c < w; ++c) {
        yb[c] = wq * gm[kValue][c] + dt * gm[kDt][c] + dz * gm[kDz][c] +
                dx * gm[kDx][c];
        yb[s + c] = wq * gm[kDt][c];
        yb[2 * s + c] = wq * gm[kDz][c] + 2.0f * dz * gm[kDzz][c];
        yb[3 * s + c] = wq * gm[kDx][c] + 2.0f * dx * gm[kDxx][c];
        yb[4 * s + c] = wq * gm[kDzz][c];
        yb[5 * s + c] = wq * gm[kDxx][c];
      }
    }
  }
}

// Hidden layer l > 0 backward, in place: g holds the adjoint of the
// layer's output jet on entry and that of its pre-activation jet z on exit.
template <class P, Activation A>
void act_backward(std::int64_t rows, std::int64_t w, const float* z,
                  float* g) {
  using V = typename P::V;
  const std::int64_t s = rows * w;
  const V two = P::set1(2.0f);
  for_chunks<P>(rows, w, [&](std::int64_t i, std::int64_t, std::int64_t n) {
    V f{}, d1{}, d2{}, d3{};
    P::template derivs<A>(P::load(z + i, n), f, d1, d2, d3);
    const V tt = P::load(z + s + i, n), tz = P::load(z + 2 * s + i, n),
            tx = P::load(z + 3 * s + i, n), kz = P::load(z + 4 * s + i, n),
            kx = P::load(z + 5 * s + i, n);
    const V hb = P::load(g + i, n), ttb = P::load(g + s + i, n),
            tzb = P::load(g + 2 * s + i, n), txb = P::load(g + 3 * s + i, n),
            czb = P::load(g + 4 * s + i, n), cxb = P::load(g + 5 * s + i, n);
    const V mixed = tt * ttb + tz * tzb + tx * txb + kz * czb + kx * cxb;
    P::store(g + i,
             d1 * hb + d2 * mixed + d3 * (tz * tz * czb + tx * tx * cxb), n);
    P::store(g + s + i, d1 * ttb, n);
    P::store(g + 2 * s + i, d1 * tzb + two * d2 * tz * czb, n);
    P::store(g + 3 * s + i, d1 * txb + two * d2 * tx * cxb, n);
    P::store(g + 4 * s + i, d1 * czb, n);
    P::store(g + 5 * s + i, d1 * cxb, n);
  });
}

// Layer 0 backward (hidden): its tangents are W0's coordinate columns and
// its curvatures zero, so only the value adjoint zbar0 is written (to
// stream 0 of g) and the coordinate-column gradients add into csum (3 x w).
template <class P, Activation A>
void fold_layer0_backward(std::int64_t rows, std::int64_t w, const float* z0,
                          const float* wc, float* g, float* csum) {
  using V = typename P::V;
  const std::int64_t s = rows * w;
  const V two = P::set1(2.0f);
  for_chunks<P>(rows, w, [&](std::int64_t i, std::int64_t o, std::int64_t n) {
    V f{}, d1{}, d2{}, d3{};
    P::template derivs<A>(P::load(z0 + i, n), f, d1, d2, d3);
    const V wt = P::load(wc + o, n), wz = P::load(wc + w + o, n),
            wx = P::load(wc + 2 * w + o, n);
    const V ttb = P::load(g + s + i, n), tzb = P::load(g + 2 * s + i, n),
            txb = P::load(g + 3 * s + i, n), czb = P::load(g + 4 * s + i, n),
            cxb = P::load(g + 5 * s + i, n);
    P::store(g + i,
             d1 * P::load(g + i, n) + d2 * (wt * ttb + wz * tzb + wx * txb) +
                 d3 * (wz * wz * czb + wx * wx * cxb),
             n);
    P::store(csum + o, P::load(csum + o, n) + d1 * ttb, n);
    P::store(csum + w + o,
             P::load(csum + w + o, n) + (d1 * tzb + two * d2 * wz * czb), n);
    P::store(csum + 2 * w + o,
             P::load(csum + 2 * w + o, n) + (d1 * txb + two * d2 * wx * cxb),
             n);
  });
}

template <class P, Activation A>
void backward_block(const std::vector<Layer>& layers, const Frame& fr,
                    const GradLayout& gl, const float* wc, std::int64_t q0,
                    std::int64_t nb, std::int64_t total, const float* base,
                    const float* grad, float* part, float* ga, float* gb,
                    float* csum, float* xbar) {
  const std::int64_t rows = 8 * nb;
  float* cur = ga;
  float* nxt = gb;
  blend_backward(nb, layers.back().out, base + fr.geo, q0, total, grad, cur);
  // cur holds the adjoint of layer l's pre-activation jet.
  for (std::size_t l = layers.size() - 1; l >= 1; --l) {
    const Layer& ly = layers[l];
    backend::sgemm(Trans::kYes, Trans::kNo, ly.out, ly.in, 6 * rows, 1.0f,
                   cur, base + fr.h[l - 1], 0.0f, part + gl.w[l]);
    if (ly.bias != nullptr) column_sums(rows, ly.out, cur, part + gl.b[l]);
    backend::sgemm(Trans::kNo, Trans::kNo, 6 * rows, ly.in, ly.out, 1.0f,
                   cur, ly.weight, 0.0f, nxt);
    std::swap(cur, nxt);
    if (l >= 2) act_backward<P, A>(rows, ly.in, base + fr.z[l - 1], cur);
  }
  const Layer& l0 = layers.front();
  std::fill(csum, csum + 3 * l0.out, 0.0f);
  if (layers.size() == 1) {
    for (int k = 0; k < 3; ++k)
      column_sums(rows, l0.out, cur + (k + 1) * rows * l0.out,
                  csum + k * l0.out);
  } else {
    fold_layer0_backward<P, A>(rows, l0.out, base + fr.z0, wc, cur, csum);
  }
  // Stream 0 of cur is now zbar0.
  float* dw0 = part + gl.w[0];
  backend::sgemm(Trans::kYes, Trans::kNo, l0.out, l0.in, rows, 1.0f, cur,
                 base + fr.x, 0.0f, dw0);
  for (std::int64_t o = 0; o < l0.out; ++o)
    for (int k = 0; k < 3; ++k) dw0[o * l0.in + k] += csum[k * l0.out + o];
  if (l0.bias != nullptr) column_sums(rows, l0.out, cur, part + gl.b[0]);
  if (xbar != nullptr)
    backend::sgemm(Trans::kNo, Trans::kNo, rows, l0.in, l0.out, 1.0f, cur,
                   l0.weight, 0.0f, xbar);
}

// Backward over every block: block blk's weight and bias gradients go to
// partials + blk * gl.total and its layer-0 input adjoint (when xbar is
// not null) to xbar + blk * kBlockRows * in0.
void run_backward(const Grid& g, const std::vector<Layer>& layers,
                  Activation act, const Frame& fr, const float* saved,
                  const float* grad, const GradLayout& gl, float* partials,
                  float* xbar) {
  const std::int64_t total = g.n * g.q;
  std::int64_t wmax = 0;
  for (const Layer& l : layers) wmax = std::max(wmax, l.out);
  dispatch(act, [&](auto lanes, auto tag) {
    using P = decltype(lanes);
    using Tag = decltype(tag);
    parallel_for(
        block_count(g),
        [&](std::int64_t blk0, std::int64_t blk1) {
          backend::Workspace& ws = backend::local_workspace();
          const backend::Workspace::Mark mark = ws.mark();
          const std::int64_t out0 = layers.front().out;
          float* wc = ws.alloc(static_cast<std::size_t>(3 * out0));
          float* csum = ws.alloc(static_cast<std::size_t>(3 * out0));
          float* ga =
              ws.alloc(static_cast<std::size_t>(6 * kBlockRows * wmax));
          float* gb =
              ws.alloc(static_cast<std::size_t>(6 * kBlockRows * wmax));
          coord_columns(layers.front(), wc);
          for (std::int64_t blk = blk0; blk < blk1; ++blk) {
            const std::int64_t q0 = blk * kBlockQueries;
            backward_block<P, Tag::value>(
                layers, fr, gl, wc, q0, std::min(kBlockQueries, total - q0),
                total, saved + blk * fr.total, grad, partials + blk * gl.total,
                ga, gb, csum,
                xbar == nullptr
                    ? nullptr
                    : xbar + blk * kBlockRows * layers.front().in);
          }
          ws.release(mark);
        },
        /*grain=*/1);
  });
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

// Scatter-adds the latent columns of the layer-0 input adjoint into the
// latent gradient. Parallel over samples, whose latent slabs are disjoint;
// within a sample, queries and corners go in a fixed order.
void scatter_latent(const Grid& g, const float* coords, const float* xbar,
                    float* glat) {
  const std::int64_t total = g.n * g.q, in0 = 3 + g.c;
  const std::int64_t slab = g.lt * g.lz * g.lx;
  parallel_for(
      g.n,
      [&](std::int64_t n0, std::int64_t n1) {
        for (std::int64_t b = n0 * g.q; b < n1 * g.q; ++b) {
          const std::int64_t blk = b / kBlockQueries;
          const std::int64_t q0 = blk * kBlockQueries;
          const std::int64_t nb = std::min(kBlockQueries, total - q0);
          const Cell cell = locate(g, coords, b);
          const float* xb = xbar + blk * kBlockRows * in0;
          for (int j = 0; j < 8; ++j) {
            const float* src = xb + (j * nb + b - q0) * in0 + 3;
            float* dst = glat + cell.base + corner_offset(g, j);
            for (std::int64_t c = 0; c < g.c; ++c) dst[c * slab] += src[c];
          }
        }
      },
      /*grain=*/1);
}

}  // namespace

void forward(const Grid& grid, const float* coords,
             const std::vector<Layer>& layers, nn::Activation act,
             const std::array<float*, kMembers>& outs) {
  run_forward(grid, coords, layers, act, make_frame(layers), nullptr, outs);
}

}  // namespace jet

ad::Var decode_jet(const ad::Var& latent, const Tensor& coords,
                   std::int64_t q, const nn::MLP& mlp) {
  const Tensor& lat = latent.value();
  const jet::Grid grid{lat.data(), lat.dim(0), q,         lat.dim(1),
                       lat.dim(2), lat.dim(3), lat.dim(4)};
  const nn::Activation act = mlp.activation();
  // Parents: the latent, then each layer's weight and, when present, bias.
  // wslot / bslot hold their parent indices (bslot 0: no bias).
  std::vector<ad::Var> parents{latent};
  std::vector<std::size_t> wslot, bslot;
  std::vector<jet::Layer> layers;
  for (const auto& fc : mlp.layers()) {
    wslot.push_back(parents.size());
    parents.push_back(fc->weight());
    bslot.push_back(fc->has_bias() ? parents.size() : 0);
    if (fc->has_bias()) parents.push_back(fc->bias());
    layers.push_back({fc->in_features(), fc->out_features(),
                      fc->weight().value().data(),
                      fc->has_bias() ? fc->bias().value().data() : nullptr,
                      nullptr});
  }
  const std::int64_t total = grid.n * q, width = layers.back().out;
  Tensor out = Tensor::uninitialized(Shape{jet::kMembers * total, width});
  std::array<float*, jet::kMembers> outs{};
  for (int m = 0; m < jet::kMembers; ++m)
    outs[m] = out.data() + m * total * width;

  bool needs_grad = false;
  if (!ad::NoGradGuard::active())
    for (const ad::Var& p : parents)
      needs_grad = needs_grad || p.requires_grad();
  const jet::Frame fr = jet::make_frame(layers);
  Tensor saved;
  if (needs_grad)
    saved = Tensor::uninitialized(Shape{jet::block_count(grid) * fr.total});

  // Weight panels packed once per call put every forward GEMM on the
  // prepacked path, the skinny output layer's fast kernel included.
  backend::Workspace& ws = backend::local_workspace();
  const backend::Workspace::Mark mark = ws.mark();
  for (jet::Layer& l : layers) {
    if (l.in > backend::sgemm_prepacked_max_k()) continue;
    float* panels = ws.alloc(backend::sgemm_prepack_b_floats(l.in, l.out));
    backend::sgemm_prepack_b(backend::Trans::kYes, l.in, l.out, l.weight,
                             panels);
    l.packed = panels;
  }
  jet::run_forward(grid, coords.data(), layers, act, fr,
                   needs_grad ? saved.data() : nullptr, outs);
  ws.release(mark);
  if (!needs_grad) return ad::Var(std::move(out), /*requires_grad=*/false);

  return ad::make_op(
      std::move(out), std::move(parents),
      [grid, fr, saved, geometry = coords.clone(), wslot, bslot,
       act](ad::Node& n) {
        std::vector<jet::Layer> ls;
        for (std::size_t l = 0; l < wslot.size(); ++l) {
          const Tensor& w = n.parents[wslot[l]]->value;
          ls.push_back({w.dim(1), w.dim(0), w.data(),
                        bslot[l] != 0 ? n.parents[bslot[l]]->value.data()
                                      : nullptr,
                        nullptr});
        }
        const jet::GradLayout gl = jet::grad_layout(ls);
        const std::int64_t nblocks = jet::block_count(grid);
        ad::Node& lat = *n.parents[0];
        Tensor partials = Tensor::uninitialized(Shape{nblocks * gl.total});
        Tensor xbar;
        if (lat.requires_grad)
          xbar = Tensor::uninitialized(
              Shape{nblocks * jet::kBlockRows * ls.front().in});
        jet::run_backward(grid, ls, act, fr, saved.data(), n.grad.data(), gl,
                          partials.data(),
                          lat.requires_grad ? xbar.data() : nullptr);
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
        if (lat.requires_grad)
          jet::scatter_latent(grid, geometry.data(), xbar.data(),
                              lat.ensure_grad().data());
      });
}

}  // namespace mfn::core
