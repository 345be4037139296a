#include "tensor/nn_kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "backend/sgemm.h"
#include "backend/simd.h"
#include "backend/workspace.h"
#include "common/error.h"
#include "tensor/tensor_ops.h"
#include "threading/thread_pool.h"

namespace mfn {
namespace {

void check_5d(const Tensor& t, const char* what) {
  MFN_CHECK(t.ndim() == 5, what << " must be 5-D (N,C,D,H,W), got "
                                << t.shape().str());
}

// ---- batchnorm slab kernels (SIMD with scalar reference fallback) --------
// All four passes are straight sweeps over per-(sample, channel) slabs of
// S spatial elements; the channel loop above them is the parallel axis.
// Accumulators flush into doubles on the shared simd::kReduceFlushElems
// policy, matching the tensor_ops reductions' parity behavior.

/// sp += sum(p), spq += sum(p * q) over [0, n). Both batchnorm reductions
/// are this shape: forward mean/var passes q == p (sum of squares),
/// backward passes (gy, xhat).
void bn_pair_sums(const float* p, const float* q, std::int64_t n, double& sp,
                  double& spq) {
  if (!simd::enabled()) {
    for (std::int64_t i = 0; i < n; ++i) {
      sp += p[i];
      spq += static_cast<double>(p[i]) * q[i];
    }
    return;
  }
  constexpr int W = simd::kWidth;
  constexpr std::int64_t kFlush = simd::kReduceFlushElems;
  for (std::int64_t base = 0; base < n; base += kFlush) {
    const std::int64_t m = std::min<std::int64_t>(kFlush, n - base);
    simd::VF a = simd::vzero(), apq = simd::vzero();
    std::int64_t i = 0;
    for (; i + W <= m; i += W) {
      const simd::VF x = simd::vloadu(p + base + i);
      a = simd::vadd(a, x);
      apq = simd::vfma(x, simd::vloadu(q + base + i), apq);
    }
    const int tail = static_cast<int>(m - i);
    if (tail > 0) {
      const simd::VF x = simd::vload_partial(p + base + i, tail);
      a = simd::vadd(a, x);
      apq = simd::vfma(x, simd::vload_partial(q + base + i, tail), apq);
    }
    sp += static_cast<double>(simd::vhsum(a));
    spq += static_cast<double>(simd::vhsum(apq));
  }
}

/// xh = (s - mu) * inv;  o = g * xh + b.
void bn_normalize(const float* s, float* xh, float* o, std::int64_t n,
                  float mu, float inv, float g, float b) {
  if (!simd::enabled()) {
    for (std::int64_t i = 0; i < n; ++i) {
      xh[i] = (s[i] - mu) * inv;
      o[i] = g * xh[i] + b;
    }
    return;
  }
  constexpr int W = simd::kWidth;
  const simd::VF vmu = simd::vset1(mu), vinv = simd::vset1(inv);
  const simd::VF vg = simd::vset1(g), vb = simd::vset1(b);
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    const simd::VF x = simd::vmul(simd::vsub(simd::vloadu(s + i), vmu), vinv);
    simd::vstoreu(xh + i, x);
    simd::vstoreu(o + i, simd::vfma(vg, x, vb));
  }
  const int tail = static_cast<int>(n - i);
  if (tail > 0) {
    const simd::VF x = simd::vmul(
        simd::vsub(simd::vload_partial(s + i, tail), vmu), vinv);
    simd::vstore_partial(xh + i, x, tail);
    simd::vstore_partial(o + i, simd::vfma(vg, x, vb), tail);
  }
}

/// o = g * ((s - mu) * inv) + b (eval mode; no xhat saved).
void bn_eval_normalize(const float* s, float* o, std::int64_t n, float mu,
                       float inv, float g, float b) {
  if (!simd::enabled()) {
    for (std::int64_t i = 0; i < n; ++i) o[i] = g * (s[i] - mu) * inv + b;
    return;
  }
  constexpr int W = simd::kWidth;
  const simd::VF vmu = simd::vset1(mu), vinv = simd::vset1(inv);
  const simd::VF vg = simd::vset1(g), vb = simd::vset1(b);
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    const simd::VF x = simd::vmul(simd::vsub(simd::vloadu(s + i), vmu), vinv);
    simd::vstoreu(o + i, simd::vfma(vg, x, vb));
  }
  const int tail = static_cast<int>(n - i);
  if (tail > 0) {
    const simd::VF x = simd::vmul(
        simd::vsub(simd::vload_partial(s + i, tail), vmu), vinv);
    simd::vstore_partial(o + i, simd::vfma(vg, x, vb), tail);
  }
}

/// gx = k * (M * gy - sg - xh * sgx).
void bn_grad_gx(const float* gy, const float* xh, float* gx, std::int64_t n,
                float k, float M, float sg, float sgx) {
  if (!simd::enabled()) {
    for (std::int64_t i = 0; i < n; ++i)
      gx[i] = k * (M * gy[i] - sg - xh[i] * sgx);
    return;
  }
  constexpr int W = simd::kWidth;
  const simd::VF vk = simd::vset1(k), vM = simd::vset1(M);
  const simd::VF vsg = simd::vset1(sg), vsgx = simd::vset1(sgx);
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    const simd::VF t = simd::vsub(
        simd::vsub(simd::vmul(vM, simd::vloadu(gy + i)), vsg),
        simd::vmul(simd::vloadu(xh + i), vsgx));
    simd::vstoreu(gx + i, simd::vmul(vk, t));
  }
  const int tail = static_cast<int>(n - i);
  if (tail > 0) {
    const simd::VF t = simd::vsub(
        simd::vsub(simd::vmul(vM, simd::vload_partial(gy + i, tail)), vsg),
        simd::vmul(simd::vload_partial(xh + i, tail), vsgx));
    simd::vstore_partial(gx + i, simd::vmul(vk, t), tail);
  }
}

std::int64_t out_size(std::int64_t in, std::int64_t k, std::int64_t s,
                      std::int64_t p) {
  return (in + 2 * p - k) / s + 1;
}

// Scatter/gather between a padded input volume (C, D, H, W) and the column
// matrix (C*KD*KH*KW, OD*OH*OW).
struct ColGeom {
  std::int64_t C, D, H, W, KD, KH, KW, OD, OH, OW;
  Dims3 stride, pad;
};

void vol2col(const float* x, const ColGeom& g, float* col) {
  const std::int64_t L = g.OD * g.OH * g.OW;
  const std::int64_t K = g.KD * g.KH * g.KW;
  // "Same-size" convs (unit H/W stride, OH == H, OW == W — e.g. the 3x3x3
  // pad-1 convs of the context network) admit a plane-at-a-time fast path:
  // for |w-shift| <= 1 a whole (OH x W) block is one contiguous copy whose
  // wrapped-around boundary column is then punched to zero.
  const bool same2d = g.stride[1] == 1 && g.stride[2] == 1 &&
                      g.OH == g.H && g.OW == g.W;
  for (std::int64_t c = 0; c < g.C; ++c) {
    const float* xc = x + c * g.D * g.H * g.W;
    for (std::int64_t kd = 0; kd < g.KD; ++kd)
      for (std::int64_t kh = 0; kh < g.KH; ++kh)
        for (std::int64_t kw = 0; kw < g.KW; ++kw) {
          float* crow = col + (c * K + (kd * g.KH + kh) * g.KW + kw) * L;
          // For unit W-stride the in-bounds ow range is one contiguous run:
          // a zero prefix, a straight copy, and a zero suffix. That removes
          // the per-element bounds branch from the hot inner loop.
          std::int64_t lo = 0, hi = g.OW;
          if (g.stride[2] == 1) {
            lo = std::clamp<std::int64_t>(g.pad[2] - kw, 0, g.OW);
            hi = std::clamp<std::int64_t>(g.W + g.pad[2] - kw, 0, g.OW);
          }
          const std::int64_t dw = kw - g.pad[2];
          if (same2d && dw >= -1 && dw <= 1) {
            const std::int64_t oh_lo =
                std::clamp<std::int64_t>(g.pad[1] - kh, 0, g.OH);
            const std::int64_t oh_hi =
                std::clamp<std::int64_t>(g.H + g.pad[1] - kh, 0, g.OH);
            for (std::int64_t od = 0; od < g.OD; ++od) {
              const std::int64_t d = od * g.stride[0] - g.pad[0] + kd;
              float* dstp = crow + od * g.OH * g.OW;
              if (d < 0 || d >= g.D || oh_lo >= oh_hi) {
                std::fill(dstp, dstp + g.OH * g.OW, 0.0f);
                continue;
              }
              std::fill(dstp, dstp + oh_lo * g.W, 0.0f);
              std::fill(dstp + oh_hi * g.W, dstp + g.OH * g.W, 0.0f);
              const float* src0 = xc + (d * g.H + (oh_lo - g.pad[1] + kh)) * g.W;
              const std::int64_t n = (oh_hi - oh_lo) * g.W;
              float* dst0 = dstp + oh_lo * g.W;
              if (dw == 0) {
                std::copy(src0, src0 + n, dst0);
              } else if (dw == 1) {
                // dst[r][w] = src[r][w+1]; the flat copy drags row r+1's
                // first element into column W-1, punched to zero below.
                std::copy(src0 + 1, src0 + n, dst0);
                for (std::int64_t r = oh_lo; r < oh_hi; ++r)
                  dstp[r * g.W + g.W - 1] = 0.0f;
              } else {  // dw == -1
                std::copy(src0, src0 + n - 1, dst0 + 1);
                for (std::int64_t r = oh_lo; r < oh_hi; ++r)
                  dstp[r * g.W] = 0.0f;
              }
            }
            continue;
          }
          for (std::int64_t od = 0; od < g.OD; ++od) {
            const std::int64_t d = od * g.stride[0] - g.pad[0] + kd;
            const bool dok = d >= 0 && d < g.D;
            for (std::int64_t oh = 0; oh < g.OH; ++oh) {
              const std::int64_t h = oh * g.stride[1] - g.pad[1] + kh;
              const bool hok = dok && h >= 0 && h < g.H;
              float* dst = crow + (od * g.OH + oh) * g.OW;
              if (!hok) {
                std::fill(dst, dst + g.OW, 0.0f);
                continue;
              }
              const float* src = xc + (d * g.H + h) * g.W;
              if (g.stride[2] == 1) {
                std::fill(dst, dst + lo, 0.0f);
                std::copy(src + (lo - g.pad[2] + kw),
                          src + (hi - g.pad[2] + kw), dst + lo);
                std::fill(dst + hi, dst + g.OW, 0.0f);
              } else {
                for (std::int64_t ow = 0; ow < g.OW; ++ow) {
                  const std::int64_t w = ow * g.stride[2] - g.pad[2] + kw;
                  dst[ow] = (w >= 0 && w < g.W) ? src[w] : 0.0f;
                }
              }
            }
          }
        }
  }
}

// Seed copy of vol2col (per-element bounds checks), used only by the
// *_reference conv paths so the baseline stays the pre-backend code.
void vol2col_reference(const float* x, const ColGeom& g, float* col) {
  const std::int64_t L = g.OD * g.OH * g.OW;
  const std::int64_t K = g.KD * g.KH * g.KW;
  for (std::int64_t c = 0; c < g.C; ++c) {
    const float* xc = x + c * g.D * g.H * g.W;
    for (std::int64_t kd = 0; kd < g.KD; ++kd)
      for (std::int64_t kh = 0; kh < g.KH; ++kh)
        for (std::int64_t kw = 0; kw < g.KW; ++kw) {
          float* crow = col + (c * K + (kd * g.KH + kh) * g.KW + kw) * L;
          for (std::int64_t od = 0; od < g.OD; ++od) {
            const std::int64_t d = od * g.stride[0] - g.pad[0] + kd;
            const bool dok = d >= 0 && d < g.D;
            for (std::int64_t oh = 0; oh < g.OH; ++oh) {
              const std::int64_t h = oh * g.stride[1] - g.pad[1] + kh;
              const bool hok = dok && h >= 0 && h < g.H;
              float* dst = crow + (od * g.OH + oh) * g.OW;
              if (!hok) {
                std::fill(dst, dst + g.OW, 0.0f);
                continue;
              }
              const float* src = xc + (d * g.H + h) * g.W;
              for (std::int64_t ow = 0; ow < g.OW; ++ow) {
                const std::int64_t w = ow * g.stride[2] - g.pad[2] + kw;
                dst[ow] = (w >= 0 && w < g.W) ? src[w] : 0.0f;
              }
            }
          }
        }
  }
}

void col2vol_accumulate(const float* col, const ColGeom& g, float* x) {
  const std::int64_t L = g.OD * g.OH * g.OW;
  const std::int64_t K = g.KD * g.KH * g.KW;
  for (std::int64_t c = 0; c < g.C; ++c) {
    float* xc = x + c * g.D * g.H * g.W;
    for (std::int64_t kd = 0; kd < g.KD; ++kd)
      for (std::int64_t kh = 0; kh < g.KH; ++kh)
        for (std::int64_t kw = 0; kw < g.KW; ++kw) {
          const float* crow = col + (c * K + (kd * g.KH + kh) * g.KW + kw) * L;
          for (std::int64_t od = 0; od < g.OD; ++od) {
            const std::int64_t d = od * g.stride[0] - g.pad[0] + kd;
            if (d < 0 || d >= g.D) continue;
            for (std::int64_t oh = 0; oh < g.OH; ++oh) {
              const std::int64_t h = oh * g.stride[1] - g.pad[1] + kh;
              if (h < 0 || h >= g.H) continue;
              const float* src = crow + (od * g.OH + oh) * g.OW;
              float* dst = xc + (d * g.H + h) * g.W;
              for (std::int64_t ow = 0; ow < g.OW; ++ow) {
                const std::int64_t w = ow * g.stride[2] - g.pad[2] + kw;
                if (w >= 0 && w < g.W) dst[w] += src[ow];
              }
            }
          }
        }
  }
}

ColGeom make_geom(const Shape& xs, const Shape& ws, const Conv3dSpec& spec) {
  ColGeom g;
  g.C = xs[1];
  g.D = xs[2];
  g.H = xs[3];
  g.W = xs[4];
  g.KD = ws[2];
  g.KH = ws[3];
  g.KW = ws[4];
  g.OD = out_size(g.D, g.KD, spec.stride[0], spec.padding[0]);
  g.OH = out_size(g.H, g.KH, spec.stride[1], spec.padding[1]);
  g.OW = out_size(g.W, g.KW, spec.stride[2], spec.padding[2]);
  g.stride = spec.stride;
  g.pad = spec.padding;
  return g;
}

// Column-matrix extents (CK rows, L columns) with overflow guards: the
// products below used to be silent int64 multiplies cast to size_t for
// workspace sizing, which wraps for adversarial shapes. Every conv path
// sizes itself through here.
struct ColExtents {
  std::int64_t CK, L;
};

ColExtents col_extents(const ColGeom& g) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  auto checked_mul = [](std::int64_t a, std::int64_t b, const char* what) {
    MFN_CHECK(a >= 0 && b >= 0 && (b == 0 || a <= kMax / b),
              "conv3d sizing overflow in " << what << " (" << a << " * " << b
                                           << ")");
    return a * b;
  };
  ColExtents e;
  e.CK = checked_mul(checked_mul(checked_mul(g.C, g.KD, "C*KD"), g.KH,
                                 "C*KD*KH"),
                     g.KW, "C*KD*KH*KW");
  e.L = checked_mul(checked_mul(g.OD, g.OH, "OD*OH"), g.OW, "OD*OH*OW");
  checked_mul(e.CK, e.L, "CK*L");
  return e;
}

bool is_pointwise(const ColGeom& g) {
  return g.KD == 1 && g.KH == 1 && g.KW == 1 && g.stride[0] == 1 &&
         g.stride[1] == 1 && g.stride[2] == 1 && g.pad[0] == 0 &&
         g.pad[1] == 0 && g.pad[2] == 0;
}

// Vectorized span sum for the conv bias gradient rows: the canonical
// blocked reduction (simd::vreduce, the shared flush policy's single
// implementation), scalar_ref::sum as the forced-scalar oracle path.
double span_sum(const float* p, std::int64_t n) {
  if (!simd::enabled()) return scalar_ref::sum(p, n);
  return simd::vreduce(
      p, n, [](simd::VF a, simd::VF x) { return simd::vadd(a, x); });
}

// ---------------------------------------------- implicit-GEMM conv3d -----
// The im2col column matrix col(ck, l) is never built; instead these
// callbacks produce (and consume) its panels on demand in the backend's
// packed layout, straight from the (padded) input volume.

// Decomposition of a flat ck row index into (channel, kd, kh, kw).
struct CkCoord {
  std::int64_t c, kd, kh, kw;
};

inline CkCoord ck_coord(const ColGeom& g, std::int64_t ck) {
  const std::int64_t K3 = g.KD * g.KH * g.KW;
  CkCoord o;
  o.c = ck / K3;
  const std::int64_t r = ck % K3;
  o.kd = r / (g.KH * g.KW);
  o.kh = (r / g.KW) % g.KH;
  o.kw = r % g.KW;
  return o;
}

// Advance a CkCoord to the next flat ck index without divides (odometer
// carry over kw -> kh -> kd -> c).
inline void ck_advance(const ColGeom& g, CkCoord& cc) {
  if (++cc.kw < g.KW) return;
  cc.kw = 0;
  if (++cc.kh < g.KH) return;
  cc.kh = 0;
  if (++cc.kd < g.KD) return;
  cc.kd = 0;
  ++cc.c;
}

// The output-position range [j0, j0+cols) of a panel decomposed into runs
// sharing one (od, oh) output row. Built once per panel (the only place
// the pack/scatter loops divide), then every ck row replays the segments
// with plain adds. d0/h0/w0 are the source coordinates at kernel offset
// (0, 0, 0); within a segment w advances by stride[2] per column.
struct LSeg {
  int i;    // start offset within the panel
  int len;  // run length
  std::int64_t d0, h0, w0;
};

// At most one segment per output row touched; panel width <= 64 on every
// tier, so 64 segments bound the worst case (OW == 1).
int build_lsegs(const ColGeom& g, std::int64_t j0, int cols, LSeg* segs) {
  const std::int64_t HW = g.OH * g.OW;
  std::int64_t od = j0 / HW;
  const std::int64_t rem = j0 % HW;
  std::int64_t oh = rem / g.OW;
  std::int64_t ow = rem % g.OW;
  int n = 0, i = 0;
  while (i < cols) {
    const int len =
        static_cast<int>(std::min<std::int64_t>(cols - i, g.OW - ow));
    segs[n++] = {i, len, od * g.stride[0] - g.pad[0],
                 oh * g.stride[1] - g.pad[1], ow * g.stride[2] - g.pad[2]};
    i += len;
    ow += len;
    if (ow >= g.OW) {
      ow = 0;
      if (++oh >= g.OH) {
        oh = 0;
        ++od;
      }
    }
  }
  return n;
}

struct VolPanelCtx {
  const float* x;  // one sample's (C, D, H, W) slab
  float* gx;       // scatter destination for the dX sink (else null)
  const ColGeom* g;
};

// PackBSource for the forward product W x col: pack
// col[k0:k0+kc, j0:j0+cols] (rows = ck, columns = output positions l)
// k-major into dst. Per row, each segment is a zero-prefix / contiguous
// copy / zero-suffix over one input row (unit W-stride), so the hot path
// is memcpy-shaped with no per-element bounds checks and no divides.
void pack_vol_panel(void* ctx_, std::int64_t k0, std::int64_t kc,
                    std::int64_t j0, int cols, int ldp, float* dst) {
  const auto& ctx = *static_cast<const VolPanelCtx*>(ctx_);
  const ColGeom& g = *ctx.g;
  MFN_CHECK(ldp <= 64, "panel width " << ldp << " exceeds pack scratch");
  LSeg segs[64];
  const int nseg = build_lsegs(g, j0, cols, segs);
  CkCoord cc = ck_coord(g, k0);
  for (std::int64_t kk = 0; kk < kc; ++kk, ck_advance(g, cc)) {
    const float* xc = ctx.x + cc.c * g.D * g.H * g.W;
    float* drow = dst + kk * ldp;
    for (int s = 0; s < nseg; ++s) {
      const LSeg& sg = segs[s];
      const std::int64_t d = sg.d0 + cc.kd;
      const std::int64_t h = sg.h0 + cc.kh;
      float* dp = drow + sg.i;
      if (d < 0 || d >= g.D || h < 0 || h >= g.H) {
        std::fill(dp, dp + sg.len, 0.0f);
      } else if (g.stride[2] == 1) {
        const std::int64_t w0 = sg.w0 + cc.kw;
        // in-bounds t range: w0 + t in [0, W)
        const std::int64_t lo = std::clamp<std::int64_t>(
            -w0, 0, static_cast<std::int64_t>(sg.len));
        const std::int64_t hi = std::clamp<std::int64_t>(
            g.W - w0, 0, static_cast<std::int64_t>(sg.len));
        std::fill(dp, dp + lo, 0.0f);
        const float* src = xc + (d * g.H + h) * g.W + w0;
        for (std::int64_t t = lo; t < hi; ++t) dp[t] = src[t];
        std::fill(dp + hi, dp + sg.len, 0.0f);
      } else {
        const float* src = xc + (d * g.H + h) * g.W;
        for (int t = 0; t < sg.len; ++t) {
          const std::int64_t w = sg.w0 + t * g.stride[2] + cc.kw;
          dp[t] = (w >= 0 && w < g.W) ? src[w] : 0.0f;
        }
      }
    }
    for (int t = cols; t < ldp; ++t) drow[t] = 0.0f;
  }
}

// PackBSource for the weight-gradient product gy x col^T: pack
// col^T[k0:k0+kc, j0:j0+cols] (rows = output positions l, columns = ck).
// The per-column kernel-offset decomposition is hoisted out of the row
// loop, and the row's output position advances odometer-style — the one
// divide pair is at k0.
void pack_volT_panel(void* ctx_, std::int64_t k0, std::int64_t kc,
                     std::int64_t j0, int cols, int ldp, float* dst) {
  const auto& ctx = *static_cast<const VolPanelCtx*>(ctx_);
  const ColGeom& g = *ctx.g;
  const std::int64_t HW = g.OH * g.OW;
  CkCoord cc[64];
  MFN_CHECK(ldp <= 64, "panel width " << ldp << " exceeds pack scratch");
  for (int c = 0; c < cols; ++c) cc[c] = ck_coord(g, j0 + c);
  std::int64_t od = k0 / HW;
  const std::int64_t rem = k0 % HW;
  std::int64_t oh = rem / g.OW;
  std::int64_t ow = rem % g.OW;
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const std::int64_t d0 = od * g.stride[0] - g.pad[0];
    const std::int64_t h0 = oh * g.stride[1] - g.pad[1];
    const std::int64_t w0 = ow * g.stride[2] - g.pad[2];
    float* drow = dst + kk * ldp;
    for (int c = 0; c < cols; ++c) {
      const std::int64_t d = d0 + cc[c].kd;
      const std::int64_t h = h0 + cc[c].kh;
      const std::int64_t w = w0 + cc[c].kw;
      drow[c] = (d >= 0 && d < g.D && h >= 0 && h < g.H && w >= 0 &&
                 w < g.W)
                    ? ctx.x[((cc[c].c * g.D + d) * g.H + h) * g.W + w]
                    : 0.0f;
    }
    for (int c = cols; c < ldp; ++c) drow[c] = 0.0f;
    if (++ow >= g.OW) {
      ow = 0;
      if (++oh >= g.OH) {
        oh = 0;
        ++od;
      }
    }
  }
}

// StripSink for the dX product W^T x gy: strip rows are ck, columns are
// output positions [j0, j0+cols); scatter-accumulate each element into the
// input-gradient volume (fused col2vol epilogue), reusing the panel's
// segment decomposition. Runs serially over strips within a sample —
// receptive fields of neighbouring strips overlap — while the batch loop
// above provides the parallelism.
void scatter_col_strip(void* ctx_, std::int64_t j0, int cols,
                       const float* strip, int ld) {
  const auto& ctx = *static_cast<const VolPanelCtx*>(ctx_);
  const ColGeom& g = *ctx.g;
  const std::int64_t CK = g.C * g.KD * g.KH * g.KW;
  MFN_CHECK(cols <= 64, "strip width " << cols << " exceeds pack scratch");
  LSeg segs[64];
  const int nseg = build_lsegs(g, j0, cols, segs);
  CkCoord cc = ck_coord(g, 0);
  for (std::int64_t ck = 0; ck < CK; ++ck, ck_advance(g, cc)) {
    float* xc = ctx.gx + cc.c * g.D * g.H * g.W;
    const float* srow = strip + ck * ld;
    for (int s = 0; s < nseg; ++s) {
      const LSeg& sg = segs[s];
      const std::int64_t d = sg.d0 + cc.kd;
      const std::int64_t h = sg.h0 + cc.kh;
      if (d < 0 || d >= g.D || h < 0 || h >= g.H) continue;
      float* xrow = xc + (d * g.H + h) * g.W;
      const float* sp = srow + sg.i;
      if (g.stride[2] == 1) {
        const std::int64_t w0 = sg.w0 + cc.kw;
        const std::int64_t lo = std::clamp<std::int64_t>(
            -w0, 0, static_cast<std::int64_t>(sg.len));
        const std::int64_t hi = std::clamp<std::int64_t>(
            g.W - w0, 0, static_cast<std::int64_t>(sg.len));
        float* xw = xrow + w0;
        for (std::int64_t t = lo; t < hi; ++t) xw[t] += sp[t];
      } else {
        for (int t = 0; t < sg.len; ++t) {
          const std::int64_t w = sg.w0 + t * g.stride[2] + cc.kw;
          if (w >= 0 && w < g.W) xrow[w] += sp[t];
        }
      }
    }
  }
}

// ------------------------------------ zero-pack same-geometry fast path --
// For the dominant conv shape of the context network — stride 1 with
// "same" padding, so output and input lattices coincide — every row of the
// implicit column matrix is a *shifted window* of the zero-padded input
// volume. Instead of packing anything, the microkernel reads its B vectors
// directly from those windows (backend::sgemm_browptr_tile): the padded
// volume is built once per sample (~1.4x the input, cache-resident) and
// each voxel is then re-read from cache by up to KD*KH*KW kernel taps with
// zero per-element pack or bounds cost. Vector tiers only; output rows
// must be a multiple of the vector width so no B vector straddles the
// row gap of the padded lattice.

bool same_geometry(const ColGeom& g) {
  return g.stride[0] == 1 && g.stride[1] == 1 && g.stride[2] == 1 &&
         g.OD == g.D && g.OH == g.H && g.OW == g.W;
}

bool same_direct_ok(const ColGeom& g) {
  // Full-width tiles need whole vectors per output row; narrower rows
  // (e.g. 8-wide patches on a 16-lane tier) run the masked two-row tile
  // variant instead. Rows that are neither leave the fast path.
  return simd::kWidth > 1 && same_geometry(g) &&
         (g.OW % simd::kWidth == 0 || g.OW < simd::kWidth);
}

// One sample: pad into workspace scratch, build the CK window pointers,
// and sweep the output in panel-wide column tiles.
void conv_same_direct_sample(const float* x, const float* Ap, std::int64_t F,
                             const ColGeom& g,
                             const backend::SgemmEpilogue& ep, float* out,
                             backend::Workspace& ws) {
  const std::int64_t Dp = g.D + g.KD - 1, Hp = g.H + g.KH - 1,
                     Wp = g.W + g.KW - 1;
  const std::int64_t slabp = Dp * Hp * Wp;
  const std::int64_t CK = g.C * g.KD * g.KH * g.KW;
  const std::int64_t L = g.OD * g.OH * g.OW;
  const std::int64_t HW = g.OH * g.OW;
  const backend::Workspace::Mark m = ws.mark();
  float* xp = ws.alloc(static_cast<std::size_t>(g.C * slabp));
  std::fill(xp, xp + g.C * slabp, 0.0f);
  for (std::int64_t c = 0; c < g.C; ++c)
    for (std::int64_t d = 0; d < g.D; ++d)
      for (std::int64_t h = 0; h < g.H; ++h)
        std::copy(x + ((c * g.D + d) * g.H + h) * g.W,
                  x + ((c * g.D + d) * g.H + h + 1) * g.W,
                  xp + c * slabp +
                      ((d + g.pad[0]) * Hp + h + g.pad[1]) * Wp + g.pad[2]);
  // Window base per ck row; persistent per thread so steady-state calls
  // allocate nothing.
  thread_local std::vector<const float*> brows;
  brows.resize(static_cast<std::size_t>(CK));
  std::size_t k = 0;
  for (std::int64_t c = 0; c < g.C; ++c)
    for (std::int64_t kd = 0; kd < g.KD; ++kd)
      for (std::int64_t kh = 0; kh < g.KH; ++kh)
        for (std::int64_t kw = 0; kw < g.KW; ++kw)
          brows[k++] = xp + c * slabp + (kd * Hp + kh) * Wp + kw;
  if (g.OW % simd::kWidth == 0) {
    const int panel = backend::sgemm_panel_width();
    for (std::int64_t l = 0; l < L; l += panel) {
      const int nr = static_cast<int>(std::min<std::int64_t>(panel, L - l));
      const std::int64_t od = l / HW, rem = l % HW;
      const std::int64_t oh = rem / g.OW, ow = rem % g.OW;
      const std::int64_t boff = (od * Hp + oh) * Wp + ow;
      std::int64_t bdelta = 0;
      if (nr > simd::kWidth) {
        const std::int64_t l2 = l + simd::kWidth;
        const std::int64_t od2 = l2 / HW, rem2 = l2 % HW;
        bdelta = (od2 * Hp + rem2 / g.OW) * Wp + rem2 % g.OW - boff;
      }
      backend::sgemm_browptr_tile(F, CK, Ap, brows.data(), boff, bdelta, nr,
                                  0.0f, out + l, L, ep);
    }
  } else {
    // Narrow rows (OW < vector width): one masked output row per B vector,
    // two rows per tile.
    const int rowlen = static_cast<int>(g.OW);
    for (std::int64_t l = 0; l < L; l += 2 * g.OW) {
      const int nrows = L - l >= 2 * g.OW ? 2 : 1;
      const std::int64_t od = l / HW;
      const std::int64_t oh = (l % HW) / g.OW;
      const std::int64_t boff = (od * Hp + oh) * Wp;
      std::int64_t bdelta = 0;
      if (nrows == 2) {
        const std::int64_t l2 = l + g.OW;
        bdelta = ((l2 / HW) * Hp + (l2 % HW) / g.OW) * Wp - boff;
      }
      backend::sgemm_browptr_tile_rows(F, CK, Ap, brows.data(), boff,
                                       bdelta, rowlen, nrows, 0.0f, out + l,
                                       L, ep);
    }
  }
  ws.release(m);
}

}  // namespace

Shape conv3d_output_shape(const Shape& input, const Shape& weight,
                          const Conv3dSpec& spec) {
  MFN_CHECK(input.ndim() == 5 && weight.ndim() == 5,
            "conv3d shapes " << input.str() << ", " << weight.str());
  MFN_CHECK(input[1] == weight[1], "conv3d channel mismatch: input "
                                       << input.str() << " weight "
                                       << weight.str());
  const ColGeom g = make_geom(input, weight, spec);
  MFN_CHECK(g.OD > 0 && g.OH > 0 && g.OW > 0,
            "conv3d output would be empty for input " << input.str());
  col_extents(g);  // reject shapes whose CK * L sizing would wrap int64
  return Shape{input[0], weight[0], g.OD, g.OH, g.OW};
}

Tensor conv3d_forward_fused(const Tensor& x, const Tensor& weight,
                            const Conv3dSpec& spec, const ConvEpilogue& fep) {
  check_5d(x, "conv3d input");
  check_5d(weight, "conv3d weight");
  const Shape out_shape = conv3d_output_shape(x.shape(), weight.shape(), spec);
  const ColGeom g = make_geom(x.shape(), weight.shape(), spec);
  const std::int64_t N = x.dim(0), F = weight.dim(0);
  const ColExtents ext = col_extents(g);
  const std::int64_t CK = ext.CK, L = ext.L;
  if (fep.scale.defined())
    MFN_CHECK(fep.scale.numel() == F,
              "conv3d epilogue scale shape " << fep.scale.shape().str());
  if (fep.shift.defined())
    MFN_CHECK(fep.shift.numel() == F,
              "conv3d epilogue shift shape " << fep.shift.shape().str());

  // Every element of `out` is written by the per-sample GEMMs (beta = 0,
  // epilogue fused), so skip the zero-fill.
  Tensor out = Tensor::uninitialized(out_shape);
  const float* pw = weight.data();  // (F, CK) viewed flat
  const float* px = x.data();
  float* pout = out.data();
  const std::int64_t in_slab = g.C * g.D * g.H * g.W;

  backend::SgemmEpilogue ep;
  ep.row_scale = fep.scale.defined() ? fep.scale.data() : nullptr;
  ep.row_bias = fep.shift.defined() ? fep.shift.data() : nullptr;
  ep.act = fep.relu ? backend::Act::kRelu : backend::Act::kNone;

  const bool pointwise = is_pointwise(g);
  const bool same_direct =
      !pointwise && simd::enabled() && same_direct_ok(g);
  backend::Workspace& ws0 = backend::local_workspace();
  const backend::Workspace::Mark m0 = ws0.mark();
  // For the zero-pack path the (alpha-scaled) weight panels are packed
  // once per call and shared read-only by every batch worker.
  const float* Ap = same_direct
                        ? backend::sgemm_pack_a_panels(
                              F, CK, 1.0f, pw, backend::Trans::kNo, &ws0)
                        : nullptr;
  // One task per sample; the GEMM reads shifted windows of the sample's
  // padded volume (zero-pack fast path), streams KCxNR slivers packed on
  // the fly (general geometry), or reads the volume as the B matrix
  // directly (pointwise convs) — in every case the batch loop is
  // allocation-free and race-free. For N == 1 the loop runs inline on the
  // caller and the GEMM parallelizes internally instead.
  parallel_for(
      N,
      [&](std::int64_t n0, std::int64_t n1) {
        backend::Workspace& ws = backend::local_workspace();
        for (std::int64_t n = n0; n < n1; ++n) {
          float* po = pout + n * F * L;
          if (pointwise) {
            // col == x for a 1x1x1 stride-1 pad-0 conv: dense GEMM on the
            // slab, no packing seam needed.
            backend::sgemm_ep(backend::Trans::kNo, backend::Trans::kNo, F, L,
                              CK, 1.0f, pw, px + n * in_slab, 0.0f, po, ep,
                              &ws);
          } else if (same_direct) {
            conv_same_direct_sample(px + n * in_slab, Ap, F, g, ep, po, ws);
          } else {
            VolPanelCtx ctx{px + n * in_slab, nullptr, &g};
            backend::PackBSource src{&pack_vol_panel, &ctx};
            backend::sgemm_packed_b(backend::Trans::kNo, F, L, CK, 1.0f, pw,
                                    src, 0.0f, po, ep, &ws);
          }
        }
      },
      /*grain=*/1);
  ws0.release(m0);
  return out;
}

Tensor conv3d_forward(const Tensor& x, const Tensor& weight,
                      const Tensor& bias, const Conv3dSpec& spec) {
  if (bias.defined())
    MFN_CHECK(bias.ndim() == 1 && bias.dim(0) == weight.dim(0),
              "conv3d bias shape " << bias.shape().str());
  ConvEpilogue ep;
  ep.shift = bias;
  return conv3d_forward_fused(x, weight, spec, ep);
}

namespace {

// Tail of conv3d_backward: sum the per-sample weight/bias partials into
// the output gradients, in sample order.
void reduce_grad_partials(Conv3dGrads& grads, const Tensor& gw_part,
                          const Tensor& gb_part, std::int64_t N,
                          std::int64_t F, std::int64_t CK, bool had_bias) {
  float* pgw = grads.gweight.data();
  for (std::int64_t n = 0; n < N; ++n) {
    const float* part = gw_part.data() + n * F * CK;
    for (std::int64_t i = 0; i < F * CK; ++i) pgw[i] += part[i];
  }
  if (had_bias) {
    float* pgb = grads.gbias.data();
    for (std::int64_t n = 0; n < N; ++n) {
      const float* part = gb_part.data() + n * F;
      for (std::int64_t f = 0; f < F; ++f) pgb[f] += part[f];
    }
  }
}

}  // namespace

Conv3dGrads conv3d_backward(const Tensor& x, const Tensor& weight,
                            bool had_bias, const Conv3dSpec& spec,
                            const Tensor& gy) {
  const ColGeom g = make_geom(x.shape(), weight.shape(), spec);
  const std::int64_t N = x.dim(0), F = weight.dim(0);
  const ColExtents ext = col_extents(g);
  const std::int64_t CK = ext.CK, L = ext.L;
  const bool pointwise = is_pointwise(g);
  const bool same_direct =
      !pointwise && simd::enabled() && same_direct_ok(g);

  Conv3dGrads grads;
  // The pointwise and zero-pack dX paths fully overwrite every slab with
  // beta = 0 GEMMs; the general strip path scatter-accumulates and needs
  // the zero fill.
  grads.gx = (pointwise || same_direct) ? Tensor::uninitialized(x.shape())
                                        : Tensor::zeros(x.shape());
  grads.gweight = Tensor::zeros(weight.shape());
  if (had_bias) grads.gbias = Tensor::zeros(Shape{F});

  const float* pw = weight.data();  // (F, CK) viewed flat
  const float* px = x.data();
  const float* pgy = gy.data();
  const std::int64_t in_slab = g.C * g.D * g.H * g.W;

  // dX on the zero-pack path is itself a same-geometry conv: gx =
  // conv(gy, W~) with W~(c, f, kd, kh, kw) = W(f, c, KD-1-kd, KH-1-kh,
  // KW-1-kw) (the transposed, spatially-flipped kernel) under the same
  // stride/padding. Build W~ and its packed panels once per call.
  Tensor wflip;
  const float* Apb = nullptr;
  ColGeom gb{};
  backend::Workspace& ws0 = backend::local_workspace();
  const backend::Workspace::Mark m0 = ws0.mark();
  if (same_direct) {
    const std::int64_t KD = g.KD, KH = g.KH, KW = g.KW;
    wflip = Tensor::uninitialized(Shape{g.C, F, KD, KH, KW});
    float* pf = wflip.data();
    for (std::int64_t f = 0; f < F; ++f)
      for (std::int64_t c = 0; c < g.C; ++c)
        for (std::int64_t kd = 0; kd < KD; ++kd)
          for (std::int64_t kh = 0; kh < KH; ++kh)
            for (std::int64_t kw = 0; kw < KW; ++kw)
              pf[((((c * F + f) * KD + KD - 1 - kd) * KH + KH - 1 - kh) *
                      KW +
                  KW - 1 - kw)] =
                  pw[(((f * g.C + c) * KD + kd) * KH + kh) * KW + kw];
    gb = make_geom(gy.shape(), wflip.shape(), spec);
    Apb = backend::sgemm_pack_a_panels(g.C, F * KD * KH * KW, 1.0f,
                                       wflip.data(), backend::Trans::kNo,
                                       &ws0);
  }

  // gx is per-sample (disjoint slabs), but gweight/gbias sum over the
  // batch: every sample writes its own partial and the partials are
  // summed in sample order after the parallel region, so the gradients do
  // not depend on which worker ran which sample. The partials are Tensors
  // so their storage cycles through the caching allocator with every
  // other training-step intermediate.
  Tensor gw_part = Tensor::uninitialized(Shape{N, F * CK});
  Tensor gb_part = had_bias ? Tensor::uninitialized(Shape{N, F}) : Tensor();

  parallel_for(
      N,
      [&](std::int64_t n0, std::int64_t n1) {
        backend::Workspace& ws = backend::local_workspace();
        for (std::int64_t n = n0; n < n1; ++n) {
          const backend::Workspace::Mark m = ws.mark();
          float* gw = gw_part.data() + n * F * CK;
          const float* gy_n = pgy + n * F * L;  // (F, L), no copy
          if (pointwise) {
            // col == x: both products are dense GEMMs on the slabs.
            backend::sgemm(backend::Trans::kNo, backend::Trans::kYes, F, CK,
                           L, 1.0f, gy_n, px + n * in_slab, 0.0f, gw, &ws);
            backend::sgemm(backend::Trans::kYes, backend::Trans::kNo, CK, L,
                           F, 1.0f, pw, gy_n, 0.0f,
                           grads.gx.data() + n * in_slab, &ws);
          } else if (same_direct) {
            // Hybrid fast path: dW wants the whole column matrix L times
            // per filter row anyway, and the plane-copy vol2col beats a
            // per-element window gather for it — so dW keeps im2col. dX is
            // a same-geometry conv of gy with the flipped kernel through
            // the zero-pack window path, so the dcol matrix and its
            // col2vol round trip never exist.
            float* col = ws.alloc(static_cast<std::size_t>(CK * L));
            vol2col(px + n * in_slab, g, col);
            backend::sgemm(backend::Trans::kNo, backend::Trans::kYes, F, CK,
                           L, 1.0f, gy_n, col, 0.0f, gw, &ws);
            conv_same_direct_sample(gy_n, Apb, g.C, gb, {},
                                    grads.gx.data() + n * in_slab, ws);
          } else {
            VolPanelCtx ctx{px + n * in_slab,
                            grads.gx.data() + n * in_slab, &g};
            // dW_partial = gy_n * col^T: the transposed column operand is
            // packed straight from the volume.
            backend::PackBSource srcT{&pack_volT_panel, &ctx};
            backend::sgemm_packed_b(backend::Trans::kNo, F, CK, L, 1.0f,
                                    gy_n, srcT, 0.0f, gw, {}, &ws);
            // dX_n = col2vol(W^T * gy_n), one NR-column strip at a time
            // with the scatter fused behind each strip — dcol never
            // exists.
            backend::StripSink sink{&scatter_col_strip, &ctx};
            backend::sgemm_col_strips(backend::Trans::kYes,
                                      backend::Trans::kNo, CK, L, F, 1.0f,
                                      pw, gy_n, sink, &ws);
          }
          if (had_bias) {
            float* gb = gb_part.data() + n * F;
            for (std::int64_t f = 0; f < F; ++f)
              gb[f] = static_cast<float>(span_sum(gy_n + f * L, L));
          }
          ws.release(m);
        }
      },
      /*grain=*/1);

  ws0.release(m0);
  reduce_grad_partials(grads, gw_part, gb_part, N, F, CK, had_bias);
  return grads;
}

namespace {

// Naive GEMM loops preserved verbatim from the seed so the reference conv
// path below stays byte-for-byte the pre-backend baseline.
void seed_mm(std::int64_t m, std::int64_t k, std::int64_t n, const float* pa,
             const float* pb, float* pc) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    const float* arow = pa + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0f) continue;
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void seed_mm_tn(std::int64_t k, std::int64_t m, std::int64_t n,
                const float* pa, const float* pb, float* pc) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = pa[kk * m + i];
      if (aik == 0.0f) continue;
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void seed_mm_nt(std::int64_t m, std::int64_t k, std::int64_t n,
                const float* pa, const float* pb, float* pc) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
}

}  // namespace

Tensor conv3d_forward_reference(const Tensor& x, const Tensor& weight,
                                const Tensor& bias, const Conv3dSpec& spec) {
  check_5d(x, "conv3d input");
  check_5d(weight, "conv3d weight");
  const Shape out_shape = conv3d_output_shape(x.shape(), weight.shape(), spec);
  const ColGeom g = make_geom(x.shape(), weight.shape(), spec);
  const std::int64_t N = x.dim(0), F = weight.dim(0);
  const std::int64_t CK = g.C * g.KD * g.KH * g.KW;
  const std::int64_t L = g.OD * g.OH * g.OW;
  if (bias.defined())
    MFN_CHECK(bias.ndim() == 1 && bias.dim(0) == F,
              "conv3d bias shape " << bias.shape().str());

  Tensor out(out_shape);
  Tensor col(Shape{CK, L});
  const std::int64_t in_slab = g.C * g.D * g.H * g.W;
  for (std::int64_t n = 0; n < N; ++n) {
    vol2col_reference(x.data() + n * in_slab, g, col.data());
    Tensor y(Shape{F, L});
    seed_mm(F, CK, L, weight.data(), col.data(), y.data());
    float* po = out.data() + n * F * L;
    const float* py = y.data();
    if (bias.defined()) {
      const float* pb = bias.data();
      for (std::int64_t f = 0; f < F; ++f)
        for (std::int64_t l = 0; l < L; ++l)
          po[f * L + l] = py[f * L + l] + pb[f];
    } else {
      std::copy(py, py + F * L, po);
    }
  }
  return out;
}

Conv3dGrads conv3d_backward_reference(const Tensor& x, const Tensor& weight,
                                      bool had_bias, const Conv3dSpec& spec,
                                      const Tensor& gy) {
  const ColGeom g = make_geom(x.shape(), weight.shape(), spec);
  const std::int64_t N = x.dim(0), F = weight.dim(0);
  const std::int64_t CK = g.C * g.KD * g.KH * g.KW;
  const std::int64_t L = g.OD * g.OH * g.OW;

  Conv3dGrads grads;
  grads.gx = Tensor::zeros(x.shape());
  grads.gweight = Tensor::zeros(weight.shape());
  if (had_bias) grads.gbias = Tensor::zeros(Shape{F});

  Tensor gw2d = grads.gweight.reshape(Shape{F, CK});  // shares storage
  Tensor col(Shape{CK, L});
  const std::int64_t in_slab = g.C * g.D * g.H * g.W;

  for (std::int64_t n = 0; n < N; ++n) {
    vol2col_reference(x.data() + n * in_slab, g, col.data());
    const float* gy_n = gy.data() + n * F * L;
    // dW += gy_n * col^T
    Tensor dw(Shape{F, CK});
    seed_mm_nt(F, L, CK, gy_n, col.data(), dw.data());
    add_(gw2d, dw);
    // dX_n = col2vol(W^T * gy_n)
    Tensor dcol(Shape{CK, L});
    seed_mm_tn(F, CK, L, weight.data(), gy_n, dcol.data());
    col2vol_accumulate(dcol.data(), g, grads.gx.data() + n * in_slab);
    if (had_bias) {
      float* pgb = grads.gbias.data();
      for (std::int64_t f = 0; f < F; ++f) {
        double acc = 0.0;
        for (std::int64_t l = 0; l < L; ++l) acc += gy_n[f * L + l];
        pgb[f] += static_cast<float>(acc);
      }
    }
  }
  return grads;
}

MaxPool3dResult maxpool3d_forward(const Tensor& x, Dims3 kernel) {
  check_5d(x, "maxpool3d input");
  const std::int64_t N = x.dim(0), C = x.dim(1), D = x.dim(2), H = x.dim(3),
                     W = x.dim(4);
  const auto [kd, kh, kw] = kernel;
  MFN_CHECK(D % kd == 0 && H % kh == 0 && W % kw == 0,
            "maxpool3d requires divisible dims; input " << x.shape().str()
                                                        << " kernel [" << kd
                                                        << "," << kh << ","
                                                        << kw << "]");
  const std::int64_t OD = D / kd, OH = H / kh, OW = W / kw;
  MaxPool3dResult res;
  // Every output voxel is written by the pooling loop — no zero-fill.
  res.out = Tensor::uninitialized(Shape{N, C, OD, OH, OW});
  res.argmax.resize(static_cast<std::size_t>(N * C * OD * OH * OW));

  const float* px = x.data();
  float* po = res.out.data();
  std::int64_t* pam = res.argmax.data();
  const std::int64_t slab = D * H * W;
  const std::int64_t oslab = OD * OH * OW;
  parallel_for(N * C, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const float* xs = px + b * slab;
      float* os = po + b * oslab;
      std::int64_t* as = pam + b * oslab;
      for (std::int64_t od = 0; od < OD; ++od)
        for (std::int64_t oh = 0; oh < OH; ++oh)
          for (std::int64_t ow = 0; ow < OW; ++ow) {
            float best = -std::numeric_limits<float>::infinity();
            std::int64_t best_idx = 0;
            for (std::int64_t dd = 0; dd < kd; ++dd)
              for (std::int64_t hh = 0; hh < kh; ++hh)
                for (std::int64_t ww = 0; ww < kw; ++ww) {
                  const std::int64_t idx =
                      ((od * kd + dd) * H + (oh * kh + hh)) * W + ow * kw + ww;
                  if (xs[idx] > best) {
                    best = xs[idx];
                    best_idx = idx;
                  }
                }
            const std::int64_t oidx = (od * OH + oh) * OW + ow;
            os[oidx] = best;
            as[oidx] = best_idx;
          }
    }
  });
  return res;
}

Tensor maxpool3d_backward(const Shape& input_shape, Dims3 kernel,
                          const std::vector<std::int64_t>& argmax,
                          const Tensor& gy) {
  const std::int64_t N = input_shape[0], C = input_shape[1],
                     D = input_shape[2], H = input_shape[3],
                     W = input_shape[4];
  const auto [kd, kh, kw] = kernel;
  const std::int64_t oslab = (D / kd) * (H / kh) * (W / kw);
  MFN_CHECK(gy.numel() == N * C * oslab, "maxpool3d backward shape");
  Tensor gx = Tensor::zeros(input_shape);
  const float* pg = gy.data();
  float* px = gx.data();
  const std::int64_t slab = D * H * W;
  for (std::int64_t b = 0; b < N * C; ++b) {
    float* xs = px + b * slab;
    const float* gs = pg + b * oslab;
    const std::int64_t* as = argmax.data() + b * oslab;
    for (std::int64_t i = 0; i < oslab; ++i) xs[as[i]] += gs[i];
  }
  return gx;
}

Tensor upsample_nearest3d_forward(const Tensor& x, Dims3 factor) {
  check_5d(x, "upsample input");
  const std::int64_t N = x.dim(0), C = x.dim(1), D = x.dim(2), H = x.dim(3),
                     W = x.dim(4);
  const auto [fd, fh, fw] = factor;
  Tensor out = Tensor::uninitialized(Shape{N, C, D * fd, H * fh, W * fw});
  const float* px = x.data();
  float* po = out.data();
  const std::int64_t OH = H * fh, OW = W * fw;
  parallel_for(N * C, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const float* xs = px + b * D * H * W;
      float* os = po + b * D * fd * OH * OW;
      for (std::int64_t od = 0; od < D * fd; ++od) {
        const std::int64_t d = od / fd;
        for (std::int64_t oh = 0; oh < OH; ++oh) {
          const std::int64_t h = oh / fh;
          const float* src = xs + (d * H + h) * W;
          float* dst = os + (od * OH + oh) * OW;
          for (std::int64_t ow = 0; ow < OW; ++ow) dst[ow] = src[ow / fw];
        }
      }
    }
  });
  return out;
}

Tensor upsample_nearest3d_backward(const Shape& input_shape, Dims3 factor,
                                   const Tensor& gy) {
  const std::int64_t N = input_shape[0], C = input_shape[1],
                     D = input_shape[2], H = input_shape[3],
                     W = input_shape[4];
  const auto [fd, fh, fw] = factor;
  MFN_CHECK(gy.numel() == N * C * D * fd * H * fh * W * fw,
            "upsample backward shape");
  Tensor gx = Tensor::zeros(input_shape);
  const float* pg = gy.data();
  float* px = gx.data();
  const std::int64_t OH = H * fh, OW = W * fw;
  for (std::int64_t b = 0; b < N * C; ++b) {
    float* xs = px + b * D * H * W;
    const float* gs = pg + b * D * fd * OH * OW;
    for (std::int64_t od = 0; od < D * fd; ++od) {
      const std::int64_t d = od / fd;
      for (std::int64_t oh = 0; oh < OH; ++oh) {
        const std::int64_t h = oh / fh;
        float* dst = xs + (d * H + h) * W;
        const float* src = gs + (od * OH + oh) * OW;
        for (std::int64_t ow = 0; ow < OW; ++ow) dst[ow / fw] += src[ow];
      }
    }
  }
  return gx;
}

BatchNorm3dResult batchnorm3d_forward(const Tensor& x, const Tensor& gamma,
                                      const Tensor& beta, float eps) {
  check_5d(x, "batchnorm input");
  const std::int64_t N = x.dim(0), C = x.dim(1),
                     S = x.dim(2) * x.dim(3) * x.dim(4);
  MFN_CHECK(gamma.numel() == C && beta.numel() == C, "batchnorm param shape");
  const std::int64_t M = N * S;
  MFN_CHECK(M > 0, "batchnorm over empty batch");

  BatchNorm3dResult res;
  // The per-channel loop writes every element of all five tensors — no
  // zero-fill needed.
  res.out = Tensor::uninitialized(x.shape());
  res.xhat = Tensor::uninitialized(x.shape());
  res.invstd = Tensor::uninitialized(Shape{C});
  res.batch_mean = Tensor::uninitialized(Shape{C});
  res.batch_var = Tensor::uninitialized(Shape{C});

  const float* px = x.data();
  parallel_for(C, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      double acc = 0.0, acc2 = 0.0;
      for (std::int64_t n = 0; n < N; ++n)
        bn_pair_sums(px + (n * C + c) * S, px + (n * C + c) * S, S, acc,
                     acc2);
      const double mu = acc / static_cast<double>(M);
      const double var =
          std::max(acc2 / static_cast<double>(M) - mu * mu, 0.0);
      const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
      res.batch_mean.data()[c] = static_cast<float>(mu);
      res.batch_var.data()[c] = static_cast<float>(var);
      res.invstd.data()[c] = inv;
      const float g = gamma.data()[c], b = beta.data()[c];
      for (std::int64_t n = 0; n < N; ++n) {
        const std::int64_t base = (n * C + c) * S;
        bn_normalize(px + base, res.xhat.data() + base,
                     res.out.data() + base, S, static_cast<float>(mu), inv,
                     g, b);
      }
    }
  });
  return res;
}

Tensor batchnorm3d_eval(const Tensor& x, const Tensor& gamma,
                        const Tensor& beta, const Tensor& running_mean,
                        const Tensor& running_var, float eps) {
  check_5d(x, "batchnorm input");
  const std::int64_t N = x.dim(0), C = x.dim(1),
                     S = x.dim(2) * x.dim(3) * x.dim(4);
  // Every slab is normalized below — no zero-fill needed.
  Tensor out = Tensor::uninitialized(x.shape());
  const float* px = x.data();
  float* po = out.data();
  for (std::int64_t c = 0; c < C; ++c) {
    const float inv = 1.0f / std::sqrt(running_var.data()[c] + eps);
    const float mu = running_mean.data()[c];
    const float g = gamma.data()[c], b = beta.data()[c];
    for (std::int64_t n = 0; n < N; ++n) {
      const std::int64_t base = (n * C + c) * S;
      bn_eval_normalize(px + base, po + base, S, mu, inv, g, b);
    }
  }
  return out;
}

BatchNorm3dGrads batchnorm3d_backward(const BatchNorm3dResult& saved,
                                      const Tensor& gamma, const Tensor& gy) {
  const Shape& xs = saved.xhat.shape();
  const std::int64_t N = xs[0], C = xs[1], S = xs[2] * xs[3] * xs[4];
  const std::int64_t M = N * S;

  BatchNorm3dGrads grads;
  // The per-channel loop writes every element of all three — no zero-fill.
  grads.gx = Tensor::uninitialized(xs);
  grads.ggamma = Tensor::uninitialized(Shape{C});
  grads.gbeta = Tensor::uninitialized(Shape{C});

  const float* pxh = saved.xhat.data();
  const float* pgy = gy.data();
  parallel_for(C, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      double sum_gy = 0.0, sum_gy_xhat = 0.0;
      for (std::int64_t n = 0; n < N; ++n) {
        const std::int64_t base = (n * C + c) * S;
        bn_pair_sums(pgy + base, pxh + base, S, sum_gy, sum_gy_xhat);
      }
      grads.gbeta.data()[c] = static_cast<float>(sum_gy);
      grads.ggamma.data()[c] = static_cast<float>(sum_gy_xhat);
      const float inv = saved.invstd.data()[c];
      const float g = gamma.data()[c];
      const float k = g * inv / static_cast<float>(M);
      for (std::int64_t n = 0; n < N; ++n) {
        const std::int64_t base = (n * C + c) * S;
        bn_grad_gx(pgy + base, pxh + base, grads.gx.data() + base, S, k,
                   static_cast<float>(M), static_cast<float>(sum_gy),
                   static_cast<float>(sum_gy_xhat));
      }
    }
  });
  return grads;
}

}  // namespace mfn
