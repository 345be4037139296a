// The fused decoder nodes (src/core/decode_jet.*) against the tape
// compositions they replaced, which live on here as the references: the
// derivative bundle against the tape bundle built below, and the value
// node (decode()) against the tape decoder (tape_decoder.h). Compared are
// the outputs and the gradients of the latent and of every MLP weight and
// bias, for softplus, tanh and ReLU over decoder widths that are ragged
// against every SIMD tier, wider than one column panel, or a single
// output, and over several query shapes, on the vector and the scalar
// lanes, and for a decoder without a hidden layer; also on a grid with
// more voxels than the queries' corners reach and at queries on the grid's
// faces, where layer 0's per-voxel rows and their gradient sums must pick
// the voxels the tape picks. Also: the value pass against the bundle's
// value member and against decode()'s recorded value; bitwise equality of
// a serial and a pooled run of either node; a warmed step of either node
// that never reaches the heap; and rejection of non-finite coordinates.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "autodiff/ops.h"
#include "backend/simd.h"
#include "backend/workspace.h"
#include "common/error.h"
#include "core/decode_jet.h"
#include "core/decoder.h"
#include "tensor/tensor_ops.h"
#include "threading/thread_pool.h"

#include "tape_decoder.h"

namespace mfn {
namespace {

using core::ContinuousDecoder;
using core::DecodeDerivs;

// Real concurrency even on single-core hosts (runs before the first
// ThreadPool::global() touch). An explicit MFN_NUM_THREADS wins.
const bool kForcePool = [] {
  setenv("MFN_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

// Latent width 5 is ragged on every vector tier: layer 0's latent columns
// and the latent gradient run masked tails.
constexpr std::int64_t kC = 5, kOut = 4, kLT = 4, kLZ = 8, kLX = 8;

core::DecoderConfig decoder_config(nn::Activation act,
                                   std::vector<std::int64_t> hidden,
                                   std::int64_t c = kC,
                                   std::int64_t out = kOut) {
  core::DecoderConfig cfg;
  cfg.latent_channels = c;
  cfg.out_channels = out;
  cfg.hidden = std::move(hidden);
  cfg.activation = act;
  return cfg;
}

// Flip the runtime scalar override for the duration of a scope.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool v) : prev_(simd::force_scalar()) {
    simd::set_force_scalar(v);
  }
  ~ScopedForceScalar() { simd::set_force_scalar(prev_); }

 private:
  bool prev_;
};

// The latent grid of a decode and where its queries lie.
struct Layout {
  std::int64_t lt = kLT, lz = kLZ, lx = kLX;
  bool faces = false;  // queries on the grid's faces
};

// More voxels per sample than 8 corners per query reach at the shapes it
// runs: layer 0's per-voxel term covers voxels that no query reads.
constexpr Layout kSparse{6, 12, 12, false};
// Queries at coordinate 0 and at size - 1 of each axis, where cellof
// clamps the base corner to size - 2.
constexpr Layout kFaces{kLT, kLZ, kLX, true};

// (n, lay's channels-first latent) of c channels.
Tensor make_latent(Rng& rng, std::int64_t n, std::int64_t c,
                   const Layout& lay = {}) {
  return Tensor::randn(Shape{n, c, lay.lt, lay.lz, lay.lx}, rng, 0.5f);
}

// (n, q, 3) coordinates over the grid, including the clamped margins past
// either end of each axis; for kFaces, query i of a sample takes on axis a
// coordinate 0, size - 1 or an interior one as (i / 3^a) % 3 is 0, 1 or 2,
// so 27 queries cover every combination.
Tensor make_coords(Rng& rng, std::int64_t n, std::int64_t q,
                   const Layout& lay = {}) {
  const std::int64_t size[3] = {lay.lt, lay.lz, lay.lx};
  Tensor c = Tensor::uninitialized(Shape{n, q, 3});
  for (std::int64_t b = 0; b < n * q; ++b)
    for (std::int64_t a = 0, m = 1; a < 3; ++a, m *= 3) {
      const double hi = static_cast<double>(size[a] - 1);
      const std::int64_t mode = lay.faces ? b % q / m % 3 : 3;
      c.data()[b * 3 + a] = static_cast<float>(
          mode == 0   ? 0.0
          : mode == 1 ? hi
          : mode == 2 ? rng.uniform(0.0, hi)
                      : rng.uniform(-0.5, hi + 0.5));
    }
  return c;
}

// ------------------------------------------------------- tape reference --
// The derivative bundle composed from tape ops: forward-mode (value,
// tangent, curvature) streams through ad::linear and elementwise ops over
// the tape decoder's corner rows, blended by tape::blend_corners. `coords`
// holds n*q rows of 3.
DecodeDerivs tape_bundle(nn::MLP& mlp, const ad::Var& latent,
                         const Tensor& coords, std::int64_t q) {
  const std::int64_t rows = 8 * latent.dim(0) * q, in_dim = mlp.in_features();
  const tape::Corners g =
      tape::corners(coords, q, latent.dim(2), latent.dim(3), latent.dim(4));
  ad::Var h = tape::gather_voxels_concat(g.rel, latent, g.voxels);
  // Tangent seeds e_k on the coordinate columns; zero curvature seeds.
  std::array<ad::Var, 3> tan;
  for (int k = 0; k < 3; ++k) {
    Tensor seed = Tensor::zeros(Shape{rows, in_dim});
    for (std::int64_t r = 0; r < rows; ++r) seed.data()[r * in_dim + k] = 1.0f;
    tan[static_cast<std::size_t>(k)] = ad::Var(seed, false);
  }
  std::array<ad::Var, 2> curv;  // z, x
  for (ad::Var& c : curv)
    c = ad::Var(Tensor::zeros(Shape{rows, in_dim}), false);
  const auto& layers = mlp.layers();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    nn::Linear& fc = *layers[li];
    ad::Var z = fc.forward(h);
    for (ad::Var& t : tan) t = ad::linear(t, fc.weight(), ad::Var());
    for (ad::Var& c : curv) c = ad::linear(c, fc.weight(), ad::Var());
    if (li + 1 == layers.size()) {
      h = z;
      break;
    }
    ad::Var f1, f2;  // f'(z), f''(z)
    switch (mlp.activation()) {
      case nn::Activation::kSoftplus: {
        ad::Var s = ad::sigmoid(z);
        f1 = s;
        f2 = ad::mul(s, ad::add_scalar(ad::neg(s), 1.0f));
        h = ad::softplus(z);
        break;
      }
      case nn::Activation::kTanh: {
        ad::Var th = ad::tanh(z);
        f1 = ad::add_scalar(ad::neg(ad::square(th)), 1.0f);
        f2 = ad::mul_scalar(ad::mul(th, f1), -2.0f);
        h = th;
        break;
      }
      case nn::Activation::kReLU:
        f1 = ad::Var(gt_zero_mask(z.value()), false);
        f2 = ad::Var(Tensor::zeros(z.shape()), false);
        h = ad::relu(z);
        break;
    }
    // Curvature first: it needs the pre-activation tangents.
    curv[0] = ad::add(ad::mul(f2, ad::square(tan[1])), ad::mul(f1, curv[0]));
    curv[1] = ad::add(ad::mul(f2, ad::square(tan[2])), ad::mul(f1, curv[1]));
    for (ad::Var& t : tan) t = ad::mul(f1, t);
  }
  const auto blend = tape::blend_corners;
  DecodeDerivs d;
  d.value = blend(h, g.w);
  d.d_dt = ad::add(blend(h, g.dw[0]), blend(tan[0], g.w));
  d.d_dz = ad::add(blend(h, g.dw[1]), blend(tan[1], g.w));
  d.d_dx = ad::add(blend(h, g.dw[2]), blend(tan[2], g.w));
  d.d2_dz2 = ad::add(ad::mul_scalar(blend(tan[1], g.dw[1]), 2.0f),
                     blend(curv[0], g.w));
  d.d2_dx2 = ad::add(ad::mul_scalar(blend(tan[2], g.dw[2]), 2.0f),
                     blend(curv[1], g.w));
  return d;
}

// One loss that reads every member: sum over m of <member_m, r_m>.
ad::Var members_loss(const std::vector<ad::Var>& members,
                     const std::array<Tensor, 6>& r) {
  ad::Var loss;
  for (std::size_t m = 0; m < members.size(); ++m) {
    const ad::Var term = ad::sum(ad::mul(members[m], ad::Var(r[m], false)));
    loss = m == 0 ? term : ad::add(loss, term);
  }
  return loss;
}

std::array<Tensor, 6> loss_weights(Rng& rng, std::int64_t rows,
                                   std::int64_t out = kOut) {
  std::array<Tensor, 6> r;
  for (Tensor& t : r) t = Tensor::randn(Shape{rows, out}, rng);
  return r;
}

// The decode under test: the fused bundle node or its tape reference, or
// the fused value node (decode()) or its tape reference.
enum class Path { kBundle, kTapeBundle, kValue, kTapeValue };

struct BundleRun {
  std::vector<Tensor> members;  // the six bundle members, or the value
  std::vector<Tensor> grads;    // the latent's, then every MLP parameter's
};

// Decodes along `path`, backpropagates members_loss and collects the
// members and gradients.
BundleRun run_decode(ContinuousDecoder& dec, ad::Var& latent,
                     const Tensor& coords, const std::array<Tensor, 6>& r,
                     Path path) {
  const std::vector<ad::Var*> params = dec.parameters();
  for (ad::Var* p : params) p->zero_grad();
  latent.zero_grad();
  std::vector<ad::Var> members;
  if (path == Path::kBundle || path == Path::kTapeBundle) {
    const DecodeDerivs d =
        path == Path::kBundle
            ? dec.decode_with_derivatives(latent, coords)
            : tape_bundle(dec.mlp(), latent, coords, coords.dim(1));
    members = {d.value, d.d_dt, d.d_dz, d.d_dx, d.d2_dz2, d.d2_dx2};
  } else {
    members = {path == Path::kValue
                   ? dec.decode(latent, coords)
                   : tape::decode(dec.mlp(), latent, coords, coords.dim(1))};
  }
  ad::backward(members_loss(members, r));
  BundleRun run;
  for (const ad::Var& m : members) run.members.push_back(m.value());
  run.grads.push_back(latent.grad().clone());
  for (const ad::Var* p : params) run.grads.push_back(p->grad().clone());
  return run;
}

// max |got - want| over max |want|: the error relative to the largest entry.
double rel_err(const Tensor& got, const Tensor& want) {
  EXPECT_EQ(got.numel(), want.numel());
  double err = 0.0, scale = 0.0;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    const double w = want.data()[i];
    err = std::max(err, std::abs(static_cast<double>(got.data()[i]) - w));
    scale = std::max(scale, std::abs(w));
  }
  return scale > 0.0 ? err / scale : err;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

using Shapes = std::vector<std::pair<std::int64_t, std::int64_t>>;

// One decoder of the sweep: latent channels, outputs, hidden widths, the
// (n, q) query shapes it runs and their grid.
struct JetCase {
  std::int64_t c, out;
  std::vector<std::int64_t> hidden;
  Shapes shapes;
  Layout layout{};
};

// The decoders of hidden widths `hidden` on the sparse grid (2 samples of
// 5 queries against 864 voxels each) and at queries on the grid's faces.
std::vector<JetCase> layout_cases(
    const std::vector<std::vector<std::int64_t>>& hidden) {
  std::vector<JetCase> cases;
  for (const std::vector<std::int64_t>& h : hidden) {
    cases.push_back({kC, kOut, h, {{2, 5}}, kSparse});
    cases.push_back({kC, kOut, h, {{2, 27}}, kFaces});
  }
  return cases;
}

// The sweep of MatchesTapeReference and ValueNodeMatchesTapeReference.
std::vector<JetCase> jet_cases() {
  const Shapes all = {{1, 1}, {3, 257}, {4, 384}};
  const Shapes small = {{1, 1}, {2, 65}};
  // With one output and one query every member is a single number, so
  // the error relative to its largest entry is a pointwise relative error
  // that cancellation in d/dz alone pushes past 1e-5 (on any summation
  // order); the single-output decoder runs the multi-query shapes.
  const Shapes multi = {{3, 257}, {4, 384}};
  std::vector<JetCase> cases = {
      {kC, kOut, {8}, all},
      {kC, kOut, {16, 16}, all},
      {kC, kOut, {32, 32}, all},
      {kC, kOut, {24, 24}, all},    // ragged on 16-, 8- and 4-lane tiers
      {kC, kOut, {64, 64}, all},    // the DecoderConfig default
      {kC, kOut, {400, 16}, small}, // wider than one column panel
      {8, kOut, {16}, all},         // the dist-tiny decoder
      {kC, 1, {16, 16}, multi},     // a single output
  };
  for (const JetCase& jc : layout_cases({{16}, {32, 32}, {400, 16}}))
    cases.push_back(jc);
  return cases;
}

// The queries a ReLU kink may leave unmatched: those with a tape corner
// row holding a hidden pre-activation within float rounding of the kink
// (1e-7 of its layer's largest |z|). Two summation orders round z
// differently, so such a unit may be on one side in the fused node and on
// the other in the tape, which switches every gradient that passes through
// it: the row's latent voxel and its unit's weights and bias.
std::vector<std::int64_t> relu_kink_queries(nn::MLP& mlp,
                                            const ad::Var& latent,
                                            const Tensor& coords,
                                            std::int64_t q) {
  ad::NoGradGuard no_grad;
  const std::int64_t B = latent.dim(0) * q;
  const tape::Corners g =
      tape::corners(coords, q, latent.dim(2), latent.dim(3), latent.dim(4));
  std::vector<std::int64_t> queries;
  ad::Var h = tape::gather_voxels_concat(g.rel, latent, g.voxels);
  for (std::size_t l = 0; l + 1 < mlp.layers().size(); ++l) {
    const ad::Var z = mlp.layers()[l]->forward(h);
    const double scale = max_abs(z.value());
    for (std::int64_t i = 0; i < z.numel(); ++i)
      if (std::abs(z.value().data()[i]) < 1e-7 * scale)
        queries.push_back(i / z.dim(1) % B);  // row j * B + b is query b's
    h = ad::relu(z);
  }
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  return queries;
}

// Every case of `cases` for softplus, tanh and ReLU, on the vector lanes
// and then the scalar lanes (a no-op on a scalar build): the fused path's
// members within 1e-5 and its gradients within 1e-4 of the tape path's,
// each relative to the largest entry. With `exempt_relu_kinks`, a ReLU
// case's loss leaves out the queries of relu_kink_queries(): their rows
// pass no gradient on either side, and every gradient entry stays gated.
void expect_matches_tape(const std::vector<JetCase>& cases, Path fused,
                         Path tape, std::uint64_t seed0,
                         bool exempt_relu_kinks) {
  for (const bool scalar : {false, true}) {
    ScopedForceScalar lanes(scalar);
    double worst_member = 0.0, worst_grad = 0.0;
    std::size_t at_kink = 0;
    std::uint64_t seed = seed0;
    for (nn::Activation act :
         {nn::Activation::kSoftplus, nn::Activation::kTanh,
          nn::Activation::kReLU})
      for (const JetCase& jc : cases)
        for (const auto& [n, q] : jc.shapes) {
          SCOPED_TRACE(::testing::Message()
                       << (scalar ? "scalar" : "vector") << " lanes, "
                       << "activation " << static_cast<int>(act)
                       << ", latent " << jc.c << ", hidden "
                       << jc.hidden.size() << " x "
                       << (jc.hidden.empty() ? 0 : jc.hidden.front())
                       << ", out " << jc.out << ", n " << n << ", q " << q
                       << ", grid " << jc.layout.lt << "x" << jc.layout.lz
                       << "x" << jc.layout.lx
                       << (jc.layout.faces ? " faces" : ""));
          Rng rng(++seed);
          ContinuousDecoder dec(decoder_config(act, jc.hidden, jc.c, jc.out),
                                rng);
          ad::Var latent(make_latent(rng, n, jc.c, jc.layout), true);
          const Tensor coords = make_coords(rng, n, q, jc.layout);
          std::array<Tensor, 6> r = loss_weights(rng, n * q, jc.out);
          if (exempt_relu_kinks && act == nn::Activation::kReLU)
            for (const std::int64_t b :
                 relu_kink_queries(dec.mlp(), latent, coords, q)) {
              for (Tensor& rm : r)
                std::fill_n(rm.data() + b * jc.out, jc.out, 0.0f);
              ++at_kink;
            }
          const BundleRun got = run_decode(dec, latent, coords, r, fused);
          const BundleRun want = run_decode(dec, latent, coords, r, tape);
          for (std::size_t m = 0; m < want.members.size(); ++m) {
            const double e = rel_err(got.members[m], want.members[m]);
            worst_member = std::max(worst_member, e);
            EXPECT_LT(e, 1e-5) << "member " << m;
          }
          for (std::size_t i = 0; i < want.grads.size(); ++i) {
            const double e = rel_err(got.grads[i], want.grads[i]);
            worst_grad = std::max(worst_grad, e);
            EXPECT_LT(e, 1e-4) << (i == 0 ? "latent" : "parameter")
                               << " gradient " << i;
          }
        }
    std::printf("%s lanes: largest error relative to the largest entry: "
                "members %.3g, gradients %.3g; %zu queries at a ReLU kink "
                "left out of the loss\n",
                scalar ? "scalar" : "vector", worst_member, worst_grad,
                at_kink);
  }
}

TEST(DecodeJet, MatchesTapeReference) {
  expect_matches_tape(jet_cases(), Path::kBundle, Path::kTapeBundle, 100,
                      /*exempt_relu_kinks=*/false);
}

// decode() records the value pass as one node; its value and every
// gradient against the tape decoder's, over the bundle's sweep plus a
// decoder without a hidden layer, whose output is the blend of layer 0's
// corner rows.
TEST(DecodeJet, ValueNodeMatchesTapeReference) {
  std::vector<JetCase> cases = jet_cases();
  cases.push_back({kC, kOut, {}, {{1, 1}, {3, 257}}});
  for (const JetCase& jc : layout_cases({{}})) cases.push_back(jc);
  expect_matches_tape(cases, Path::kValue, Path::kTapeValue, 200,
                      /*exempt_relu_kinks=*/true);
}

// Without a hidden layer the decoder is linear in its input: the members
// blend layer 0's pre-activation jet, and the exact second derivatives
// are zero, so both sides leave only rounding there. Also on the sparse
// grid and at queries on the grid's faces.
TEST(DecodeJet, LinearDecoderMatchesTapeReference) {
  std::vector<JetCase> inputs = layout_cases({{}});
  inputs.insert(inputs.begin(), JetCase{kC, kOut, {}, {{3, 257}}});
  for (const bool scalar : {false, true})
    for (const JetCase& jc : inputs) {
      const auto [n, q] = jc.shapes.front();
      SCOPED_TRACE(::testing::Message()
                   << (scalar ? "scalar" : "vector") << " lanes, n " << n
                   << ", q " << q << ", grid " << jc.layout.lt << "x"
                   << jc.layout.lz << "x" << jc.layout.lx
                   << (jc.layout.faces ? " faces" : ""));
      ScopedForceScalar lanes(scalar);
      Rng rng(11);
      ContinuousDecoder dec(decoder_config(nn::Activation::kSoftplus, {}),
                            rng);
      ad::Var latent(make_latent(rng, n, kC, jc.layout), true);
      const Tensor coords = make_coords(rng, n, q, jc.layout);
      const std::array<Tensor, 6> r = loss_weights(rng, n * q);
      const BundleRun got = run_decode(dec, latent, coords, r, Path::kBundle);
      const BundleRun want =
          run_decode(dec, latent, coords, r, Path::kTapeBundle);
      for (std::size_t m = 0; m < 4; ++m)
        EXPECT_LT(rel_err(got.members[m], want.members[m]), 1e-5)
            << "member " << m;
      const double scale = max_abs(want.members[0]);
      for (std::size_t m = 4; m < 6; ++m)
        EXPECT_LT(max_abs(got.members[m]), 1e-6 * scale) << "member " << m;
      for (std::size_t i = 0; i < want.grads.size(); ++i)
        EXPECT_LT(rel_err(got.grads[i], want.grads[i]), 1e-4)
            << "gradient " << i;
    }
}

// jet::forward asked for the value alone runs the value pass. It carries
// the bundle's value stream through the same kernels, so on the vector
// lanes it equals the six-member forward's value member bit for bit; on
// the scalar lanes, and against the tape decode, it stays within the
// member gate. decode() runs the same pass with or without a tape, so the
// value it records equals the pass bit for bit on every lane.
TEST(DecodeJet, ValueOnlyMatchesBundleValueMember) {
  using Hidden = std::vector<std::int64_t>;
  const std::int64_t n = 3, q = 257;
  for (const bool scalar : {false, true}) {
    ScopedForceScalar lanes(scalar);
    int cases = 0, bitwise = 0;
    double worst_bundle = 0.0, worst_tape = 0.0;
    std::uint64_t seed = 300;
    for (nn::Activation act :
         {nn::Activation::kSoftplus, nn::Activation::kTanh,
          nn::Activation::kReLU})
      for (const Hidden& hidden : {Hidden{}, Hidden{8}, Hidden{24, 24},
                                   Hidden{32, 32}, Hidden{64, 64},
                                   Hidden{400, 16}}) {
        SCOPED_TRACE(::testing::Message()
                     << (scalar ? "scalar" : "vector") << " lanes, "
                     << "activation " << static_cast<int>(act) << ", "
                     << hidden.size() << " hidden layers of "
                     << (hidden.empty() ? 0 : hidden.front()));
        Rng rng(++seed);
        ContinuousDecoder dec(decoder_config(act, hidden), rng);
        const Tensor latent =
            Tensor::randn(Shape{n, kC, kLT, kLZ, kLX}, rng, 0.5f);
        const Tensor coords = make_coords(rng, n, q);
        const core::jet::Grid grid{latent.data(), n, q, kC, kLT, kLZ, kLX};
        const std::vector<core::jet::Layer> layers =
            core::jet::layers_of(dec.mlp());
        std::array<Tensor, 6> bundle;
        std::array<float*, 6> outs{};
        for (std::size_t m = 0; m < bundle.size(); ++m) {
          bundle[m] = Tensor::uninitialized(Shape{n * q, kOut});
          outs[m] = bundle[m].data();
        }
        core::jet::forward(grid, coords.data(), layers, act, outs);
        Tensor value = Tensor::uninitialized(Shape{n * q, kOut});
        core::jet::forward(grid, coords.data(), layers, act, {value.data()});
        const Tensor tape =
            tape::decode(dec.mlp(), ad::Var(latent, /*requires_grad=*/false),
                         coords, q)
                .value();
        const ad::Var recorded =
            dec.decode(ad::Var(latent, /*requires_grad=*/true), coords);
        ASSERT_NE(recorded.node()->backward_fn, nullptr);
        EXPECT_TRUE(bitwise_equal(recorded.value(), value))
            << "recorded decode() vs value pass";

        // With FMA hardware the compiler contracts the scalar lanes'
        // float arithmetic per inlined copy, so there the two may differ
        // in the last bits and only the member gate is asserted.
        ++cases;
        const bool same = bitwise_equal(value, bundle[0]);
        bitwise += same ? 1 : 0;
        if (!scalar) {
          EXPECT_TRUE(same) << "value pass vs bundle value member";
        }
        const double e_bundle = rel_err(value, bundle[0]);
        const double e_tape = rel_err(value, tape);
        worst_bundle = std::max(worst_bundle, e_bundle);
        worst_tape = std::max(worst_tape, e_tape);
        EXPECT_LT(e_bundle, 1e-5);
        EXPECT_LT(e_tape, 1e-5);
      }
    std::printf("%s lanes: value pass bitwise equal to the bundle's value "
                "member in %d of %d configurations; largest error relative "
                "to the largest entry: vs bundle %.3g, vs tape %.3g\n",
                scalar ? "scalar" : "vector", bitwise, cases, worst_bundle,
                worst_tape);
  }
}

// Under ScopedInlineLoops every parallel_for runs inline, so the run is a
// 1-thread pool; the pooled run fans its blocks and samples out over the
// pool. Both nodes, the bundle and the value pass, also on the sparse grid
// and at queries on the grid's faces.
TEST(DecodeJet, SerialRunIsBitwisePooledRun) {
  ASSERT_GE(ThreadPool::global().size(), 2) << "needs a multi-thread pool";
  std::vector<JetCase> inputs = layout_cases({{32, 32}});
  inputs.insert(inputs.begin(), JetCase{kC, kOut, {32, 32}, {{4, 384}}});
  for (const Path path : {Path::kBundle, Path::kValue})
    for (nn::Activation act :
         {nn::Activation::kSoftplus, nn::Activation::kTanh})
      for (const JetCase& jc : inputs) {
        const auto [n, q] = jc.shapes.front();
        SCOPED_TRACE(::testing::Message()
                     << (path == Path::kBundle ? "bundle" : "value")
                     << ", activation " << static_cast<int>(act) << ", n "
                     << n << ", q " << q
                     << (jc.layout.faces ? ", faces" : ""));
        Rng rng(7);
        ContinuousDecoder dec(decoder_config(act, jc.hidden), rng);
        ad::Var latent(make_latent(rng, n, kC, jc.layout), true);
        const Tensor coords = make_coords(rng, n, q, jc.layout);
        const std::array<Tensor, 6> r = loss_weights(rng, n * q);

        const BundleRun serial = [&] {
          ScopedInlineLoops inline_loops;
          return run_decode(dec, latent, coords, r, path);
        }();
        const BundleRun pooled = run_decode(dec, latent, coords, r, path);
        for (std::size_t m = 0; m < serial.members.size(); ++m)
          EXPECT_TRUE(bitwise_equal(serial.members[m], pooled.members[m]))
              << "member " << m;
        for (std::size_t i = 0; i < serial.grads.size(); ++i)
          EXPECT_TRUE(bitwise_equal(serial.grads[i], pooled.grads[i]))
              << "gradient " << i;
      }
}

TEST(DecodeJet, WarmedForwardAndBackwardStayOffTheHeap) {
  for (const Path path : {Path::kBundle, Path::kValue}) {
    SCOPED_TRACE(path == Path::kBundle ? "bundle" : "value");
    Rng rng(8);
    ContinuousDecoder dec(
        decoder_config(nn::Activation::kSoftplus, {32, 32}), rng);
    ad::Var latent(Tensor::randn(Shape{4, kC, kLT, kLZ, kLX}, rng, 0.5f),
                   true);
    const Tensor coords = make_coords(rng, 4, 384);
    const std::array<Tensor, 6> r = loss_weights(rng, 4 * 384);
    for (int i = 0; i < 3; ++i)
      (void)run_decode(dec, latent, coords, r, path);
    auto& alloc = backend::CachingAllocator::instance();
    const auto before = alloc.stats();
    (void)run_decode(dec, latent, coords, r, path);
    const auto after = alloc.stats();
    EXPECT_GT(after.allocs, before.allocs);
    EXPECT_EQ(after.heap_allocs, before.heap_allocs)
        << "a warmed forward and backward must be served from the "
           "allocator's cache";
  }
}

TEST(DecodeJet, NonFiniteCoordinatesAreRejected) {
  Rng rng(9);
  ContinuousDecoder dec(decoder_config(nn::Activation::kSoftplus, {8}), rng);
  ad::Var latent(Tensor::randn(Shape{1, kC, kLT, kLZ, kLX}, rng, 0.5f), true);
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    Tensor coords = make_coords(rng, 1, 9);
    coords.data()[4 * 3 + 1] = bad;
    EXPECT_THROW(dec.decode_with_derivatives(latent, coords), Error);
    EXPECT_THROW(dec.decode(latent, coords), Error);
    ad::NoGradGuard no_grad;
    EXPECT_THROW(dec.decode(latent, coords), Error);
  }
}

}  // namespace
}  // namespace mfn
