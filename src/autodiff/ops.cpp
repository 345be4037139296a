#include "autodiff/ops.h"

#include <algorithm>

#include "backend/sgemm.h"
#include "common/error.h"
#include "tensor/tensor_ops.h"

namespace mfn::ad {
namespace {

void check_same_shape(const Var& a, const Var& b, const char* op) {
  MFN_CHECK(a.shape() == b.shape(), op << ": shape mismatch "
                                       << a.shape().str() << " vs "
                                       << b.shape().str());
}

}  // namespace

Var add(const Var& a, const Var& b) {
  check_same_shape(a, b, "add");
  return make_op(mfn::add(a.value(), b.value()), {a, b}, [](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->accumulate(n.grad);
    if (n.parents[1]->requires_grad) n.parents[1]->accumulate(n.grad);
  });
}

Var sub(const Var& a, const Var& b) {
  check_same_shape(a, b, "sub");
  return make_op(mfn::sub(a.value(), b.value()), {a, b}, [](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->accumulate(n.grad);
    if (n.parents[1]->requires_grad)
      n.parents[1]->accumulate(mfn::neg(n.grad));
  });
}

Var mul(const Var& a, const Var& b) {
  check_same_shape(a, b, "mul");
  return make_op(mfn::mul(a.value(), b.value()), {a, b}, [](Node& n) {
    if (n.parents[0]->requires_grad)
      n.parents[0]->accumulate(mfn::mul(n.grad, n.parents[1]->value));
    if (n.parents[1]->requires_grad)
      n.parents[1]->accumulate(mfn::mul(n.grad, n.parents[0]->value));
  });
}

Var div(const Var& a, const Var& b) {
  check_same_shape(a, b, "div");
  return make_op(mfn::div(a.value(), b.value()), {a, b}, [](Node& n) {
    const Tensor& bv = n.parents[1]->value;
    if (n.parents[0]->requires_grad)
      n.parents[0]->accumulate(mfn::div(n.grad, bv));
    if (n.parents[1]->requires_grad) {
      // d(a/b)/db = -a / b^2
      Tensor g = mfn::div(mfn::mul(n.grad, n.parents[0]->value),
                          mfn::mul(bv, bv));
      n.parents[1]->accumulate(mfn::neg(g));
    }
  });
}

Var add_scalar(const Var& a, float s) {
  return make_op(mfn::add_scalar(a.value(), s), {a}, [](Node& n) {
    n.parents[0]->accumulate(n.grad);
  });
}

Var mul_scalar(const Var& a, float s) {
  return make_op(mfn::mul_scalar(a.value(), s), {a}, [s](Node& n) {
    n.parents[0]->accumulate(mfn::mul_scalar(n.grad, s));
  });
}

Var neg(const Var& a) { return mul_scalar(a, -1.0f); }

Var relu(const Var& a) {
  return make_op(mfn::relu(a.value()), {a}, [](Node& n) {
    n.parents[0]->accumulate(
        mfn::relu_grad(n.parents[0]->value, n.grad));
  });
}

Var softplus(const Var& a) {
  return make_op(mfn::softplus(a.value()), {a}, [](Node& n) {
    // d softplus / dx = sigmoid(x), fused with the upstream grad
    n.parents[0]->accumulate(
        mfn::softplus_grad(n.parents[0]->value, n.grad));
  });
}

Var sigmoid(const Var& a) {
  Tensor s = mfn::sigmoid(a.value());
  return make_op(s, {a}, [s](Node& n) {
    n.parents[0]->accumulate(mfn::sigmoid_grad(s, n.grad));  // g * s * (1-s)
  });
}

Var tanh(const Var& a) {
  Tensor t = mfn::tanh(a.value());
  return make_op(t, {a}, [t](Node& n) {
    n.parents[0]->accumulate(mfn::tanh_grad(t, n.grad));  // g * (1 - t^2)
  });
}

Var exp(const Var& a) {
  Tensor e = mfn::exp(a.value());
  return make_op(e, {a}, [e](Node& n) {
    n.parents[0]->accumulate(mfn::mul(n.grad, e));
  });
}

Var abs(const Var& a) {
  return make_op(mfn::abs(a.value()), {a}, [](Node& n) {
    n.parents[0]->accumulate(
        mfn::abs_grad(n.parents[0]->value, n.grad));  // g * sign(x)
  });
}

Var square(const Var& a) {
  return make_op(mfn::square(a.value()), {a}, [](Node& n) {
    Tensor g = mfn::mul(n.grad, n.parents[0]->value);
    n.parents[0]->accumulate(mfn::mul_scalar(g, 2.0f));
  });
}

Var sum(const Var& a) {
  return make_op(Tensor::scalar(mfn::sum(a.value())), {a}, [](Node& n) {
    const float g = n.grad.item();
    n.parents[0]->accumulate(
        Tensor::full(n.parents[0]->value.shape(), g));
  });
}

Var mean(const Var& a) {
  const auto count = static_cast<float>(a.numel());
  return make_op(Tensor::scalar(mfn::mean(a.value())), {a}, [count](Node& n) {
    const float g = n.grad.item() / count;
    n.parents[0]->accumulate(Tensor::full(n.parents[0]->value.shape(), g));
  });
}

Var matmul(const Var& a, const Var& b) {
  return make_op(mfn::matmul(a.value(), b.value()), {a, b}, [](Node& n) {
    const Tensor& av = n.parents[0]->value;
    const Tensor& bv = n.parents[1]->value;
    if (n.parents[0]->requires_grad)
      n.parents[0]->accumulate(mfn::matmul_nt(n.grad, bv));  // g * b^T
    if (n.parents[1]->requires_grad)
      n.parents[1]->accumulate(mfn::matmul_tn(av, n.grad));  // a^T * g
  });
}

Var linear(const Var& x, const Var& weight, const Var& bias) {
  MFN_CHECK(x.value().ndim() == 2 && weight.value().ndim() == 2,
            "linear expects 2-D x and weight");
  MFN_CHECK(x.dim(1) == weight.dim(1),
            "linear in-features " << x.shape().str() << " vs weight "
                                  << weight.shape().str());
  // Fused x * W^T + b through the backend GEMM: the per-feature bias is
  // added in the GEMM write-back, so decoder query batches do one pass
  // over y instead of matmul_nt + add_rowvec.
  const std::int64_t B = x.dim(0), out_f = weight.dim(0), in_f = x.dim(1);
  Tensor y = Tensor::uninitialized(Shape{B, out_f});
  const bool has_bias = bias.defined();
  if (has_bias) {
    backend::sgemm_bias_cols(backend::Trans::kNo, backend::Trans::kYes, B,
                             out_f, in_f, 1.0f, x.value().data(),
                             weight.value().data(), 0.0f, bias.value().data(),
                             y.data());
  } else {
    backend::sgemm(backend::Trans::kNo, backend::Trans::kYes, B, out_f, in_f,
                   1.0f, x.value().data(), weight.value().data(), 0.0f,
                   y.data());
  }

  std::vector<Var> parents{x, weight};
  if (has_bias) parents.push_back(bias);
  return make_op(std::move(y), std::move(parents), [has_bias](Node& n) {
    const Tensor& xv = n.parents[0]->value;
    const Tensor& wv = n.parents[1]->value;
    if (n.parents[0]->requires_grad)
      n.parents[0]->accumulate(mfn::matmul(n.grad, wv));  // (B,out)(out,in)
    if (n.parents[1]->requires_grad)
      n.parents[1]->accumulate(mfn::matmul_tn(n.grad, xv));  // g^T x
    if (has_bias && n.parents[2]->requires_grad)
      n.parents[2]->accumulate(mfn::sum_axis0(n.grad));
  });
}

Var slice_cols(const Var& a, std::int64_t begin, std::int64_t end) {
  MFN_CHECK(a.value().ndim() == 2, "slice_cols expects 2-D");
  const std::int64_t m = a.dim(0), k = a.dim(1);
  MFN_CHECK(0 <= begin && begin < end && end <= k,
            "slice_cols [" << begin << "," << end << ") of " << k);
  const std::int64_t w = end - begin;
  // Fully covered by the row copies below — no zero-fill needed.
  Tensor out = Tensor::uninitialized(Shape{m, w});
  {
    const float* pa = a.value().data();
    float* po = out.data();
    for (std::int64_t i = 0; i < m; ++i)
      std::copy(pa + i * k + begin, pa + i * k + end, po + i * w);
  }
  return make_op(std::move(out), {a}, [begin, w, k, m](Node& n) {
    Tensor& g = n.parents[0]->ensure_grad();
    float* pg = g.data();
    const float* po = n.grad.data();
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < w; ++j)
        pg[i * k + begin + j] += po[i * w + j];
  });
}

Var slice_rows(const Var& a, std::int64_t begin, std::int64_t end) {
  MFN_CHECK(a.value().ndim() == 2, "slice_rows expects 2-D");
  const std::int64_t m = a.dim(0), k = a.dim(1);
  MFN_CHECK(0 <= begin && begin < end && end <= m,
            "slice_rows [" << begin << "," << end << ") of " << m);
  const std::int64_t rows = end - begin;
  // Fully covered by the block copy below — no zero-fill needed.
  Tensor out = Tensor::uninitialized(Shape{rows, k});
  std::copy(a.value().data() + begin * k, a.value().data() + end * k,
            out.data());
  return make_op(std::move(out), {a}, [begin, rows, k](Node& n) {
    Tensor& g = n.parents[0]->ensure_grad();
    float* pg = g.data() + begin * k;
    const float* po = n.grad.data();
    for (std::int64_t i = 0; i < rows * k; ++i) pg[i] += po[i];
  });
}

Var reshape(const Var& a, Shape new_shape) {
  Shape old_shape = a.shape();
  // clone so the node owns distinct storage; grads reshape back.
  return make_op(a.value().reshape(new_shape).clone(), {a},
                 [old_shape](Node& n) {
                   n.parents[0]->accumulate(n.grad.reshape(old_shape));
                 });
}

Var concat(const std::vector<Var>& parts, int axis) {
  MFN_CHECK(!parts.empty(), "concat of zero Vars");
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const auto& p : parts) values.push_back(p.value());
  Tensor out = mfn::concat(values, axis);

  const int nd = parts[0].value().ndim();
  int ax = axis < 0 ? axis + nd : axis;
  std::vector<std::int64_t> sizes;
  sizes.reserve(parts.size());
  for (const auto& p : parts) sizes.push_back(p.dim(ax));

  return make_op(std::move(out), parts, [ax, sizes](Node& n) {
    std::vector<Tensor> gs = mfn::split(n.grad, ax, sizes);
    for (std::size_t i = 0; i < gs.size(); ++i)
      if (n.parents[i]->requires_grad) n.parents[i]->accumulate(gs[i]);
  });
}

Var conv3d(const Var& x, const Var& weight, const Var& bias,
           const Conv3dSpec& spec) {
  const bool has_bias = bias.defined();
  Tensor y = conv3d_forward(x.value(), weight.value(),
                            has_bias ? bias.value() : Tensor(), spec);
  std::vector<Var> parents{x, weight};
  if (has_bias) parents.push_back(bias);
  return make_op(std::move(y), std::move(parents), [spec, has_bias](Node& n) {
    Conv3dGrads g = conv3d_backward(n.parents[0]->value, n.parents[1]->value,
                                    has_bias, spec, n.grad);
    if (n.parents[0]->requires_grad) n.parents[0]->accumulate(g.gx);
    if (n.parents[1]->requires_grad) n.parents[1]->accumulate(g.gweight);
    if (has_bias && n.parents[2]->requires_grad)
      n.parents[2]->accumulate(g.gbias);
  });
}

Var maxpool3d(const Var& x, Dims3 kernel) {
  MaxPool3dResult res = maxpool3d_forward(x.value(), kernel);
  Shape in_shape = x.shape();
  auto argmax = std::make_shared<std::vector<std::int64_t>>(
      std::move(res.argmax));
  return make_op(std::move(res.out), {x},
                 [in_shape, kernel, argmax](Node& n) {
                   n.parents[0]->accumulate(
                       maxpool3d_backward(in_shape, kernel, *argmax, n.grad));
                 });
}

Var upsample_nearest3d(const Var& x, Dims3 factor) {
  Shape in_shape = x.shape();
  return make_op(upsample_nearest3d_forward(x.value(), factor), {x},
                 [in_shape, factor](Node& n) {
                   n.parents[0]->accumulate(
                       upsample_nearest3d_backward(in_shape, factor, n.grad));
                 });
}

Var batchnorm3d(const Var& x, const Var& gamma, const Var& beta, float eps,
                Tensor* out_batch_mean, Tensor* out_batch_var) {
  auto saved = std::make_shared<BatchNorm3dResult>(
      batchnorm3d_forward(x.value(), gamma.value(), beta.value(), eps));
  if (out_batch_mean) *out_batch_mean = saved->batch_mean;
  if (out_batch_var) *out_batch_var = saved->batch_var;
  Tensor out = saved->out;
  return make_op(std::move(out), {x, gamma, beta}, [saved](Node& n) {
    BatchNorm3dGrads g =
        batchnorm3d_backward(*saved, n.parents[1]->value, n.grad);
    if (n.parents[0]->requires_grad) n.parents[0]->accumulate(g.gx);
    if (n.parents[1]->requires_grad) n.parents[1]->accumulate(g.ggamma);
    if (n.parents[2]->requires_grad) n.parents[2]->accumulate(g.gbeta);
  });
}

}  // namespace mfn::ad
