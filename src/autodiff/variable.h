// Reverse-mode automatic differentiation: dynamic (define-by-run) tape.
//
// A Var is a cheap handle to a graph Node holding a value tensor, an
// optional gradient, and a backward closure that scatters the node's
// gradient into its parents. Calling ad::backward(loss) on a scalar Var
// runs the closures in reverse topological order.
//
// MeshfreeFlowNet's training tape holds ordinary ops plus one fused node
// for the continuous decoder's derivative bundle (core/decode_jet.h): the
// forward-mode coordinate derivatives of the equation loss are computed
// inside that node, and its hand-written backward supplies the
// "gradients of derivatives" that reverse mode needs from it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace mfn::ad {

class Node;
using NodePtr = std::shared_ptr<Node>;

class Node {
 public:
  Tensor value;
  Tensor grad;  // lazily allocated by ensure_grad()
  bool requires_grad = false;
  std::vector<NodePtr> parents;
  /// Reads this->grad and accumulates into parents' grads. Null for leaves
  /// and for nodes created in no-grad contexts.
  std::function<void(Node&)> backward_fn;

  /// Allocate (zero-filled) grad on first use.
  Tensor& ensure_grad();
  /// grad += g (allocating if needed).
  void accumulate(const Tensor& g);
};

/// Value + gradient handle. Copy is shallow (shared node).
class Var {
 public:
  Var() = default;
  /// Leaf variable. Parameters pass requires_grad = true.
  explicit Var(Tensor value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const;
  Tensor& value();
  /// Gradient tensor; throws if backward has not populated it.
  const Tensor& grad() const;
  /// Mutable gradient (allocates zeros on first access). Used by the
  /// optimizer utilities and the distributed all-reduce.
  Tensor& mutable_grad();
  bool has_grad() const;
  bool requires_grad() const;
  void zero_grad();

  const Shape& shape() const { return value().shape(); }
  std::int64_t numel() const { return value().numel(); }
  std::int64_t dim(int i) const { return value().dim(i); }

  const NodePtr& node() const { return node_; }

  /// Detached copy: same value tensor, no graph history.
  Var detach() const;

 private:
  friend Var make_op(Tensor value, std::vector<Var> parents,
                     std::function<void(Node&)> backward_fn);
  NodePtr node_;
};

/// Create an op result node. If no parent requires grad, the backward
/// closure is dropped and the node behaves like a constant.
Var make_op(Tensor value, std::vector<Var> parents,
            std::function<void(Node&)> backward_fn);

/// RAII scope that disables graph recording on this thread: every op
/// created inside behaves like a constant (no parents, no backward).
/// Used for inference over full grids where tape memory would be wasted.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  static bool active();

 private:
  bool prev_;
};

/// Run reverse-mode accumulation from a scalar (1-element) variable.
/// Gradients accumulate into every reachable requires_grad node; callers
/// zero parameter grads between steps (Optimizer does this).
void backward(const Var& loss);

}  // namespace mfn::ad
