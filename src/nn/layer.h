// Layer abstraction for the sequential NN models trained by the PS runtimes.
//
// Layers own their parameters and gradients as Tensors and cache whatever
// they need between forward and backward.  A Model flattens parameters in and
// out for parameter-server transport, so layers also expose mutable views.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace ss {

/// Base class for all layers.  Not copyable through the base (clone() gives
/// deep copies for per-thread model replicas).
class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Forward pass on a batch; caches activations for backward.
  virtual const Tensor& forward(const Tensor& x) = 0;

  /// Backward pass: receives dL/d(output), returns dL/d(input) and
  /// accumulates parameter gradients (overwrite semantics per step).
  virtual const Tensor& backward(const Tensor& dy) = 0;

  /// Backward pass whose dL/d(input) nothing reads (the model's first
  /// layer): leaves the same parameter gradients as backward() and may skip
  /// the input gradient.  The default runs the full backward().
  virtual void backward_params(const Tensor& dy) { backward(dy); }

  /// Mutable parameter tensors (may be empty for stateless layers).
  virtual std::vector<Tensor*> params() { return {}; }

  /// Gradient tensors, parallel to params().
  virtual std::vector<Tensor*> grads() { return {}; }

  /// Deep copy (fresh caches, copied parameters).
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

  /// Human-readable layer description for model summaries.
  [[nodiscard]] virtual std::string describe() const = 0;

 protected:
  Layer() = default;
};

}  // namespace ss
