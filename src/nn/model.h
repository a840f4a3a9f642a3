// Sequential model container with flat-parameter transport.
//
// The parameter-server runtimes move parameters and gradients as flat float
// vectors ("what goes over the wire"); Model provides the flatten/unflatten
// bridge plus batched loss/gradient and evaluation entry points.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/layer.h"
#include "nn/loss.h"

namespace ss {

class Model {
 public:
  Model() = default;

  /// Append a layer (builder style).
  Model& add(std::unique_ptr<Layer> layer);

  /// Total number of scalar parameters.
  [[nodiscard]] std::size_t num_params() const;

  /// Copy all parameters into a flat vector (PS "pull" payload).
  void get_params(std::span<float> out) const;
  [[nodiscard]] std::vector<float> get_params() const;

  /// Load parameters from a flat vector (PS "push" of new weights).
  void set_params(std::span<const float> in);

  /// Forward to logits.
  const Tensor& forward(const Tensor& x);

  /// Forward + loss + backward; leaves gradients in the layers.  Returns
  /// mean cross-entropy over the batch.
  double compute_gradients(const Tensor& x, std::span<const int> labels);

  /// Copy current layer gradients into a flat vector, parallel to
  /// get_params() ordering.
  void get_gradients(std::span<float> out) const;

  /// Convenience: set_params + compute_gradients + get_gradients.  This is
  /// exactly one worker "task" in the paper's Figure 3.
  double gradient_at(std::span<const float> params, const Tensor& x,
                     std::span<const int> labels, std::span<float> grad_out);

  /// Top-1 accuracy over a dataset, evaluated in chunks of `batch` rows.
  double evaluate_accuracy(const Dataset& data, std::size_t batch = 512);

  /// Mean loss over a dataset (test loss; not used in the training loop).
  double evaluate_loss(const Dataset& data, std::size_t batch = 512);

  /// Deep copy (cloned layers); used for per-thread replicas.
  [[nodiscard]] Model clone() const;

  /// One line per layer.
  [[nodiscard]] std::string summary() const;

  [[nodiscard]] std::size_t num_layers() const noexcept { return layers_.size(); }

  /// Layer `i` in forward order (bounds-checked).
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  SoftmaxCrossEntropy loss_;
};

}  // namespace ss
