#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/pool.h"
#include "tensor/ops.h"

namespace ss {
namespace {

/// Numeric gradient check of a layer through a softmax-CE head: perturbs
/// every parameter and input and compares with the analytic backward.
void check_layer_gradients(Layer& layer, Tensor x, const std::vector<int>& labels,
                           double tol = 5e-3) {
  SoftmaxCrossEntropy head;
  auto loss_of = [&](const Tensor& input) {
    const Tensor& out = layer.forward(input);
    return head.forward(out, labels);
  };

  // Analytic gradients.
  loss_of(x);
  const Tensor& dx = layer.backward(head.backward());
  std::vector<Tensor> param_grads;
  for (Tensor* g : layer.grads()) param_grads.push_back(*g);
  const Tensor dx_copy = dx;

  const double eps = 1e-3;
  // Parameters.
  auto params = layer.params();
  for (std::size_t t = 0; t < params.size(); ++t) {
    Tensor& p = *params[t];
    for (std::size_t i = 0; i < std::min<std::size_t>(p.numel(), 24); ++i) {
      const float orig = p[i];
      p[i] = orig + static_cast<float>(eps);
      const double lp = loss_of(x);
      p[i] = orig - static_cast<float>(eps);
      const double lm = loss_of(x);
      p[i] = orig;
      EXPECT_NEAR(param_grads[t][i], (lp - lm) / (2 * eps), tol)
          << "param tensor " << t << " index " << i;
    }
  }
  // Inputs.
  for (std::size_t i = 0; i < std::min<std::size_t>(x.numel(), 24); ++i) {
    const float orig = x[i];
    x[i] = orig + static_cast<float>(eps);
    const double lp = loss_of(x);
    x[i] = orig - static_cast<float>(eps);
    const double lm = loss_of(x);
    x[i] = orig;
    EXPECT_NEAR(dx_copy[i], (lp - lm) / (2 * eps), tol) << "input index " << i;
  }
}

Tensor random_input(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.gaussian());
  return t;
}

/// Runs backward() on one copy of `layer` and backward_params() on another
/// after the same forward, and expects byte-identical parameter gradients.
void expect_params_only_backward_matches(const Layer& layer, const Tensor& x,
                                         const std::vector<int>& labels) {
  const std::unique_ptr<Layer> full = layer.clone();
  const std::unique_ptr<Layer> params_only = layer.clone();
  SoftmaxCrossEntropy head;
  head.forward(full->forward(x), labels);
  full->backward(head.backward());
  head.forward(params_only->forward(x), labels);
  params_only->backward_params(head.backward());
  const auto want = full->grads();
  const auto got = params_only->grads();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    ASSERT_EQ(got[t]->numel(), want[t]->numel());
    EXPECT_EQ(std::memcmp(got[t]->data(), want[t]->data(), want[t]->numel() * sizeof(float)), 0)
        << "grad tensor " << t;
  }
}

TEST(Dense, NumericGradientCheck) {
  Rng rng(21);
  Dense layer(6, 4, rng);
  check_layer_gradients(layer, random_input({3, 6}, 22), {0, 2, 3});
}

TEST(Dense, ForwardShapeAndBias) {
  Rng rng(23);
  Dense layer(2, 3, rng);
  // Set known weights: y = x W + b.
  auto params = layer.params();
  params[0]->fill(1.0f);  // W all ones
  params[1]->fill(0.5f);  // b
  Tensor x({1, 2}, std::vector<float>{2.0f, 3.0f});
  const Tensor& y = layer.forward(x);
  ASSERT_EQ(y.dim(1), 3u);
  EXPECT_NEAR(y[0], 5.5f, 1e-6);
}

TEST(Dense, CloneIsDeepCopy) {
  Rng rng(24);
  Dense layer(3, 2, rng);
  auto copy = layer.clone();
  layer.params()[0]->fill(0.0f);
  // The clone's weights are untouched.
  bool any_nonzero = false;
  for (Tensor* p : copy->params())
    for (std::size_t i = 0; i < p->numel(); ++i)
      if ((*p)[i] != 0.0f) any_nonzero = true;
  EXPECT_TRUE(any_nonzero);
}

TEST(ReLU, NumericGradientCheck) {
  ReLU layer;
  check_layer_gradients(layer, random_input({4, 5}, 25), {0, 1, 2, 4});
}

TEST(Tanh, NumericGradientCheck) {
  Tanh layer;
  check_layer_gradients(layer, random_input({4, 5}, 26), {0, 1, 2, 4});
}

TEST(Conv2D, NumericGradientCheck) {
  Rng rng(27);
  // 1x4x4 input, 2 output channels, 3x3 kernel, pad 1 -> out 2x4x4 = 32.
  Conv2D layer(1, 4, 4, 2, 3, 3, 1, rng);
  check_layer_gradients(layer, random_input({2, 16}, 28), {5, 17}, 1e-2);
}

TEST(Dense, ParamsOnlyBackwardGivesSameGradients) {
  Rng rng(61);
  const Dense layer(7, 5, rng);
  expect_params_only_backward_matches(layer, random_input({6, 7}, 62), {0, 1, 2, 3, 4, 0});
}

TEST(Conv2D, ParamsOnlyBackwardGivesSameGradients) {
  Rng rng(63);
  const Conv2D layer(2, 5, 4, 3, 3, 3, 1, rng);  // 3 x 5 x 4 = 60 outputs
  expect_params_only_backward_matches(layer, random_input({3, 2 * 5 * 4}, 64), {1, 59, 30});
}

TEST(Conv2D, OutputGeometry) {
  Rng rng(29);
  Conv2D layer(3, 8, 8, 4, 3, 3, 1, rng);
  EXPECT_EQ(layer.out_height(), 8u);
  EXPECT_EQ(layer.out_width(), 8u);
  EXPECT_EQ(layer.out_features(), 4u * 8u * 8u);
  const Tensor& y = layer.forward(random_input({2, 3 * 8 * 8}, 30));
  EXPECT_EQ(y.dim(1), layer.out_features());
}

TEST(MaxPool, ForwardPicksMaxAndBackwardRoutes) {
  MaxPool2x2 pool(1, 2, 2);
  Tensor x({1, 4}, std::vector<float>{1.0f, 5.0f, 2.0f, 3.0f});
  const Tensor& y = pool.forward(x);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_EQ(y[0], 5.0f);
  Tensor dy({1, 1}, std::vector<float>{2.0f});
  const Tensor& dx = pool.backward(dy);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 2.0f);  // gradient routed to the argmax position
}

TEST(Loss, Top1Accuracy) {
  Tensor logits({2, 3}, std::vector<float>{0.1f, 0.9f, 0.0f, 5.0f, 1.0f, 2.0f});
  EXPECT_DOUBLE_EQ(top1_accuracy(logits, std::vector<int>{1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(top1_accuracy(logits, std::vector<int>{0, 0}), 0.5);
}

TEST(Loss, UniformLogitsGiveLogC) {
  Tensor logits({4, 10}, 0.0f);
  SoftmaxCrossEntropy head;
  const double loss = head.forward(logits, std::vector<int>{0, 1, 2, 3});
  EXPECT_NEAR(loss, std::log(10.0), 1e-5);
}

}  // namespace
}  // namespace ss
