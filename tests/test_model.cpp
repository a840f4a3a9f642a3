#include "nn/model.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/error.h"
#include "common/rng.h"
#include "data/batcher.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/zoo.h"

namespace ss {
namespace {

Model small_model(std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  m.add(std::make_unique<Dense>(8, 6, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(6, 3, rng));
  return m;
}

TEST(Model, ParamRoundTrip) {
  Model m = small_model(31);
  const std::vector<float> params = m.get_params();
  EXPECT_EQ(params.size(), m.num_params());
  EXPECT_EQ(params.size(), 8u * 6 + 6 + 6 * 3 + 3);
  std::vector<float> shifted = params;
  for (auto& v : shifted) v += 1.0f;
  m.set_params(shifted);
  EXPECT_EQ(m.get_params(), shifted);
}

TEST(Model, SetParamsSizeMismatchThrows) {
  Model m = small_model(32);
  std::vector<float> wrong(m.num_params() + 1);
  EXPECT_THROW(m.set_params(wrong), ShapeError);
}

TEST(Model, GradientAtIsDeterministic) {
  Model m = small_model(33);
  const std::vector<float> params = m.get_params();
  Rng rng(34);
  Tensor x({4, 8});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.gaussian());
  const std::vector<int> y = {0, 1, 2, 0};
  std::vector<float> g1(params.size()), g2(params.size());
  const double l1 = m.gradient_at(params, x, y, g1);
  const double l2 = m.gradient_at(params, x, y, g2);
  EXPECT_DOUBLE_EQ(l1, l2);
  EXPECT_EQ(g1, g2);
}

TEST(Model, CloneSharesNothing) {
  Model m = small_model(35);
  Model copy = m.clone();
  EXPECT_EQ(copy.num_params(), m.num_params());
  const auto before = copy.get_params();
  std::vector<float> zeros(m.num_params(), 0.0f);
  m.set_params(zeros);
  EXPECT_EQ(copy.get_params(), before);
}

TEST(Model, EmptyModelForwardThrows) {
  Model m;
  Tensor x({1, 4});
  EXPECT_THROW(m.forward(x), ConfigError);
}

TEST(Model, EvaluateAccuracyOnCraftedProblem) {
  // Identity-like linear model on one-hot inputs must classify perfectly.
  Rng rng(36);
  Model m;
  m.add(std::make_unique<Dense>(3, 3, rng));
  std::vector<float> params(m.num_params(), 0.0f);
  // W = I (3x3 row-major), b = 0.
  params[0] = params[4] = params[8] = 1.0f;
  m.set_params(params);

  Tensor features({3, 3}, std::vector<float>{1, 0, 0, 0, 1, 0, 0, 0, 1});
  Dataset data(std::move(features), {0, 1, 2}, 3);
  EXPECT_DOUBLE_EQ(m.evaluate_accuracy(data), 1.0);
  EXPECT_LT(m.evaluate_loss(data), std::log(3.0));
}

TEST(Model, SummaryMentionsLayers) {
  Model m = small_model(37);
  const std::string s = m.summary();
  EXPECT_NE(s.find("Dense(8 -> 6)"), std::string::npos);
  EXPECT_NE(s.find("ReLU"), std::string::npos);
  EXPECT_NE(s.find("parameters"), std::string::npos);
}

TEST(Zoo, ArchitecturesBuildAndTrainable) {
  Rng rng(38);
  for (ModelArch arch : {ModelArch::kResNet32Lite, ModelArch::kResNet50Lite, ModelArch::kLinear}) {
    Model m = make_model(arch, 64, 10, rng);
    EXPECT_GT(m.num_params(), 0u) << arch_name(arch);
    EXPECT_GT(model_flops_proxy(arch, 64, 10), 0u);
  }
  // The 50-class stand-in must be heavier than the 32-class one.
  EXPECT_GT(model_flops_proxy(ModelArch::kResNet50Lite, 96, 100),
            model_flops_proxy(ModelArch::kResNet32Lite, 64, 10));
}

TEST(Zoo, ConvNetRequiresImageShapedInput) {
  Rng rng(39);
  EXPECT_THROW(make_model(ModelArch::kConvNetTiny, 64, 10, rng), ConfigError);
  Model m = make_model(ModelArch::kConvNetTiny, 3 * 16 * 16, 10, rng);
  Tensor x({2, 3 * 16 * 16}, 0.1f);
  const Tensor& y = m.forward(x);
  EXPECT_EQ(y.dim(1), 10u);
}

TEST(Model, GradientAtMatchesFullBackwardChain) {
  // gradient_at runs the first layer params-only; every parameter gradient
  // must equal, byte for byte, what the full backward chain leaves.
  struct Case {
    ModelArch arch;
    std::size_t input_dim;
  };
  for (const Case c : {Case{ModelArch::kResNet32Lite, 64}, Case{ModelArch::kConvNetTiny, 768},
                       Case{ModelArch::kResNet32BnLite, 64}}) {
    Rng rng(51);
    const Model proto = make_model(c.arch, c.input_dim, 10, rng);
    const std::size_t batch = 8;
    Tensor x({batch, c.input_dim});
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.gaussian());
    std::vector<int> y(batch);
    for (std::size_t i = 0; i < batch; ++i) y[i] = static_cast<int>(i % 10);
    const std::vector<float> params = proto.get_params();

    Model fast = proto.clone();
    std::vector<float> got(params.size());
    const double fast_loss = fast.gradient_at(params, x, y, got);

    Model full = proto.clone();
    full.set_params(params);
    SoftmaxCrossEntropy head;
    const double full_loss = head.forward(full.forward(x), y);
    const Tensor* grad = &head.backward();
    for (std::size_t i = full.num_layers(); i-- > 0;) grad = &full.layer(i).backward(*grad);
    std::vector<float> want(params.size());
    full.get_gradients(want);

    EXPECT_EQ(fast_loss, full_loss) << arch_name(c.arch);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
        << arch_name(c.arch);
  }
}

TEST(Model, LearnsEasySyntheticTask) {
  // A few hundred SGD steps on an easy task should beat chance soundly —
  // the whole substrate (data -> model -> loss -> grads) working together.
  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 1024;
  spec.test_size = 512;
  spec.num_classes = 4;
  spec.class_separation = 1.5;
  const DataSplit split = make_synthetic(spec);

  Rng rng(40);
  Model m = make_model(ModelArch::kResNet32Lite, spec.feature_dim, 4, rng);
  std::vector<float> params = m.get_params();
  std::vector<float> grad(params.size());
  Tensor batch({32, spec.feature_dim});
  std::vector<int> labels;
  std::vector<std::uint32_t> idx;
  MinibatchSampler sampler(ShardSpec{0, 1024}, 32, Rng(41));
  for (int step = 0; step < 300; ++step) {
    sampler.next_batch(idx);
    split.train.gather(idx, batch, labels);
    m.gradient_at(params, batch, labels, grad);
    for (std::size_t i = 0; i < params.size(); ++i) params[i] -= 0.1f * grad[i];
  }
  m.set_params(params);
  EXPECT_GT(m.evaluate_accuracy(split.test), 0.85);
}

}  // namespace
}  // namespace ss
