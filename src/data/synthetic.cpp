#include "data/synthetic.h"

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace ss {

SyntheticSpec SyntheticSpec::cifar10_like() {
  SyntheticSpec s;
  s.num_classes = 10;
  s.feature_dim = 64;
  s.train_size = 16384;
  s.test_size = 4096;
  s.modes_per_class = 3;
  s.class_separation = 0.55;
  s.within_stddev = 1.0;
  s.label_noise = 0.06;
  s.seed = 1234;
  return s;
}

SyntheticSpec SyntheticSpec::cifar100_like() {
  SyntheticSpec s;
  s.num_classes = 100;
  s.feature_dim = 96;
  s.train_size = 16384;
  s.test_size = 4096;
  s.modes_per_class = 2;
  s.class_separation = 0.80;
  s.within_stddev = 1.0;
  s.label_noise = 0.04;
  s.seed = 5678;
  return s;
}

namespace {

struct ModeCenters {
  // centers[class][mode] is a feature_dim vector.
  std::vector<std::vector<std::vector<float>>> centers;
};

ModeCenters make_centers(const SyntheticSpec& spec, Rng& rng) {
  ModeCenters mc;
  mc.centers.resize(static_cast<std::size_t>(spec.num_classes));
  for (auto& modes : mc.centers) {
    modes.resize(static_cast<std::size_t>(spec.modes_per_class));
    for (auto& center : modes) {
      center.resize(spec.feature_dim);
      for (auto& v : center)
        v = static_cast<float>(rng.gaussian(0.0, spec.class_separation));
    }
  }
  return mc;
}

Dataset sample_set(const SyntheticSpec& spec, const ModeCenters& mc, std::size_t n,
                   double label_noise, Rng& rng) {
  Tensor features({n, spec.feature_dim});
  std::vector<int> labels(n);
  float* pf = features.data();
  // Standardize to ~unit per-dimension variance, as input pipelines do for
  // image data (per-channel normalization in the paper's Tensor2Tensor
  // preprocessing).  Keeps gradient scales sane for the unnormalized MLP.
  const float inv_scale = static_cast<float>(
      1.0 / std::sqrt(spec.class_separation * spec.class_separation +
                      spec.within_stddev * spec.within_stddev));
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(spec.num_classes)));
    const auto& modes = mc.centers[static_cast<std::size_t>(cls)];
    const auto& center = modes[rng.uniform_index(modes.size())];
    float* row = pf + i * spec.feature_dim;
    for (std::size_t d = 0; d < spec.feature_dim; ++d)
      row[d] = (center[d] + static_cast<float>(rng.gaussian(0.0, spec.within_stddev))) *
               inv_scale;
    int y = cls;
    if (label_noise > 0.0 && rng.bernoulli(label_noise))
      y = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(spec.num_classes)));
    labels[i] = y;
  }
  return Dataset(std::move(features), std::move(labels), spec.num_classes);
}

/// The generator's random state: the mode centers drawn from the root
/// stream, then one forked stream per half (train = fork 1, test = fork 2).
struct SyntheticStreams {
  ModeCenters mc;
  Rng train;
  Rng test;
};

SyntheticStreams make_streams(const SyntheticSpec& spec) {
  if (spec.num_classes < 2) throw ConfigError("make_synthetic: need >= 2 classes");
  if (spec.feature_dim == 0) throw ConfigError("make_synthetic: feature_dim must be > 0");
  if (spec.modes_per_class < 1) throw ConfigError("make_synthetic: modes_per_class >= 1");
  if (spec.label_noise < 0.0 || spec.label_noise >= 1.0)
    throw ConfigError("make_synthetic: label_noise in [0, 1)");

  Rng rng(spec.seed);
  ModeCenters mc = make_centers(spec, rng);
  Rng train_rng = rng.fork(1);
  Rng test_rng = rng.fork(2);
  return {std::move(mc), train_rng, test_rng};
}

Dataset sample_train(const SyntheticSpec& spec, SyntheticStreams& s) {
  return sample_set(spec, s.mc, spec.train_size, spec.label_noise, s.train);
}

Dataset sample_test(const SyntheticSpec& spec, SyntheticStreams& s) {
  return sample_set(spec, s.mc, spec.test_size, /*label_noise=*/0.0, s.test);
}

}  // namespace

DataSplit make_synthetic(const SyntheticSpec& spec) {
  SyntheticStreams s = make_streams(spec);
  DataSplit split;
  split.train = sample_train(spec, s);
  split.test = sample_test(spec, s);
  return split;
}

Dataset make_synthetic_split(const SyntheticSpec& spec, SyntheticSplit which) {
  SyntheticStreams s = make_streams(spec);
  return which == SyntheticSplit::kTrain ? sample_train(spec, s) : sample_test(spec, s);
}

}  // namespace ss
