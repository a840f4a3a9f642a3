#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "common/error.h"
#include "data/batcher.h"
#include "data/synthetic.h"

namespace ss {
namespace {

SyntheticSpec tiny_spec() {
  SyntheticSpec spec = SyntheticSpec::cifar10_like();
  spec.train_size = 512;
  spec.test_size = 128;
  return spec;
}

TEST(Synthetic, SizesAndLabelRanges) {
  const DataSplit split = make_synthetic(tiny_spec());
  EXPECT_EQ(split.train.size(), 512u);
  EXPECT_EQ(split.test.size(), 128u);
  EXPECT_EQ(split.train.feature_dim(), 64u);
  EXPECT_EQ(split.train.num_classes(), 10);
  for (int y : split.train.labels()) {
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 10);
  }
}

TEST(Synthetic, DeterministicForSameSeed) {
  const DataSplit a = make_synthetic(tiny_spec());
  const DataSplit b = make_synthetic(tiny_spec());
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.features().numel(); ++i)
    EXPECT_EQ(a.train.features()[i], b.train.features()[i]);
}

TEST(Synthetic, DifferentSeedsProduceDifferentData) {
  auto spec_b = tiny_spec();
  spec_b.seed = 999;
  const DataSplit a = make_synthetic(tiny_spec());
  const DataSplit b = make_synthetic(spec_b);
  int same = 0;
  for (std::size_t i = 0; i < 100; ++i)
    if (a.train.features()[i] == b.train.features()[i]) ++same;
  EXPECT_LT(same, 5);
}

TEST(Synthetic, FeaturesApproximatelyStandardized) {
  const DataSplit split = make_synthetic(tiny_spec());
  double sq = 0.0;
  const auto& f = split.train.features();
  for (std::size_t i = 0; i < f.numel(); ++i) sq += static_cast<double>(f[i]) * f[i];
  const double var = sq / static_cast<double>(f.numel());
  EXPECT_GT(var, 0.5);
  EXPECT_LT(var, 2.0);
}

TEST(Synthetic, RejectsInvalidSpecs) {
  auto bad = tiny_spec();
  bad.num_classes = 1;
  EXPECT_THROW(make_synthetic(bad), ConfigError);
  bad = tiny_spec();
  bad.label_noise = 1.5;
  EXPECT_THROW(make_synthetic(bad), ConfigError);
}

/// Byte-for-byte equality of two datasets: shape, features and labels.
void expect_same_bytes(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.feature_dim(), b.feature_dim());
  EXPECT_EQ(a.num_classes(), b.num_classes());
  const std::size_t n = a.features().numel();
  ASSERT_EQ(n, b.features().numel());
  EXPECT_EQ(std::memcmp(a.features().data(), b.features().data(), n * sizeof(float)), 0);
  ASSERT_EQ(a.labels().size(), b.labels().size());
  EXPECT_EQ(std::memcmp(a.labels().data(), b.labels().data(), a.labels().size() * sizeof(int)),
            0);
}

TEST(Synthetic, SingleSplitMatchesTheFullSplitBitForBit) {
  SyntheticSpec spec = SyntheticSpec::cifar100_like();
  spec.train_size = 300;
  spec.test_size = 200;
  for (const SyntheticSpec& s : {tiny_spec(), spec}) {
    const DataSplit full = make_synthetic(s);
    expect_same_bytes(make_synthetic_split(s, SyntheticSplit::kTrain), full.train);
    expect_same_bytes(make_synthetic_split(s, SyntheticSplit::kTest), full.test);
  }
  auto bad = tiny_spec();
  bad.num_classes = 1;
  EXPECT_THROW(make_synthetic_split(bad, SyntheticSplit::kTest), ConfigError);
}

TEST(Dataset, GatherCopiesRowsAndLabels) {
  const DataSplit split = make_synthetic(tiny_spec());
  const std::vector<std::uint32_t> idx = {3, 7, 1};
  Tensor batch({3, 64});
  std::vector<int> labels;
  split.train.gather(idx, batch, labels);
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], split.train.labels()[3]);
  EXPECT_EQ(batch.at2(1, 0), split.train.features().at2(7, 0));
}

TEST(Dataset, HeadTakesPrefix) {
  const DataSplit split = make_synthetic(tiny_spec());
  const Dataset head = split.test.head(10);
  EXPECT_EQ(head.size(), 10u);
  EXPECT_EQ(head.labels()[4], split.test.labels()[4]);
}

class ShardSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardSweep, PartitionIsExactAndBalanced) {
  const std::size_t workers = GetParam();
  const std::size_t total = 1000;
  const auto shards = make_shards(total, workers);
  ASSERT_EQ(shards.size(), workers);
  std::size_t covered = 0;
  std::uint32_t cursor = 0;
  for (const auto& s : shards) {
    EXPECT_EQ(s.begin, cursor);  // contiguous, no gaps
    EXPECT_GE(s.size(), total / workers);
    EXPECT_LE(s.size(), total / workers + 1);
    covered += s.size();
    cursor = s.end;
  }
  EXPECT_EQ(covered, total);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ShardSweep,
                         ::testing::Values(1u, 2u, 3u, 7u, 8u, 16u, 33u));

TEST(Shards, RejectsInvalidArguments) {
  EXPECT_THROW(make_shards(10, 0), ConfigError);
  EXPECT_THROW(make_shards(3, 5), ConfigError);
}

TEST(MinibatchSampler, CoversShardExactlyOncePerEpoch) {
  const ShardSpec shard{100, 200};
  MinibatchSampler sampler(shard, 25, Rng(7));
  std::multiset<std::uint32_t> seen;
  std::vector<std::uint32_t> batch;
  for (int i = 0; i < 4; ++i) {  // one full epoch: 4 batches of 25
    sampler.next_batch(batch);
    ASSERT_EQ(batch.size(), 25u);
    seen.insert(batch.begin(), batch.end());
  }
  EXPECT_EQ(seen.size(), 100u);
  for (std::uint32_t i = 100; i < 200; ++i) EXPECT_EQ(seen.count(i), 1u);
  EXPECT_EQ(sampler.epochs_completed(), 0u);
  sampler.next_batch(batch);  // starts the second epoch
  EXPECT_EQ(sampler.epochs_completed(), 1u);
}

TEST(MinibatchSampler, BatchResizeMidStream) {
  MinibatchSampler sampler(ShardSpec{0, 64}, 8, Rng(8));
  std::vector<std::uint32_t> batch;
  sampler.next_batch(batch);
  EXPECT_EQ(batch.size(), 8u);
  sampler.set_batch_size(16);
  sampler.next_batch(batch);
  EXPECT_EQ(batch.size(), 16u);
  EXPECT_THROW(sampler.set_batch_size(0), ConfigError);
}

TEST(MinibatchSampler, DeterministicGivenRngStream) {
  MinibatchSampler a(ShardSpec{0, 50}, 10, Rng(9));
  MinibatchSampler b(ShardSpec{0, 50}, 10, Rng(9));
  std::vector<std::uint32_t> ba, bb;
  for (int i = 0; i < 10; ++i) {
    a.next_batch(ba);
    b.next_batch(bb);
    EXPECT_EQ(ba, bb);
  }
}

}  // namespace
}  // namespace ss
