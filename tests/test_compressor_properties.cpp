// Cross-cutting property tests over EVERY implemented compressor: the
// invariants any gradient compressor must satisfy regardless of algorithm.
#include <gtest/gtest.h>

#include <cmath>
#include <cctype>
#include <string>

#include "compressor_harness.hpp"
#include "tensor/linalg.hpp"
#include "tensor/rng.hpp"

namespace gradcomp::compress {
namespace {

using gradcomp::testing::MultiRankHarness;
using tensor::Rng;
using tensor::Tensor;

std::vector<CompressorConfig> all_configs() {
  std::vector<CompressorConfig> configs;
  const auto add = [&](Method m, auto mutate) {
    // Value-initialised, so its padding is zero: gtest prints the raw bytes
    // of the parameter into every ctest name.
    auto c = CompressorConfig();
    c.method = m;
    mutate(c);
    configs.push_back(c);
  };
  add(Method::kSyncSgd, [](auto&) {});
  add(Method::kFp16, [](auto&) {});
  add(Method::kSignSgd, [](auto&) {});
  add(Method::kSignSgd, [](auto& c) { c.error_feedback = true; });
  add(Method::kTopK, [](auto& c) { c.fraction = 0.1; });
  add(Method::kTopK, [](auto& c) {
    c.fraction = 0.25;
    c.error_feedback = true;
  });
  add(Method::kRandomK, [](auto& c) { c.fraction = 0.25; });
  add(Method::kPowerSgd, [](auto& c) { c.rank = 2; });
  add(Method::kPowerSgd, [](auto& c) {
    c.rank = 4;
    c.warm_start = false;
  });
  add(Method::kQsgd, [](auto& c) { c.levels = 64; });
  add(Method::kTernGrad, [](auto&) {});
  add(Method::kAtomo, [](auto& c) { c.rank = 3; });
  add(Method::kDgc, [](auto& c) { c.fraction = 0.25; });
  add(Method::kOneBit, [](auto&) {});
  add(Method::kNatural, [](auto&) {});
  return configs;
}

class AllCompressors : public ::testing::TestWithParam<CompressorConfig> {};

std::string config_name(const ::testing::TestParamInfo<CompressorConfig>& info) {
  auto c = make_compressor(info.param);
  std::string name = c->name();
  for (auto& ch : name)
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  return name + "_" + std::to_string(info.index);
}

TEST_P(AllCompressors, RoundtripPreservesShape) {
  Rng rng(1);
  const Tensor g = Tensor::randn({12, 8}, rng);
  auto c = make_compressor(GetParam());
  const Tensor back = c->roundtrip(0, g);
  EXPECT_TRUE(back.same_shape(g));
}

TEST_P(AllCompressors, RoundtripProducesFiniteValues) {
  Rng rng(2);
  const Tensor g = Tensor::randn({16, 4}, rng);
  auto c = make_compressor(GetParam());
  const Tensor back = c->roundtrip(0, g);
  for (float v : back.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST_P(AllCompressors, CompressedBytesPositiveAndAtMostRaw) {
  auto c = make_compressor(GetParam());
  const tensor::Shape shape = {64, 32};
  const std::size_t bytes = c->compressed_bytes(shape);
  EXPECT_GT(bytes, 0U);
  // No method inflates the payload beyond the raw gradient (+small headers).
  EXPECT_LE(bytes, 64U * 32U * 4U + 16U);
}

TEST_P(AllCompressors, SingleRankAggregatePreservesShapeAndFiniteness) {
  Rng rng(3);
  std::vector<Tensor> grads;
  grads.push_back(Tensor::randn({10, 6}, rng));
  MultiRankHarness harness(GetParam(), 1);
  const auto results = harness.aggregate(0, grads);
  EXPECT_TRUE(results[0].same_shape(grads[0]));
  for (float v : results[0].data()) EXPECT_TRUE(std::isfinite(v));
}

TEST_P(AllCompressors, AllRanksProduceIdenticalAggregates) {
  // THE synchronization invariant of data-parallel training: every rank must
  // apply the same update or replicas diverge.
  Rng rng(4);
  std::vector<Tensor> grads;
  for (int r = 0; r < 4; ++r) grads.push_back(Tensor::randn({8, 6}, rng));
  MultiRankHarness harness(GetParam(), 4);
  const auto results = harness.aggregate(0, grads);
  for (std::size_t r = 1; r < results.size(); ++r)
    EXPECT_LT(tensor::max_abs_diff(results[0], results[r]), 1e-5);
}

TEST_P(AllCompressors, IdenticalInputsAggregateNearInput) {
  // When every rank holds the SAME gradient, the mean is that gradient; all
  // methods except pure sign quantization should return something close (in
  // direction at least). We check cosine similarity > 0.
  Rng rng(5);
  const Tensor g = Tensor::randn({10, 10}, rng);
  std::vector<Tensor> grads(3, g);
  MultiRankHarness harness(GetParam(), 3);
  const auto results = harness.aggregate(0, grads);
  const double cosine =
      tensor::dot(results[0], g) / (results[0].l2_norm() * g.l2_norm() + 1e-30);
  EXPECT_GT(cosine, 0.1);
}

TEST_P(AllCompressors, StatsBytesMatchCompressedBytesFor2D) {
  Rng rng(6);
  std::vector<Tensor> grads;
  for (int r = 0; r < 2; ++r) grads.push_back(Tensor::randn({16, 8}, rng));
  MultiRankHarness harness(GetParam(), 2);
  std::vector<AggregateStats> stats;
  harness.aggregate(0, grads, &stats);
  auto c = make_compressor(GetParam());
  EXPECT_EQ(stats[0].bytes_sent, c->compressed_bytes({16, 8}));
}

TEST_P(AllCompressors, RepeatedAggregationRemainsStable) {
  // Ten consecutive rounds: no state corruption, divergence, or NaN.
  Rng rng(7);
  MultiRankHarness harness(GetParam(), 3);
  for (int round = 0; round < 10; ++round) {
    std::vector<Tensor> grads;
    for (int r = 0; r < 3; ++r) grads.push_back(Tensor::randn({8, 4}, rng));
    const auto results = harness.aggregate(0, grads);
    for (float v : results[0].data()) ASSERT_TRUE(std::isfinite(v)) << round;
    for (std::size_t r = 1; r < results.size(); ++r)
      ASSERT_LT(tensor::max_abs_diff(results[0], results[r]), 1e-4) << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, AllCompressors, ::testing::ValuesIn(all_configs()),
                         config_name);


}  // namespace
}  // namespace gradcomp::compress
