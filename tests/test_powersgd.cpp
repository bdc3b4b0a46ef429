#include "compress/powersgd.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "compressor_harness.hpp"
#include "tensor/linalg.hpp"
#include "tensor/rng.hpp"
#include "tensor/serial.hpp"

namespace gradcomp::compress {
namespace {

using gradcomp::testing::MultiRankHarness;
using gradcomp::testing::exact_mean;
using tensor::Rng;
using tensor::Tensor;

CompressorConfig ps_config(int rank, bool warm_start = true) {
  CompressorConfig c;
  c.method = Method::kPowerSgd;
  c.rank = rank;
  c.warm_start = warm_start;
  return c;
}

TEST(PowerSgd, RejectsBadRank) {
  EXPECT_THROW(PowerSgdCompressor(0), std::invalid_argument);
  EXPECT_THROW(PowerSgdCompressor(-4), std::invalid_argument);
}

TEST(PowerSgd, RestoreSharedStateRejectsCorruptRowCount) {
  // One layer whose Q is 4 x 2, so the residual is m x 4.
  const auto blob = [](std::int64_t m) {
    tensor::ByteWriter writer;
    writer.u64(1);
    writer.i64(0);
    writer.i64(m);
    writer.tensor(Tensor({4, 2}));
    return writer.take();
  };
  PowerSgdCompressor c(2);
  c.restore_shared_state(blob(3));  // well formed
  EXPECT_THROW(c.restore_shared_state(blob(-1)), std::runtime_error);
  EXPECT_THROW(c.restore_shared_state(blob(0)), std::runtime_error);
  // m * 4 overflows int64.
  EXPECT_THROW(c.restore_shared_state(blob(std::int64_t{1} << 62)), std::runtime_error);
}

TEST(PowerSgd, TraitsMatchTable1) {
  const auto c = make_compressor(ps_config(4));
  EXPECT_EQ(c->name(), "powersgd-r4");
  EXPECT_TRUE(c->traits().allreduce_compatible);  // Table 1: check
  EXPECT_TRUE(c->traits().layerwise);
  EXPECT_EQ(c->traits().family, "low-rank");
}

TEST(PowerSgd, CompressedBytesIsFactorSizes) {
  const auto c = make_compressor(ps_config(4));
  // 64x32 matrix at rank 4: (64+32)*4 floats.
  EXPECT_EQ(c->compressed_bytes({64, 32}), (64U + 32U) * 4U * 4U);
  // 1-D layers are uncompressed.
  EXPECT_EQ(c->compressed_bytes({100}), 400U);
  // Rank clamps to min dimension.
  EXPECT_EQ(c->compressed_bytes({2, 100}), (2U + 100U) * 2U * 4U);
}

TEST(PowerSgd, CompressionRatioOnResNetShapeIsLarge) {
  // A typical conv layer 512 x 4608 at rank 4: ~450x compression.
  const auto c = make_compressor(ps_config(4));
  const double ratio = 512.0 * 4608.0 * 4.0 /
                       static_cast<double>(c->compressed_bytes({512, 512, 3, 3}));
  EXPECT_GT(ratio, 100.0);
}

TEST(PowerSgd, ExactOnRankOneMatrix) {
  // A rank-1 matrix is reconstructed (nearly) exactly by rank-1 PowerSGD.
  Rng rng(1);
  const Tensor u = Tensor::randn({16, 1}, rng);
  const Tensor v = Tensor::randn({12, 1}, rng);
  const Tensor g = tensor::matmul(u, v, tensor::Transpose::kNo, tensor::Transpose::kYes);
  auto c = make_compressor(ps_config(1));
  const Tensor back = c->roundtrip(0, g);
  EXPECT_LT(tensor::relative_l2_error(back, g), 1e-3);
}

TEST(PowerSgd, ExactWhenRankCoversMatrix) {
  Rng rng(2);
  const Tensor g = Tensor::randn({6, 5}, rng);
  auto c = make_compressor(ps_config(16));  // clamps to 5 >= rank(g)
  // A couple of warm-started iterations converge to near-exact.
  Tensor back = c->roundtrip(0, g);
  for (int i = 0; i < 5; ++i) back = c->roundtrip(0, g);
  EXPECT_LT(tensor::relative_l2_error(back, g), 1e-3);
}

TEST(PowerSgd, WarmStartReusesIterationState) {
  // Warm start feeds the previous Q into the next power iteration, so warm
  // and cold instances produce IDENTICAL first-round output but diverge
  // afterwards (the cold instance keeps its original random Q).
  Rng rng(3);
  const Tensor g = Tensor::randn({32, 24}, rng);
  auto warm = make_compressor(ps_config(4, true));
  auto cold = make_compressor(ps_config(4, false));
  const Tensor w1 = warm->roundtrip(0, g);
  const Tensor c1 = cold->roundtrip(0, g);
  EXPECT_LT(tensor::max_abs_diff(w1, c1), 1e-6);
  // Vary the input so the error-feedback states stay aligned but the
  // iteration basis differs.
  Rng rng2(4);
  const Tensor g2 = Tensor::randn({32, 24}, rng2);
  const Tensor w2 = warm->roundtrip(0, g2);
  const Tensor c2 = cold->roundtrip(0, g2);
  EXPECT_GT(tensor::max_abs_diff(w2, c2), 1e-6);
}

TEST(PowerSgd, WarmStartConvergesToTopSubspaceOnLowRankInput) {
  // On an exactly rank-2 gradient, warm-started rank-2 PowerSGD converges to
  // (near-)exact reconstruction within a few repeats.
  Rng rng(30);
  const Tensor u = Tensor::randn({20, 2}, rng);
  const Tensor v = Tensor::randn({16, 2}, rng);
  const Tensor g = tensor::matmul(u, v, tensor::Transpose::kNo, tensor::Transpose::kYes);
  auto warm = make_compressor(ps_config(2, true));
  double err = 1.0;
  for (int i = 0; i < 6; ++i) err = tensor::relative_l2_error(warm->roundtrip(0, g), g);
  EXPECT_LT(err, 1e-3);
}

TEST(PowerSgd, OneDimensionalLayerPassesThrough) {
  Rng rng(4);
  const Tensor g = Tensor::randn({50}, rng);
  auto c = make_compressor(ps_config(4));
  EXPECT_DOUBLE_EQ(tensor::max_abs_diff(c->roundtrip(0, g), g), 0.0);
}

TEST(PowerSgd, AggregateAllRanksAgree) {
  Rng rng(5);
  std::vector<Tensor> grads;
  for (int r = 0; r < 4; ++r) grads.push_back(Tensor::randn({10, 8}, rng));
  MultiRankHarness harness(ps_config(2), 4);
  const auto results = harness.aggregate(0, grads);
  for (std::size_t r = 1; r < results.size(); ++r)
    EXPECT_LT(tensor::max_abs_diff(results[0], results[r]), 1e-5);
}

TEST(PowerSgd, AggregateApproximatesMeanAfterWarmup) {
  // With full rank and a few warm-started rounds on the SAME mean gradient,
  // the distributed reconstruction approaches the exact mean.
  Rng rng(6);
  std::vector<Tensor> base;
  for (int r = 0; r < 2; ++r) base.push_back(Tensor::randn({8, 6}, rng));
  const Tensor expect = exact_mean(base);
  MultiRankHarness harness(ps_config(6), 2);
  std::vector<Tensor> results;
  for (int round = 0; round < 6; ++round) results = harness.aggregate(0, base);
  EXPECT_LT(tensor::relative_l2_error(results[0], expect), 0.05);
}

TEST(PowerSgd, ErrorFeedbackCompensatesOverTime) {
  // Rank-1 compression of a rank-2 gradient loses energy each step, but the
  // EF residual re-injects it: the running sum of reconstructions tracks
  // steps * gradient.
  Rng rng(7);
  Tensor g = Tensor::randn({12, 10}, rng);
  auto c = make_compressor(ps_config(1));
  Tensor sum({12, 10});
  const int steps = 60;
  for (int s = 0; s < steps; ++s) sum.add_(c->roundtrip(0, g));
  sum.scale(1.0F / static_cast<float>(steps));
  EXPECT_LT(tensor::relative_l2_error(sum, g), 0.15);
}

TEST(PowerSgd, AggregateReportsFactorBytes) {
  Rng rng(8);
  std::vector<Tensor> grads;
  for (int r = 0; r < 2; ++r) grads.push_back(Tensor::randn({16, 8}, rng));
  MultiRankHarness harness(ps_config(2), 2);
  std::vector<AggregateStats> stats;
  harness.aggregate(0, grads, &stats);
  EXPECT_EQ(stats[0].bytes_sent, (16U + 8U) * 2U * 4U);
  EXPECT_GT(stats[0].encode_seconds, 0.0);
}

TEST(PowerSgd, DifferentLayersKeepIndependentState) {
  Rng rng(9);
  const Tensor g1 = Tensor::randn({8, 8}, rng);
  const Tensor g2 = Tensor::randn({6, 4}, rng);
  auto c = make_compressor(ps_config(2));
  // Interleaved layers must not corrupt each other's Q shapes.
  EXPECT_NO_THROW({
    c->roundtrip(0, g1);
    c->roundtrip(1, g2);
    c->roundtrip(0, g1);
    c->roundtrip(1, g2);
  });
}

// Property sweep: higher rank gives monotonically (weakly) better
// reconstruction of a fixed random matrix on the first shot.
class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, ReconstructionErrorShrinksWithRank) {
  const int rank = GetParam();
  Rng rng(10);
  const Tensor g = Tensor::randn({24, 20}, rng);
  auto c = make_compressor(ps_config(rank));
  const double err = tensor::relative_l2_error(c->roundtrip(0, g), g);
  auto c_next = make_compressor(ps_config(rank + 4));
  const double err_next = tensor::relative_l2_error(c_next->roundtrip(0, g), g);
  EXPECT_LE(err_next, err + 0.05);
  EXPECT_LT(err, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankSweep, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace gradcomp::compress
