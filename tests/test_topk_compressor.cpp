#include "compress/topk_compressor.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "compress/state_io.hpp"
#include "compressor_harness.hpp"
#include "tensor/rng.hpp"

namespace gradcomp::compress {
namespace {

using gradcomp::testing::MultiRankHarness;
using gradcomp::testing::exact_mean;
using tensor::Rng;
using tensor::Tensor;

CompressorConfig topk_config(double fraction, bool ef = false) {
  CompressorConfig c;
  c.method = Method::kTopK;
  c.fraction = fraction;
  c.error_feedback = ef;
  return c;
}

TEST(TopKCompressor, RejectsBadFraction) {
  EXPECT_THROW(TopKCompressor(0.0), std::invalid_argument);
  EXPECT_THROW(TopKCompressor(-0.5), std::invalid_argument);
  EXPECT_THROW(TopKCompressor(1.5), std::invalid_argument);
  EXPECT_NO_THROW(TopKCompressor(1.0));
}

TEST(TopKCompressor, TraitsMatchTable1) {
  const auto c = make_compressor(topk_config(0.01));
  EXPECT_FALSE(c->traits().allreduce_compatible);
  EXPECT_TRUE(c->traits().layerwise);
  EXPECT_EQ(c->traits().family, "sparsification");
}

TEST(TopKCompressor, NameIncludesPercent) {
  EXPECT_EQ(make_compressor(topk_config(0.01))->name(), "topk-1%");
  EXPECT_EQ(make_compressor(topk_config(0.2))->name(), "topk-20%");
  EXPECT_EQ(make_compressor(topk_config(0.1, true))->name(), "ef-topk-10%");
}

TEST(TopKCompressor, KForRoundsUpAndClamps) {
  const TopKCompressor c(0.01);
  EXPECT_EQ(c.k_for(1000), 10);
  EXPECT_EQ(c.k_for(50), 1);   // ceil(0.5) with min 1
  EXPECT_EQ(c.k_for(0), 0);
  const TopKCompressor full(1.0);
  EXPECT_EQ(full.k_for(17), 17);
}

TEST(TopKCompressor, SerializeDeserializeRoundTrip) {
  tensor::TopKResult sparse;
  sparse.indices = {2, 5, 9};
  sparse.values = {1.5F, -2.0F, 0.25F};
  const auto bytes = TopKCompressor::serialize(sparse);
  const auto back = TopKCompressor::deserialize(bytes, 10);
  EXPECT_EQ(back.indices, sparse.indices);
  EXPECT_EQ(back.values, sparse.values);
}

TEST(TopKCompressor, DeserializeRejectsCorruptPayload) {
  EXPECT_THROW(TopKCompressor::deserialize(std::vector<std::byte>(3), 2), std::invalid_argument);
  tensor::TopKResult sparse;
  sparse.indices = {1};
  sparse.values = {1.0F};
  auto bytes = TopKCompressor::serialize(sparse);
  bytes.pop_back();
  EXPECT_THROW(TopKCompressor::deserialize(bytes, 2), std::invalid_argument);
}

TEST(TopKCompressor, RoundtripKeepsOnlyTopFraction) {
  Rng rng(1);
  const Tensor g = Tensor::randn({100}, rng);
  auto c = make_compressor(topk_config(0.1));
  const Tensor back = c->roundtrip(0, g);
  int nonzero = 0;
  for (std::int64_t i = 0; i < back.numel(); ++i) {
    if (back.at(i) != 0.0F) {
      ++nonzero;
      EXPECT_EQ(back.at(i), g.at(i));  // kept values unchanged
    }
  }
  EXPECT_EQ(nonzero, 10);
}

TEST(TopKCompressor, FullFractionIsLossless) {
  Rng rng(2);
  const Tensor g = Tensor::randn({64}, rng);
  auto c = make_compressor(topk_config(1.0));
  EXPECT_DOUBLE_EQ(tensor::max_abs_diff(c->roundtrip(0, g), g), 0.0);
}

TEST(TopKCompressor, AggregateAveragesUnionOfSupports) {
  // Rank 0 has energy only in coordinate 0; rank 1 only in coordinate 3.
  std::vector<Tensor> grads = {Tensor({4}, {8.0F, 0.1F, 0.0F, 0.0F}),
                               Tensor({4}, {0.0F, 0.0F, 0.1F, 6.0F})};
  MultiRankHarness harness(topk_config(0.25), 2);  // k = 1 per rank
  const auto results = harness.aggregate(0, grads);
  EXPECT_FLOAT_EQ(results[0].at(0), 4.0F);  // 8/2
  EXPECT_FLOAT_EQ(results[0].at(3), 3.0F);  // 6/2
  EXPECT_FLOAT_EQ(results[0].at(1), 0.0F);
  EXPECT_FLOAT_EQ(results[0].at(2), 0.0F);
}

TEST(TopKCompressor, OverlappingSupportsSum) {
  std::vector<Tensor> grads = {Tensor({2}, {4.0F, 0.0F}), Tensor({2}, {2.0F, 0.0F})};
  MultiRankHarness harness(topk_config(0.5), 2);  // k = 1
  const auto results = harness.aggregate(0, grads);
  EXPECT_FLOAT_EQ(results[0].at(0), 3.0F);
}

TEST(TopKCompressor, FullFractionAggregateEqualsMean) {
  Rng rng(3);
  std::vector<Tensor> grads;
  for (int r = 0; r < 4; ++r) grads.push_back(Tensor::randn({33}, rng));
  const Tensor expect = exact_mean(grads);
  MultiRankHarness harness(topk_config(1.0), 4);
  const auto results = harness.aggregate(0, grads);
  for (const auto& r : results) EXPECT_LT(tensor::max_abs_diff(r, expect), 1e-5);
}

TEST(TopKCompressor, StatsBytesMatchKFormula) {
  Rng rng(4);
  std::vector<Tensor> grads;
  for (int r = 0; r < 2; ++r) grads.push_back(Tensor::randn({1000}, rng));
  MultiRankHarness harness(topk_config(0.01), 2);
  std::vector<AggregateStats> stats;
  harness.aggregate(0, grads, &stats);
  // 8-byte header + 10 * (4 + 4).
  EXPECT_EQ(stats[0].bytes_sent, 8U + 10U * 8U);
}

TEST(EfTopK, ResidualEventuallyTransmitsDroppedCoordinates) {
  // With EF, a coordinate too small to ever win top-k still gets through via
  // the accumulating residual.
  auto c = make_compressor(topk_config(0.5, true));  // k=1 of 2
  const Tensor g({2}, {1.0F, 0.4F});
  Tensor sum({2});
  const int steps = 50;
  for (int s = 0; s < steps; ++s) sum.add_(c->roundtrip(3, g));
  sum.scale(1.0F / static_cast<float>(steps));
  EXPECT_NEAR(sum.at(0), 1.0F, 0.1F);
  EXPECT_NEAR(sum.at(1), 0.4F, 0.1F);
}

TEST(EfTopK, InPlaceResidualMatchesSubtractiveReference) {
  // The residual is updated in place; it must keep the bits of the
  // subtractive definition, residual = (grad + residual) - decode(sent),
  // in both value formats, including a -0.0 gradient on the first step.
  for (const bool fp16 : {false, true}) {
    TopKCompressor c(0.1, /*error_feedback=*/true, fp16);
    Rng rng(17);
    Tensor residual;
    for (int step = 0; step < 4; ++step) {
      Tensor g = Tensor::randn({97}, rng);
      if (step == 0) g.at(5) = -0.0F;
      const Tensor work = step == 0 ? g : tensor::add(g, residual);
      const auto sparse = tensor::top_k_abs(work.data(), c.k_for(97));
      const auto sent = fp16 ? TopKCompressor::deserialize_half(
                                   TopKCompressor::serialize_half(sparse), 97)
                             : sparse;
      Tensor kept({97});
      tensor::scatter(sent, kept.data());
      residual = tensor::sub(work, kept);

      const Tensor back = c.roundtrip(3, g);
      ASSERT_EQ(std::memcmp(back.data().data(), kept.data().data(), back.byte_size()), 0)
          << "fp16=" << fp16 << " step " << step;
      tensor::ByteWriter want;
      detail::write_tensor_map(want, {{3, residual}});
      EXPECT_EQ(c.serialize_state(), want.take()) << "fp16=" << fp16 << " step " << step;
    }
  }
}

TEST(EfTopK, WithoutEfSmallCoordinateNeverSent) {
  auto c = make_compressor(topk_config(0.5, false));
  const Tensor g({2}, {1.0F, 0.4F});
  for (int s = 0; s < 10; ++s) {
    const Tensor back = c->roundtrip(3, g);
    EXPECT_EQ(back.at(1), 0.0F);
  }
}

// --- FP16-value composition (sparsification + quantization) -----------------

CompressorConfig topk_fp16_config(double fraction) {
  CompressorConfig c;
  c.method = Method::kTopK;
  c.fraction = fraction;
  c.fp16_values = true;
  return c;
}

TEST(TopKFp16, NameAndWireBytes) {
  const auto c = make_compressor(topk_fp16_config(0.1));
  EXPECT_EQ(c->name(), "topk-10%-fp16");
  // 6 bytes per kept coordinate instead of 8.
  EXPECT_EQ(c->compressed_bytes({1000}), 8U + 100U * 6U);
}

TEST(TopKFp16, HalfSerializationRoundTrip) {
  tensor::TopKResult sparse;
  sparse.indices = {1, 4, 7};
  sparse.values = {0.5F, -2.0F, 1024.0F};  // exactly representable halves
  const auto back = TopKCompressor::deserialize_half(TopKCompressor::serialize_half(sparse), 8);
  EXPECT_EQ(back.indices, sparse.indices);
  EXPECT_EQ(back.values, sparse.values);
}

TEST(TopKFp16, ValuesQuantizedToHalfPrecision) {
  Rng rng(11);
  const Tensor g = Tensor::randn({64}, rng);
  auto c = make_compressor(topk_fp16_config(0.25));
  const Tensor back = c->roundtrip(0, g);
  int nonzero = 0;
  for (std::int64_t i = 0; i < 64; ++i) {
    if (back.at(i) == 0.0F) continue;
    ++nonzero;
    // Each kept value is within half-precision rounding of the original.
    EXPECT_NEAR(back.at(i), g.at(i), std::abs(g.at(i)) * 1e-3F + 1e-6F);
    EXPECT_NE(back.at(i), 0.0F);
  }
  EXPECT_EQ(nonzero, 16);
}

TEST(TopKFp16, AggregateStatsReportSmallerBytes) {
  Rng rng(12);
  std::vector<Tensor> grads;
  for (int r = 0; r < 2; ++r) grads.push_back(Tensor::randn({100}, rng));
  MultiRankHarness full(topk_config(0.1), 2);
  MultiRankHarness half(topk_fp16_config(0.1), 2);
  std::vector<AggregateStats> full_stats;
  std::vector<AggregateStats> half_stats;
  full.aggregate(0, grads, &full_stats);
  half.aggregate(0, grads, &half_stats);
  EXPECT_LT(half_stats[0].bytes_sent, full_stats[0].bytes_sent);
}

TEST(TopKFp16, ErrorFeedbackAbsorbsQuantizationError) {
  CompressorConfig config = topk_fp16_config(0.5);
  config.error_feedback = true;
  auto c = make_compressor(config);
  const Tensor g({2}, {1.0F, 0.4F});
  Tensor sum({2});
  const int steps = 50;
  for (int s = 0; s < steps; ++s) sum.add_(c->roundtrip(3, g));
  sum.scale(1.0F / static_cast<float>(steps));
  EXPECT_NEAR(sum.at(0), 1.0F, 0.1F);
  EXPECT_NEAR(sum.at(1), 0.4F, 0.1F);
}

// Property sweep over fractions: the kept energy is maximal and the result
// support size matches k.
class FractionSweep : public ::testing::TestWithParam<double> {};

TEST_P(FractionSweep, SupportSizeAndEnergy) {
  const double fraction = GetParam();
  Rng rng(5);
  const Tensor g = Tensor::randn({200}, rng);
  auto c = make_compressor(topk_config(fraction));
  const Tensor back = c->roundtrip(0, g);
  const auto k = TopKCompressor(fraction).k_for(200);
  int nonzero = 0;
  for (std::int64_t i = 0; i < 200; ++i)
    if (back.at(i) != 0.0F) ++nonzero;
  EXPECT_LE(nonzero, k);
  // Compression error decreases as fraction grows.
  EXPECT_LT(tensor::relative_l2_error(back, g), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Fractions, FractionSweep,
                         ::testing::Values(0.01, 0.05, 0.1, 0.2, 0.5, 1.0));

}  // namespace
}  // namespace gradcomp::compress
