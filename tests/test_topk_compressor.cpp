#include "compress/topk_compressor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "compress/state_io.hpp"
#include "compressor_harness.hpp"
#include "counting_new.hpp"
#include "scoped_pool.hpp"
#include "tensor/rng.hpp"

namespace gradcomp::compress {
namespace {

using gradcomp::testing::g_allocations;
using gradcomp::testing::MultiRankHarness;
using gradcomp::testing::ScopedPool;
using gradcomp::testing::exact_mean;
using gradcomp::testing::overlapping_gradients;
using gradcomp::testing::sparse_reference_mean;
using tensor::Rng;
using tensor::Tensor;

// This rank's stored residual for `layer`.
Tensor stored_residual(const TopKCompressor& c, LayerId layer) {
  const auto bytes = c.serialize_state();
  tensor::ByteReader reader(bytes, "test");
  return detail::read_tensor_map(reader).at(layer);
}

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

TEST(TopKCompressor, AggregateMatchesFillScatterScaleReference) {
  // The decode scales only the touched coordinates; the result must still
  // be memcmp-equal to fill -> rank-ordered scatter-add -> x (1/p), with
  // overlapping supports and one coordinate sent by every rank.
  for (const int threads : {1, 4}) {
    const ScopedPool pool(threads);
    for (const int p : {3, 4}) {
      for (const bool fp16 : {false, true}) {
        Rng rng(43 + static_cast<std::uint64_t>(p));
        const auto grads = overlapping_gradients(p, 20000, rng);
        CompressorConfig config = topk_config(0.01, /*ef=*/true);
        config.fp16_values = fp16;
        std::vector<std::vector<std::byte>> payloads;
        for (const auto& g : grads) {
          const auto sparse = tensor::top_k_abs_exact(g.data(), 200);
          payloads.push_back(fp16 ? TopKCompressor::serialize_half(sparse)
                                  : TopKCompressor::serialize(sparse));
        }
        const Tensor want = sparse_reference_mean(payloads, fp16, {20000});
        MultiRankHarness harness(config, p);
        const auto got = harness.aggregate(0, grads);
        for (int r = 0; r < p; ++r)
          ASSERT_EQ(std::memcmp(got[static_cast<std::size_t>(r)].data().data(),
                                want.data().data(), want.byte_size()),
                    0)
              << "pool " << threads << " p=" << p << " fp16=" << fp16 << " rank " << r;
      }
    }
  }
}

TEST(TopKCompressor, DecodeMeanMatchesReferenceOnHandBuiltPayloads) {
  // A repeated index adds twice, an empty payload adds nothing, and stale
  // contents of the output are overwritten.
  tensor::TopKResult repeated;
  repeated.indices = {3, 3, 9};
  repeated.values = {1.5F, 2.25F, -4.0F};
  tensor::TopKResult other;
  other.indices = {0, 3};
  other.values = {7.0F, 0.1F};
  for (const bool fp16 : {false, true}) {
    const auto encode = fp16 ? TopKCompressor::serialize_half : TopKCompressor::serialize;
    const std::vector<std::vector<std::byte>> payloads = {
        encode(repeated), encode(other), encode(tensor::TopKResult{})};
    const Tensor want = sparse_reference_mean(payloads, fp16, {10});
    std::vector<float> got(10, 42.0F);
    std::vector<std::uint64_t> touched;
    TopKCompressor::decode_mean(payloads, fp16, got, touched);
    EXPECT_EQ(std::memcmp(got.data(), want.data().data(), want.byte_size()), 0) << fp16;
    EXPECT_NEAR(got[3], (1.5F + 2.25F + 0.1F) / 3.0F, 1e-3F);

    // Validation is the deserializers': an index outside [0, n) or a body
    // that does not match k is rejected.
    std::vector<float> short_out(9);
    EXPECT_THROW(TopKCompressor::decode_mean(payloads, fp16, short_out, touched),
                 std::invalid_argument);
    auto truncated = payloads;
    truncated[1].pop_back();
    EXPECT_THROW(TopKCompressor::decode_mean(truncated, fp16, got, touched),
                 std::invalid_argument);
  }
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

// The residual is updated in place; it must keep the bits of the
// subtractive definition, residual = (grad + residual) - decode(sent), with
// the exact selection as the reference, including a -0.0 gradient on the
// first step.
void expect_subtractive_residual(double fraction, bool fp16,
                                 const std::function<Tensor(Rng&)>& make_grad) {
  TopKCompressor c(fraction, /*error_feedback=*/true, fp16);
  Rng rng(17);
  Tensor residual;
  for (int step = 0; step < 4; ++step) {
    Tensor g = make_grad(rng);
    const std::int64_t n = g.numel();
    if (step == 0) g.at(5) = -0.0F;
    const Tensor work = step == 0 ? g : tensor::add(g, residual);
    const auto sparse = tensor::top_k_abs_exact(work.data(), c.k_for(n));
    const auto sent =
        fp16 ? TopKCompressor::deserialize_half(TopKCompressor::serialize_half(sparse), n)
             : sparse;
    Tensor kept(g.shape());
    tensor::scatter(sent, kept.data());
    residual = tensor::sub(work, kept);

    const Tensor back = c.roundtrip(3, g);
    ASSERT_EQ(std::memcmp(back.data().data(), kept.data().data(), back.byte_size()), 0)
        << "fp16=" << fp16 << " step " << step;
    tensor::ByteWriter want;
    detail::write_tensor_map(want, {{3, residual}});
    EXPECT_TRUE(c.serialize_state() == want.take()) << "fp16=" << fp16 << " step " << step;
  }
}

TEST(EfTopK, InPlaceResidualMatchesSubtractiveReference) {
  for (const bool fp16 : {false, true})
    expect_subtractive_residual(0.1, fp16, [](Rng& rng) { return Tensor::randn({97}, rng); });
}

TEST(EfTopK, FusedResidualMatchesSubtractiveReferenceOnColumnMatrix) {
  // The MLP's 1024 x 1024 weight gradient with columns 0 and 512 scaled, on
  // the fast path, where the gradient is added into the residual inside the
  // selection's filter pass.
  for (const int threads : {1, 4}) {
    const ScopedPool pool(threads);
    for (const bool fp16 : {false, true})
      expect_subtractive_residual(0.01, fp16, [](Rng& rng) {
        Tensor g = Tensor::randn({1024, 1024}, rng);
        for (std::int64_t row = 0; row < 1024; ++row) {
          g.at(row * 1024) *= 4.0F;
          g.at(row * 1024 + 512) *= 4.0F;
        }
        return g;
      });
  }
}

TEST(EfTopK, SentNonFiniteValueLeavesZeroResidual) {
  // NaN and ±Inf rank first, so they are sent at once and reach every
  // receiver. The residual keeps +0 for them in both value formats, as for
  // a finite value whose fp16 rounding overflows, so a finite next step
  // stays finite.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const bool fp16 : {false, true}) {
    TopKCompressor c(0.01, /*error_feedback=*/true, fp16);
    Rng rng(41);
    Tensor g = Tensor::randn({20000}, rng);
    g.at(5) = nan;
    g.at(6) = inf;
    g.at(7) = -inf;
    g.at(8) = 1e6F;  // beyond fp16's range
    const Tensor back = c.roundtrip(3, g);
    EXPECT_TRUE(std::isnan(back.at(5))) << "fp16=" << fp16;
    EXPECT_EQ(back.at(6), inf) << "fp16=" << fp16;
    EXPECT_EQ(back.at(7), -inf) << "fp16=" << fp16;
    EXPECT_EQ(back.at(8), fp16 ? inf : 1e6F) << "fp16=" << fp16;
    const Tensor residual = stored_residual(c, 3);
    for (const std::int64_t i : {5, 6, 7, 8})
      EXPECT_EQ(std::bit_cast<std::uint32_t>(residual.at(i)), 0U) << "fp16=" << fp16 << " i=" << i;

    const Tensor next = c.roundtrip(3, Tensor::randn({20000}, rng));
    for (const float v : next.data()) ASSERT_TRUE(std::isfinite(v)) << "fp16=" << fp16;
    const Tensor next_residual = stored_residual(c, 3);
    for (const float v : next_residual.data()) ASSERT_TRUE(std::isfinite(v)) << "fp16=" << fp16;
  }
}

TEST(EfTopK, WarmSelectionAndDecodeDoNotAllocate) {
  // The encode's selection and the decode reuse their scratch: in steady
  // state the payloads are the only allocations of a step.
  const ScopedPool pool(1);
  Rng rng(47);
  const Tensor g = Tensor::randn({200000}, rng);
  const Tensor start = Tensor::randn({200000}, rng);
  Tensor residual = start;
  tensor::Workspace ws;
  tensor::TopKResult sparse;
  tensor::top_k_abs_accumulate_into(g.data(), residual.data(), 2000, sparse, &ws);
  const std::vector<std::vector<std::byte>> payloads(3, TopKCompressor::serialize(sparse));
  std::vector<float> out(200000);
  std::vector<std::uint64_t> touched;
  TopKCompressor::decode_mean(payloads, false, out, touched);

  std::copy(start.data().begin(), start.data().end(), residual.data().begin());
  const std::int64_t before = g_allocations.load();
  tensor::top_k_abs_accumulate_into(g.data(), residual.data(), 2000, sparse, &ws);
  TopKCompressor::decode_mean(payloads, false, out, touched);
  EXPECT_EQ(g_allocations.load() - before, 0);
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
