#include "compress/dgc.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "compressor_harness.hpp"
#include "scoped_pool.hpp"
#include "tensor/rng.hpp"

namespace gradcomp::compress {
namespace {

using gradcomp::testing::MultiRankHarness;
using gradcomp::testing::ScopedPool;
using tensor::Rng;
using tensor::Tensor;

CompressorConfig dgc_config(double fraction, double momentum = 0.9) {
  CompressorConfig c;
  c.method = Method::kDgc;
  c.fraction = fraction;
  c.momentum = momentum;
  return c;
}

TEST(Dgc, RejectsBadParameters) {
  EXPECT_THROW(DgcCompressor(0.0), std::invalid_argument);
  EXPECT_THROW(DgcCompressor(1.5), std::invalid_argument);
  EXPECT_THROW(DgcCompressor(0.1, -0.1), std::invalid_argument);
  EXPECT_THROW(DgcCompressor(0.1, 1.0), std::invalid_argument);
}

TEST(Dgc, TraitsMatchTable1) {
  const auto c = make_compressor(dgc_config(0.01));
  EXPECT_EQ(c->name(), "dgc-1%");
  EXPECT_FALSE(c->traits().allreduce_compatible);  // Table 1: X
  EXPECT_TRUE(c->traits().layerwise);              // Table 1: check
  EXPECT_EQ(c->traits().family, "sparsification");
}

TEST(Dgc, WireBytesLikeTopK) {
  const auto c = make_compressor(dgc_config(0.01));
  EXPECT_EQ(c->compressed_bytes({1000}), 8U + 10U * 8U);
}

TEST(Dgc, FirstStepSelectsTopCoordinates) {
  // With zeroed state, velocity == gradient, so the first selection equals
  // plain Top-K of the gradient.
  const Tensor g({4}, {0.1F, -9.0F, 0.2F, 3.0F});
  auto c = make_compressor(dgc_config(0.5, 0.9));  // k = 2
  const Tensor back = c->roundtrip(0, g);
  EXPECT_FLOAT_EQ(back.at(1), -9.0F);
  EXPECT_FLOAT_EQ(back.at(3), 3.0F);
  EXPECT_FLOAT_EQ(back.at(0), 0.0F);
  EXPECT_FLOAT_EQ(back.at(2), 0.0F);
}

TEST(Dgc, AccumulationEventuallySendsSmallCoordinates) {
  // The defining DGC behaviour: a coordinate that never wins top-k still
  // accumulates (with momentum amplification) until it is transmitted.
  auto c = make_compressor(dgc_config(0.5, 0.5));  // k = 1 of 2
  const Tensor g({2}, {1.0F, 0.3F});
  bool small_sent = false;
  for (int s = 0; s < 20 && !small_sent; ++s) {
    const Tensor back = c->roundtrip(0, g);
    if (back.at(1) != 0.0F) small_sent = true;
  }
  EXPECT_TRUE(small_sent);
}

TEST(Dgc, TransmittedCoordinatesStopAccumulating) {
  // After a coordinate is sent, its accumulators are cleared; with momentum 0
  // and a one-hot gradient the same value is re-sent each step (not doubled).
  auto c = make_compressor(dgc_config(0.5, 0.0));
  const Tensor g({2}, {2.0F, 0.0F});
  const Tensor first = c->roundtrip(0, g);
  const Tensor second = c->roundtrip(0, g);
  EXPECT_FLOAT_EQ(first.at(0), 2.0F);
  EXPECT_FLOAT_EQ(second.at(0), 2.0F);
}

TEST(Dgc, MomentumAmplifiesAccumulatedCoordinates) {
  // A coordinate that keeps losing the top-k race accumulates with momentum
  // amplification: when it finally transmits, its magnitude exceeds the
  // plain sum of the per-step gradients (what error feedback alone would
  // accumulate).
  auto c = make_compressor(dgc_config(0.5, 0.5));  // k = 1 of 2
  const Tensor g({2}, {1.0F, 0.3F});
  int steps = 0;
  float sent = 0.0F;
  for (int s = 0; s < 20; ++s) {
    ++steps;
    const Tensor back = c->roundtrip(0, g);
    if (back.at(1) != 0.0F) {
      sent = back.at(1);
      break;
    }
  }
  ASSERT_GT(sent, 0.0F) << "small coordinate never transmitted";
  EXPECT_GT(sent, 0.3F * static_cast<float>(steps));
}

TEST(Dgc, AggregateAllRanksAgree) {
  Rng rng(1);
  std::vector<Tensor> grads;
  for (int r = 0; r < 4; ++r) grads.push_back(Tensor::randn({50}, rng));
  MultiRankHarness harness(dgc_config(0.1), 4);
  const auto results = harness.aggregate(0, grads);
  for (std::size_t r = 1; r < results.size(); ++r)
    EXPECT_DOUBLE_EQ(tensor::max_abs_diff(results[0], results[r]), 0.0);
}

TEST(Dgc, AggregateMatchesFillScatterScaleReference) {
  // DGC decodes through TopK's fp32 decode. On the first step the velocity
  // and the accumulation both equal the gradient, so each rank sends its
  // top 1% exactly; the mean must be memcmp-equal to fill -> rank-ordered
  // scatter-add -> x (1/p).
  for (const int threads : {1, 4}) {
    const ScopedPool pool(threads);
    for (const int p : {3, 4}) {
      Rng rng(53 + static_cast<std::uint64_t>(p));
      const auto grads = gradcomp::testing::overlapping_gradients(p, 20000, rng);
      std::vector<std::vector<std::byte>> payloads;
      for (const auto& g : grads)
        payloads.push_back(TopKCompressor::serialize(tensor::top_k_abs_exact(g.data(), 200)));
      const Tensor want = gradcomp::testing::sparse_reference_mean(payloads, false, {20000});
      MultiRankHarness harness(dgc_config(0.01), p);
      const auto got = harness.aggregate(0, grads);
      for (int r = 0; r < p; ++r)
        ASSERT_EQ(std::memcmp(got[static_cast<std::size_t>(r)].data().data(), want.data().data(),
                              want.byte_size()),
                  0)
            << "pool " << threads << " p=" << p << " rank " << r;
    }
  }
}

TEST(Dgc, FullFractionZeroMomentumEqualsMean) {
  Rng rng(2);
  std::vector<Tensor> grads;
  for (int r = 0; r < 3; ++r) grads.push_back(Tensor::randn({21}, rng));
  const Tensor expect = gradcomp::testing::exact_mean(grads);
  MultiRankHarness harness(dgc_config(1.0, 0.0), 3);
  const auto results = harness.aggregate(0, grads);
  EXPECT_LT(tensor::max_abs_diff(results[0], expect), 1e-5);
}

TEST(Dgc, IndependentStatePerLayer) {
  auto c = make_compressor(dgc_config(0.5));
  Rng rng(3);
  const Tensor g1 = Tensor::randn({10}, rng);
  const Tensor g2 = Tensor::randn({6}, rng);
  EXPECT_NO_THROW({
    c->roundtrip(0, g1);
    c->roundtrip(1, g2);
    c->roundtrip(0, g1);
  });
}

}  // namespace
}  // namespace gradcomp::compress
