#include "tensor/topk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "scoped_pool.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace gradcomp::tensor {
namespace {

using gradcomp::testing::ScopedPool;

// Same indices and the same value bits (NaN != NaN defeats operator==).
void expect_same(const TopKResult& got, const TopKResult& want, const std::string& what) {
  ASSERT_EQ(got.indices, want.indices) << what;
  ASSERT_EQ(got.values.size(), want.values.size()) << what;
  for (std::size_t j = 0; j < got.values.size(); ++j)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.values[j]),
              std::bit_cast<std::uint32_t>(want.values[j]))
        << what << " at " << j;
}

// The MLP's 1024 x 1024 weight gradient, row-major, with columns 0 and 512
// scaled: those are the only columns a stride-512 sample would read.
Tensor column_structured(Rng& rng, float column_scale) {
  Tensor t = Tensor::randn({1024, 1024}, rng);
  for (std::int64_t row = 0; row < 1024; ++row) {
    t.at(row * 1024) *= column_scale;
    t.at(row * 1024 + 512) *= column_scale;
  }
  return t;
}

TEST(TopK, SelectsLargestMagnitudes) {
  const std::vector<float> data = {0.1F, -5.0F, 3.0F, -0.2F, 4.0F};
  const TopKResult r = top_k_abs(data, 2);
  ASSERT_EQ(r.indices.size(), 2U);
  EXPECT_EQ(r.indices[0], 1);  // -5.0
  EXPECT_EQ(r.indices[1], 4);  // 4.0
  EXPECT_FLOAT_EQ(r.values[0], -5.0F);  // signed value preserved
  EXPECT_FLOAT_EQ(r.values[1], 4.0F);
}

TEST(TopK, IndicesAscending) {
  Rng rng(1);
  const Tensor t = Tensor::randn({1000}, rng);
  const TopKResult r = top_k_abs(t.data(), 100);
  EXPECT_TRUE(std::is_sorted(r.indices.begin(), r.indices.end()));
}

TEST(TopK, KClampedToSize) {
  const std::vector<float> data = {1.0F, 2.0F};
  const TopKResult r = top_k_abs(data, 10);
  EXPECT_EQ(r.indices.size(), 2U);
}

TEST(TopK, KZeroEmpty) {
  const std::vector<float> data = {1.0F};
  const TopKResult r = top_k_abs(data, 0);
  EXPECT_TRUE(r.indices.empty());
  EXPECT_TRUE(r.values.empty());
}

TEST(TopK, NegativeKThrows) {
  const std::vector<float> data = {1.0F};
  EXPECT_THROW(top_k_abs(data, -1), std::invalid_argument);
}

TEST(TopK, EmptyInput) {
  const TopKResult r = top_k_abs(std::span<const float>{}, 5);
  EXPECT_TRUE(r.indices.empty());
}

TEST(TopK, TiesBrokenByLowerIndex) {
  const std::vector<float> data = {2.0F, -2.0F, 2.0F, 1.0F};
  const TopKResult r = top_k_abs(data, 2);
  EXPECT_EQ(r.indices[0], 0);
  EXPECT_EQ(r.indices[1], 1);
}

TEST(TopK, ThresholdProperty) {
  // Every selected magnitude >= every non-selected magnitude.
  Rng rng(2);
  const Tensor t = Tensor::randn({500}, rng);
  const TopKResult r = top_k_abs(t.data(), 50);
  float min_selected = 1e30F;
  for (float v : r.values) min_selected = std::min(min_selected, std::abs(v));
  std::vector<bool> selected(500, false);
  for (auto i : r.indices) selected[static_cast<std::size_t>(i)] = true;
  for (std::size_t i = 0; i < 500; ++i)
    if (!selected[i]) EXPECT_LE(std::abs(t.data()[i]), min_selected);
}

TEST(TopK, FullSelectionIsIdentityUnderScatter) {
  Rng rng(3);
  const Tensor t = Tensor::randn({64}, rng);
  const TopKResult r = top_k_abs(t.data(), 64);
  const auto dense = scatter(r, 64);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(dense[i], t.data()[i]);
}

TEST(Scatter, PlacesValuesAtIndices) {
  TopKResult sparse;
  sparse.indices = {1, 3};
  sparse.values = {5.0F, -2.0F};
  const auto dense = scatter(sparse, 5);
  EXPECT_EQ(dense, (std::vector<float>{0, 5.0F, 0, -2.0F, 0}));
}

TEST(Scatter, OutOfRangeIndexThrows) {
  TopKResult sparse;
  sparse.indices = {7};
  sparse.values = {1.0F};
  EXPECT_THROW(scatter(sparse, 5), std::out_of_range);
}

TEST(Scatter, MismatchedSizesThrow) {
  TopKResult sparse;
  sparse.indices = {1, 2};
  sparse.values = {1.0F};
  EXPECT_THROW(scatter(sparse, 5), std::invalid_argument);
}

// Property sweep: selection preserves exactly the top-k energy.
class TopKSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TopKSweep, CapturesMaximalEnergy) {
  const std::int64_t k = GetParam();
  Rng rng(4);
  const Tensor t = Tensor::randn({256}, rng);
  const TopKResult r = top_k_abs(t.data(), k);
  // Energy of selection must be >= energy of any other k-subset; compare
  // against the k largest magnitudes computed by full sort.
  std::vector<float> mags(t.data().begin(), t.data().end());
  for (auto& v : mags) v = std::abs(v);
  std::sort(mags.rbegin(), mags.rend());
  double best = 0.0;
  for (std::int64_t i = 0; i < k; ++i) best += mags[static_cast<std::size_t>(i)] *
                                               mags[static_cast<std::size_t>(i)];
  double got = 0.0;
  for (float v : r.values) got += static_cast<double>(v) * v;
  EXPECT_NEAR(got, best, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Ks, TopKSweep, ::testing::Values(1, 2, 8, 32, 128, 255, 256));

// --- Fast path vs exact fallback -------------------------------------------

// The fast sampled-threshold path promises bit-identical output to the
// exact path. Randomized sweep over sizes straddling the fast-path cutoff,
// with both smooth and heavily tied distributions.
TEST(TopKFastPath, MatchesExactOnRandomInputs) {
  Rng rng(17);
  Workspace ws;
  for (std::int64_t n : {100, 8191, 8192, 16384, 100000, 262144}) {
    const Tensor t = Tensor::randn({n}, rng);
    for (std::int64_t k : {1L, 7L, n / 100 + 1, n / 10, n / 2, n}) {
      const TopKResult fast = top_k_abs(t.data(), k, &ws);
      const TopKResult exact = top_k_abs_exact(t.data(), k);
      ASSERT_EQ(fast.indices, exact.indices) << "n=" << n << " k=" << k;
      ASSERT_EQ(fast.values, exact.values) << "n=" << n << " k=" << k;
    }
  }
}

TEST(TopKFastPath, MatchesExactWithMassiveTies) {
  // Quantize to a handful of magnitudes so the sampled threshold lands on a
  // value shared by thousands of elements — the worst case for threshold
  // selection, where tie-breaking by lower index must still hold exactly.
  Rng rng(18);
  const std::int64_t n = 65536;
  Tensor t = Tensor::randn({n}, rng);
  for (auto& v : t.data()) v = std::round(v * 2.0F) / 2.0F;  // ~7 distinct magnitudes
  for (std::int64_t k : {1L, 100L, 1000L, 10000L, n / 2}) {
    const TopKResult fast = top_k_abs(t.data(), k);
    const TopKResult exact = top_k_abs_exact(t.data(), k);
    ASSERT_EQ(fast.indices, exact.indices) << "k=" << k;
    ASSERT_EQ(fast.values, exact.values) << "k=" << k;
  }
}

TEST(TopKFastPath, MatchesExactOnConstantInput) {
  // All elements tie: every element survives the filter, and the finish
  // keeps the lowest indices.
  const std::vector<float> data(20000, 1.0F);
  const TopKResult fast = top_k_abs(data, 50);
  const TopKResult exact = top_k_abs_exact(data, 50);
  EXPECT_EQ(fast.indices, exact.indices);
  EXPECT_EQ(fast.values, exact.values);
}

TEST(TopKFastPath, MatchesExactWithNaNAndInf) {
  // A NaN ranks as +inf and ties with ±Inf by index. The patterns put
  // non-finite values above, around and below the sampled threshold.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::int64_t n = 300000;
  struct Pattern {
    const char* name;
    std::int64_t k;
    float (*value)(std::int64_t i, float base, float nan, float inf);
  };
  const Pattern patterns[] = {
      {"NaN at every odd index", 30001,
       [](std::int64_t i, float base, float nan, float) { return i % 2 == 1 ? nan : base; }},
      {"sparse NaN, -NaN, +Inf, -Inf", 3000,
       [](std::int64_t i, float base, float nan, float inf) {
         switch (i % 997) {
           case 3: return nan;
           case 5: return -nan;
           case 11: return inf;
           case 13: return -inf;
           default: return base;
         }
       }},
      {"non-finite every 300th, fewer than k", 3000,
       [](std::int64_t i, float base, float nan, float inf) {
         if (i % 300 != 0) return base;
         return i % 900 == 0 ? nan : (i % 600 == 0 ? -inf : inf);
       }},
      {"only non-finite", 3000,
       [](std::int64_t i, float, float nan, float inf) {
         return i % 3 == 0 ? nan : (i % 3 == 1 ? -inf : inf);
       }},
  };
  for (const int threads : {1, 4}) {
    const ScopedPool pool(threads);
    for (const Pattern& pattern : patterns) {
      Rng rng(23);
      std::vector<float> data(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i)
        data[static_cast<std::size_t>(i)] = pattern.value(i, rng.gaussian(), nan, inf);
      const std::string what = std::string(pattern.name) + ", pool " + std::to_string(threads);
      Workspace ws;
      TopKResult fast;
      top_k_abs_into(data, pattern.k, fast, &ws);
      expect_same(fast, top_k_abs_exact(data, pattern.k), what);
      EXPECT_TRUE(ws.idx.empty()) << what << ": fell back to the exact path";
    }
  }
}

TEST(TopK, NaNAndInfRankFirst) {
  // NaN and ±Inf share the top rank and tie by index.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> data = {1.0F, -inf, 3.0F, nan, inf, -2.0F};
  const TopKResult r = top_k_abs(data, 4);
  EXPECT_EQ(r.indices, (std::vector<std::int64_t>{1, 2, 3, 4}));
  EXPECT_TRUE(std::isnan(r.values[2]));
}

TEST(TopKFastPath, ColumnStructuredMatrixStaysOnFastPath) {
  // A stride-512 sample of this matrix reads only columns 0 and 512. Scaled
  // up, they drag the threshold so high that too few elements survive;
  // scaled down, so low that the filter prunes little. The spread sample
  // sees every column, so neither case leaves the fast path.
  for (const int threads : {1, 4}) {
    const ScopedPool pool(threads);
    for (const float scale : {4.0F, 0.25F}) {
      Rng rng(29);
      const Tensor t = column_structured(rng, scale);
      Workspace ws;
      TopKResult fast;
      top_k_abs_into(t.data(), 10486, fast, &ws);
      const std::string what =
          "scale " + std::to_string(scale) + ", pool " + std::to_string(threads);
      expect_same(fast, top_k_abs_exact(t.data(), 10486), what);
      EXPECT_EQ(ws.idx.capacity(), 0U) << what << ": fell back to the exact path";
    }
  }
}

TEST(TopKFastPath, AccumulateMatchesAddThenSelect) {
  // The fused error-feedback pass stores the same sums, bit for bit, and
  // selects as the exact path does over them.
  for (const int threads : {1, 4}) {
    const ScopedPool pool(threads);
    for (const std::int64_t n : {1000L, 100000L}) {
      Rng rng(31);
      const Tensor g = Tensor::randn({n}, rng);
      Tensor acc = Tensor::randn({n}, rng);
      acc.at(3) = -0.0F;
      const Tensor want_acc = add(g, acc);
      const TopKResult want = top_k_abs_exact(want_acc.data(), n / 100);
      TopKResult got;
      top_k_abs_accumulate_into(g.data(), acc.data(), n / 100, got);
      const std::string what = "n " + std::to_string(n) + ", pool " + std::to_string(threads);
      ASSERT_EQ(std::memcmp(acc.data().data(), want_acc.data().data(), acc.byte_size()), 0)
          << what;
      expect_same(got, want, what);
    }
  }
  Tensor short_acc({3});
  TopKResult out;
  EXPECT_THROW(top_k_abs_accumulate_into(std::vector<float>(4), short_acc.data(), 1, out),
               std::invalid_argument);
}

TEST(TopKWorkspace, SteadyStateReusesCapacity) {
  // One workspace serves layers of two sizes, plain and accumulating.
  Rng rng(19);
  const Tensor big = Tensor::randn({100000}, rng);
  const Tensor small = Tensor::randn({20000}, rng);
  Tensor acc({100000});
  Workspace ws;
  TopKResult out;
  const auto step = [&] {
    top_k_abs_into(small.data(), 200, out, &ws);
    std::fill(acc.data().begin(), acc.data().end(), 0.0F);
    top_k_abs_accumulate_into(big.data(), acc.data(), 1000, out, &ws);
    top_k_abs_into(big.data(), 1000, out, &ws);
  };
  step();  // warm-up sizes everything
  const auto cap_idx = ws.idx.capacity();
  const auto cap_sample = ws.sample.capacity();
  const auto* hits = ws.hits.get();
  const auto hits_size = ws.hits_size;
  const auto cap_hit_count = ws.hit_count.capacity();
  const auto cap_keys = ws.keys.capacity();
  const auto cap_indices = out.indices.capacity();
  const auto cap_values = out.values.capacity();
  const TopKResult expected = top_k_abs_exact(big.data(), 1000);
  for (int iter = 0; iter < 5; ++iter) {
    step();
    EXPECT_EQ(out.indices, expected.indices);
    EXPECT_EQ(out.values, expected.values);
  }
  // Steady state must not have grown any buffer (i.e. no reallocation).
  EXPECT_EQ(ws.idx.capacity(), cap_idx);
  EXPECT_EQ(ws.sample.capacity(), cap_sample);
  EXPECT_EQ(ws.hits.get(), hits);
  EXPECT_EQ(ws.hits_size, hits_size);
  EXPECT_EQ(ws.hit_count.capacity(), cap_hit_count);
  EXPECT_EQ(ws.keys.capacity(), cap_keys);
  EXPECT_EQ(out.indices.capacity(), cap_indices);
  EXPECT_EQ(out.values.capacity(), cap_values);
}

// --- In-place scatter overloads --------------------------------------------

TEST(ScatterInPlace, MatchesAllocatingOverload) {
  TopKResult sparse;
  sparse.indices = {0, 2, 4};
  sparse.values = {1.0F, -2.0F, 3.0F};
  std::vector<float> dense(6, 9.0F);  // pre-existing garbage must be cleared
  scatter(sparse, dense);
  EXPECT_EQ(dense, scatter(sparse, 6));
}

TEST(ScatterInPlace, SpanOverloadValidates) {
  std::vector<float> dense(4);
  const std::vector<std::int64_t> indices = {1, 9};
  const std::vector<float> values = {1.0F, 2.0F};
  EXPECT_THROW(scatter(indices, values, dense), std::out_of_range);
  const std::vector<std::int64_t> short_idx = {1};
  EXPECT_THROW(scatter(short_idx, values, dense), std::invalid_argument);
}

}  // namespace
}  // namespace gradcomp::tensor
