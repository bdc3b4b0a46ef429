// Property sweep over the wire codecs: every (en|de)code pair must
// round-trip across awkward sizes (empty, sub-byte, byte-straddling, large)
// and reject truncated/corrupt payloads rather than read out of bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "compress/natural.hpp"
#include "compress/onebit.hpp"
#include "compress/qsgd.hpp"
#include "compress/signsgd.hpp"
#include "compress/terngrad.hpp"
#include "compress/topk_compressor.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace gradcomp::compress {
namespace {

using tensor::Rng;
using tensor::Tensor;

class SizeSweep : public ::testing::TestWithParam<std::int64_t> {
 protected:
  [[nodiscard]] std::vector<float> values() const {
    Rng rng(GetParam() * 31 + 7);
    std::vector<float> v(static_cast<std::size_t>(GetParam()));
    for (auto& x : v) x = rng.gaussian();
    return v;
  }
};

TEST_P(SizeSweep, SignBitsRoundTrip) {
  const auto v = values();
  const auto bits = SignSgdCompressor::pack_signs(v);
  EXPECT_EQ(bits.size(), (v.size() + 7) / 8);
  const auto signs = SignSgdCompressor::unpack_signs(bits, v.size());
  ASSERT_EQ(signs.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(signs[i], v[i] >= 0.0F ? 1.0F : -1.0F);
}

TEST_P(SizeSweep, TopKSerializationRoundTrip) {
  const auto v = values();
  if (v.empty()) {
    const auto payload = TopKCompressor::serialize({});
    EXPECT_TRUE(TopKCompressor::deserialize(payload, 0).indices.empty());
    return;
  }
  const auto sparse = tensor::top_k_abs(v, std::max<std::int64_t>(1, GetParam() / 3));
  const auto back = TopKCompressor::deserialize(TopKCompressor::serialize(sparse), GetParam());
  EXPECT_EQ(back.indices, sparse.indices);
  EXPECT_EQ(back.values, sparse.values);
}

TEST_P(SizeSweep, QsgdDecodeSizeExact) {
  QsgdCompressor codec(64);
  const auto v = values();
  const auto payload = codec.encode(v);
  EXPECT_EQ(payload.size(), sizeof(float) + v.size());
  const auto back = QsgdCompressor::decode(payload, v.size(), 64);
  ASSERT_EQ(back.size(), v.size());
  // Decoded magnitudes bounded by the vector norm.
  double norm = 0.0;
  for (float x : v) norm += static_cast<double>(x) * x;
  norm = std::sqrt(norm);
  for (float x : back) EXPECT_LE(std::abs(x), norm + 1e-4);
}

TEST_P(SizeSweep, TernGradCodesRoundTripStructure) {
  TernGradCompressor codec(9);
  const auto v = values();
  const auto payload = codec.encode(v);
  EXPECT_EQ(payload.size(), sizeof(float) + (v.size() + 3) / 4);
  const auto back = TernGradCompressor::decode(payload, v.size());
  ASSERT_EQ(back.size(), v.size());
  float scale = 0.0F;
  for (float x : v) scale = std::max(scale, std::abs(x));
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_TRUE(back[i] == 0.0F || std::abs(std::abs(back[i]) - scale) < 1e-5);
    if (back[i] != 0.0F) EXPECT_GE(back[i] * v[i], 0.0F);  // sign preserved
  }
}

TEST_P(SizeSweep, OneBitRoundTripStructure) {
  const auto v = values();
  const auto payload = OneBitCompressor::encode(v);
  const auto back = OneBitCompressor::decode(payload, v.size());
  ASSERT_EQ(back.size(), v.size());
  // Exactly two distinct reconstruction levels (or fewer for tiny inputs).
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_GE(back[i] * (v[i] >= 0 ? 1.0F : -1.0F), 0.0F);
}

TEST_P(SizeSweep, NaturalCodesAreOneBytePerValue) {
  NaturalCompressor codec(5);
  const auto v = values();
  const auto payload = codec.encode(v);
  EXPECT_EQ(payload.size(), v.size());
  const auto back = NaturalCompressor::decode(payload, v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] == 0.0F) {
      EXPECT_EQ(back[i], 0.0F);
    } else {
      const double ratio = std::abs(back[i]) / std::abs(v[i]);
      EXPECT_GE(ratio, 0.5 - 1e-6);
      EXPECT_LE(ratio, 2.0 + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeSweep,
                         ::testing::Values(0, 1, 7, 8, 9, 31, 32, 33, 255, 1000));

// --- corrupt payload rejection ----------------------------------------------

TEST(WireFormats, TruncatedPayloadsRejected) {
  EXPECT_THROW(QsgdCompressor::decode(std::vector<std::byte>(2), 8, 64),
               std::invalid_argument);
  EXPECT_THROW(TernGradCompressor::decode(std::vector<std::byte>(2), 8),
               std::invalid_argument);
  EXPECT_THROW(OneBitCompressor::decode(std::vector<std::byte>(2), 8), std::invalid_argument);
  EXPECT_THROW(NaturalCompressor::decode(std::vector<std::byte>(2), 8), std::invalid_argument);
  EXPECT_THROW(TopKCompressor::deserialize(std::vector<std::byte>(2), 8), std::invalid_argument);
}

// A sparse payload with header k and one (index, value) entry per index;
// value_bytes is 4 for the fp32 format and 2 for the half one.
std::vector<std::byte> sparse_payload(std::int64_t k, const std::vector<std::int32_t>& indices,
                                      std::size_t value_bytes) {
  std::vector<std::byte> payload(sizeof(k) + indices.size() * (sizeof(std::int32_t) + value_bytes));
  std::memcpy(payload.data(), &k, sizeof(k));
  if (!indices.empty())
    std::memcpy(payload.data() + sizeof(k), indices.data(), indices.size() * sizeof(std::int32_t));
  return payload;
}

void expect_both_decoders_reject(std::int64_t k, const std::vector<std::int32_t>& indices,
                                 std::int64_t n) {
  EXPECT_THROW((void)TopKCompressor::deserialize(sparse_payload(k, indices, 4), n),
               std::invalid_argument)
      << "k=" << k;
  EXPECT_THROW((void)TopKCompressor::deserialize_half(sparse_payload(k, indices, 2), n),
               std::invalid_argument)
      << "k=" << k;
}

TEST(WireFormats, TopKNegativeCountRejected) { expect_both_decoders_reject(-1, {}, 8); }

TEST(WireFormats, TopKOversizedCountRejected) {
  // The payloads hold at most one entry. k = 2^61 times the 8-byte fp32
  // entry wraps to 0 in 64 bits, so the size check must divide, not
  // multiply, or the header-only payload passes it.
  for (const std::int64_t claim : {std::int64_t{1000}, std::int64_t{1} << 61}) {
    expect_both_decoders_reject(claim, {}, 8);
    expect_both_decoders_reject(claim, {0}, 8);
  }
}

TEST(WireFormats, TopKIndexOutsideGradientRejected) {
  // An index the receiver would scatter outside its n-element gradient.
  for (const std::int32_t index : {std::int32_t{1} << 30, -5, 8})
    expect_both_decoders_reject(1, {index}, 8);
  EXPECT_NO_THROW((void)TopKCompressor::deserialize(sparse_payload(1, {7}, 4), 8));
}

}  // namespace
}  // namespace gradcomp::compress
