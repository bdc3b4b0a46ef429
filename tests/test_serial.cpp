// Serialization substrate: CRC-32, bounds-checked reader/writer, tensors.
#include "tensor/serial.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

namespace gradcomp::tensor {
namespace {

std::vector<std::byte> ascii(const char* s) {
  std::vector<std::byte> out(std::strlen(s));
  std::memcpy(out.data(), s, out.size());
  return out;
}

TEST(Crc32, MatchesKnownVectors) {
  // The canonical check value for CRC-32/IEEE ("123456789" -> 0xCBF43926).
  EXPECT_EQ(crc32(ascii("123456789")), 0xCBF43926U);
  EXPECT_EQ(crc32({}), 0U);
  EXPECT_NE(crc32(ascii("a")), crc32(ascii("b")));
}

TEST(ByteWriter, RoundTripsScalars) {
  ByteWriter w;
  w.u32(0xDEADBEEFU);
  w.u64(0x1122334455667788ULL);
  w.i64(-42);
  w.f64(3.25);
  ByteReader r(w.data(), "test");
  EXPECT_EQ(r.u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.done());
}

TEST(ByteWriter, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304U);
  EXPECT_EQ(std::to_integer<int>(w.data()[0]), 0x04);
  EXPECT_EQ(std::to_integer<int>(w.data()[3]), 0x01);
}

TEST(ByteReader, ThrowsOnTruncation) {
  ByteWriter w;
  w.u64(7);
  const auto bytes = w.data();
  const std::span<const std::byte> chopped(bytes.data(), 5);
  ByteReader r(chopped, "ctx");
  try {
    (void)r.u64();
    FAIL() << "expected truncation error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ctx"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(ByteReader, BlobRoundTripAndExpectDone) {
  ByteWriter w;
  w.blob(ascii("payload"));
  ByteReader r(w.data(), "test");
  EXPECT_EQ(r.blob(), ascii("payload"));
  EXPECT_NO_THROW(r.expect_done());

  ByteWriter extra;
  extra.blob(ascii("payload"));
  extra.u32(1);
  ByteReader r2(extra.data(), "test");
  (void)r2.blob();
  EXPECT_THROW(r2.expect_done(), std::runtime_error);
}

TEST(Serial, TensorRoundTripIsBitExact) {
  Tensor t({3, 4});
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t.data()[i] = static_cast<float>(i) * 0.37F - 1.0F;
  ByteWriter w;
  w.tensor(t);
  ByteReader r(w.data(), "test");
  const Tensor back = r.tensor();
  ASSERT_EQ(back.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(back.data()[i], t.data()[i]);
}

TEST(Serial, TensorRejectsAbsurdRank) {
  ByteWriter w;
  w.u32(100);  // claimed ndim
  ByteReader r(w.data(), "test");
  EXPECT_THROW((void)r.tensor(), std::runtime_error);
}

TEST(Serial, TensorLargerThanItsPayloadThrowsBeforeAllocating) {
  // 20 bytes declaring 2^32 x 2^32 floats and carrying none: the product
  // wraps to 0 in 64 bits, so it must be checked against the bytes left.
  ByteWriter w;
  w.u32(2);
  w.i64(std::int64_t{1} << 32);
  w.i64(std::int64_t{1} << 32);
  ASSERT_EQ(w.data().size(), 20U);
  ByteReader r(w.data(), "test");
  EXPECT_THROW((void)r.tensor(), std::runtime_error);

  // One float short of the shape.
  ByteWriter short_payload;
  short_payload.u32(2);
  short_payload.i64(2);
  short_payload.i64(3);
  for (int i = 0; i < 5; ++i) short_payload.u32(0);
  ByteReader short_reader(short_payload.data(), "test");
  EXPECT_THROW((void)short_reader.tensor(), std::runtime_error);
}

TEST(Serial, EmptyTensorWithLargeDimensionRoundTrips) {
  // A zero dimension makes the tensor empty whatever the other dimensions.
  const Shape shape = {std::int64_t{1} << 40, 0};
  ByteWriter w;
  w.tensor(Tensor(shape));
  ByteReader r(w.data(), "test");
  const Tensor back = r.tensor();
  EXPECT_EQ(back.shape(), shape);
  r.expect_done();
}

}  // namespace
}  // namespace gradcomp::tensor
