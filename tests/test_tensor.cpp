#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "tensor/rng.hpp"

namespace gradcomp::tensor {
namespace {

TEST(Shape, NumelMultipliesDims) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_EQ(shape_numel({7}), 7);
  EXPECT_EQ(shape_numel({}), 1);  // scalar convention
  EXPECT_EQ(shape_numel({0, 5}), 0);
}

TEST(Shape, NegativeDimThrows) {
  EXPECT_THROW(shape_numel({2, -1}), std::invalid_argument);
}

TEST(Shape, OverflowingProductThrows) {
  const std::int64_t big = std::int64_t{1} << 32;
  EXPECT_THROW(shape_numel({big, big}), std::overflow_error);
  EXPECT_EQ(shape_numel({big, big / 2 - 1}), big * (big / 2 - 1));
  EXPECT_EQ(shape_numel({big, 0, big, big}), 0);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({3, 4});
  EXPECT_EQ(t.numel(), 12);
  for (float v : t.data()) EXPECT_EQ(v, 0.0F);
}

TEST(Tensor, ConstructFromDataValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, FullFillsValue) {
  const Tensor t = Tensor::full({5}, 2.5F);
  for (float v : t.data()) EXPECT_EQ(v, 2.5F);
}

TEST(Tensor, FlatAccessBoundsChecked) {
  Tensor t({4});
  EXPECT_NO_THROW(t.at(3));
  EXPECT_THROW(t.at(4), std::out_of_range);
  EXPECT_THROW(t.at(-1), std::out_of_range);
}

TEST(Tensor, TwoDAccessRowMajor) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(t.at(0, 0), 0.0F);
  EXPECT_EQ(t.at(0, 2), 2.0F);
  EXPECT_EQ(t.at(1, 0), 3.0F);
  EXPECT_EQ(t.at(1, 2), 5.0F);
  EXPECT_THROW(t.at(2, 0), std::out_of_range);
  EXPECT_THROW(t.at(0, 3), std::out_of_range);
}

TEST(Tensor, TwoDAccessRequires2D) {
  Tensor t({6});
  EXPECT_THROW(t.at(0, 0), std::logic_error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshape({3, 2});
  EXPECT_EQ(r.at(0, 0), 1.0F);
  EXPECT_EQ(r.at(2, 1), 6.0F);
}

TEST(Tensor, ReshapeInfersMinusOne) {
  Tensor t({4, 6});
  EXPECT_EQ(t.reshape({8, -1}).dim(1), 3);
  EXPECT_EQ(t.reshape({-1}).dim(0), 24);
}

TEST(Tensor, ReshapeRejectsBadShapes) {
  Tensor t({4, 6});
  EXPECT_THROW(t.reshape({5, 5}), std::invalid_argument);
  EXPECT_THROW(t.reshape({-1, -1}), std::invalid_argument);
  EXPECT_THROW(t.reshape({7, -1}), std::invalid_argument);
}

TEST(Tensor, MatricizeConv4D) {
  // {out, in, kh, kw} -> {out, in*kh*kw}, the PowerSGD/ATOMO flattening.
  Tensor t({8, 4, 3, 3});
  const Tensor m = t.matricize();
  ASSERT_EQ(m.ndim(), 2U);
  EXPECT_EQ(m.dim(0), 8);
  EXPECT_EQ(m.dim(1), 36);
}

TEST(Tensor, Matricize1DBecomesColumn) {
  Tensor t({5});
  const Tensor m = t.matricize();
  EXPECT_EQ(m.dim(0), 5);
  EXPECT_EQ(m.dim(1), 1);
}

TEST(Tensor, AxpyAccumulates) {
  Tensor a({3}, {1, 2, 3});
  const Tensor b({3}, {10, 20, 30});
  a.axpy(0.5F, b);
  EXPECT_FLOAT_EQ(a.at(0), 6.0F);
  EXPECT_FLOAT_EQ(a.at(2), 18.0F);
}

TEST(Tensor, AxpySizeMismatchThrows) {
  Tensor a({3});
  const Tensor b({4});
  EXPECT_THROW(a.axpy(1.0F, b), std::invalid_argument);
}

TEST(Tensor, ScaleMultiplies) {
  Tensor t({2}, {3, -4});
  t.scale(-2.0F);
  EXPECT_FLOAT_EQ(t.at(0), -6.0F);
  EXPECT_FLOAT_EQ(t.at(1), 8.0F);
}

TEST(Tensor, Norms) {
  const Tensor t({2}, {3, -4});
  EXPECT_DOUBLE_EQ(t.l2_norm(), 5.0);
  EXPECT_DOUBLE_EQ(t.linf_norm(), 4.0);
  EXPECT_DOUBLE_EQ(t.l1_norm(), 7.0);
  EXPECT_DOUBLE_EQ(t.sum(), -1.0);
}

TEST(Tensor, OutOfPlaceAddSub) {
  const Tensor a({2}, {1, 2});
  const Tensor b({2}, {10, 20});
  EXPECT_FLOAT_EQ(add(a, b).at(1), 22.0F);
  EXPECT_FLOAT_EQ(sub(b, a).at(0), 9.0F);
  EXPECT_FLOAT_EQ(scaled(a, 3.0F).at(1), 6.0F);
}

TEST(Tensor, MaxAbsDiff) {
  const Tensor a({3}, {1, 2, 3});
  const Tensor b({3}, {1, 5, 3});
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 3.0);
  EXPECT_THROW(max_abs_diff(a, Tensor({2})), std::invalid_argument);
}

TEST(Tensor, RelativeL2Error) {
  const Tensor ref({2}, {3, 4});
  const Tensor same = ref;
  EXPECT_DOUBLE_EQ(relative_l2_error(same, ref), 0.0);
  const Tensor zero({2});
  EXPECT_DOUBLE_EQ(relative_l2_error(zero, ref), 1.0);
}

TEST(Tensor, RandnIsReproducible) {
  Rng r1(5);
  Rng r2(5);
  const Tensor a = Tensor::randn({100}, r1);
  const Tensor b = Tensor::randn({100}, r2);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.0);
}

TEST(Tensor, RandUniformRespectsRange) {
  Rng rng(6);
  const Tensor t = Tensor::rand_uniform({1000}, rng, -1.0F, 1.0F);
  EXPECT_LE(t.linf_norm(), 1.0);
}

TEST(Tensor, DimOutOfRangeThrows) {
  Tensor t({2, 3});
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_THROW(t.dim(2), std::out_of_range);
}

TEST(Tensor, ByteSizeIsFourPerElement) {
  Tensor t({10, 10});
  EXPECT_EQ(t.byte_size(), 400U);
}

}  // namespace
}  // namespace gradcomp::tensor
