#include "train/nn.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "counting_new.hpp"
#include "scoped_pool.hpp"
#include "tensor/rng.hpp"

namespace gradcomp::train {
namespace {

using tensor::Rng;
using tensor::Tensor;
using gradcomp::testing::g_allocations;
using gradcomp::testing::ScopedPool;

std::vector<int> labels_for(std::int64_t batch, int classes, Rng& rng) {
  std::vector<int> y(static_cast<std::size_t>(batch));
  for (auto& v : y) v = static_cast<int>(rng.next_u64() % static_cast<std::uint64_t>(classes));
  return y;
}

// True when the loss and every gradient of `a` and `b` are the same bits.
::testing::AssertionResult same_gradients(double loss_a, const Mlp& a, double loss_b,
                                          const Mlp& b) {
  if (std::memcmp(&loss_a, &loss_b, sizeof(double)) != 0)
    return ::testing::AssertionFailure() << "loss " << loss_a << " vs " << loss_b;
  for (std::size_t i = 0; i < a.num_layers(); ++i) {
    const LinearLayer& la = a.layers()[i];
    const LinearLayer& lb = b.layers()[i];
    if (la.grad_w.shape() != lb.grad_w.shape() ||
        std::memcmp(la.grad_w.data().data(), lb.grad_w.data().data(), la.grad_w.byte_size()) !=
            0)
      return ::testing::AssertionFailure() << "grad_w of layer " << i;
    if (std::memcmp(la.grad_b.data().data(), lb.grad_b.data().data(), la.grad_b.byte_size()) !=
        0)
      return ::testing::AssertionFailure() << "grad_b of layer " << i;
  }
  return ::testing::AssertionSuccess();
}

TEST(Mlp, RejectsDegenerateDims) {
  EXPECT_THROW(Mlp({4}, 1), std::invalid_argument);
  EXPECT_THROW(Mlp({4, 0}, 1), std::invalid_argument);
}

TEST(Mlp, LayerShapes) {
  const Mlp net({8, 16, 3}, 1);
  ASSERT_EQ(net.num_layers(), 2U);
  EXPECT_EQ(net.layers()[0].w.shape(), (tensor::Shape{16, 8}));
  EXPECT_EQ(net.layers()[0].b.shape(), (tensor::Shape{16}));
  EXPECT_EQ(net.layers()[1].w.shape(), (tensor::Shape{3, 16}));
  EXPECT_EQ(net.input_dim(), 8);
  EXPECT_EQ(net.num_classes(), 3);
}

TEST(Mlp, SameSeedSameWeights) {
  const Mlp a({4, 8, 2}, 7);
  const Mlp b({4, 8, 2}, 7);
  for (std::size_t i = 0; i < a.num_layers(); ++i)
    EXPECT_DOUBLE_EQ(tensor::max_abs_diff(a.layers()[i].w, b.layers()[i].w), 0.0);
}

TEST(Mlp, ForwardShape) {
  const Mlp net({4, 8, 3}, 1);
  Rng rng(2);
  const Tensor x = Tensor::randn({5, 4}, rng);
  const Tensor logits = net.forward(x);
  EXPECT_EQ(logits.shape(), (tensor::Shape{5, 3}));
}

TEST(Mlp, ForwardRejectsBadInput) {
  const Mlp net({4, 8, 3}, 1);
  EXPECT_THROW(net.forward(Tensor({5, 3})), std::invalid_argument);
  EXPECT_THROW(net.forward(Tensor({20})), std::invalid_argument);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(3);
  const Tensor probs = softmax_rows(Tensor::randn({6, 4}, rng));
  for (std::int64_t i = 0; i < 6; ++i) {
    double sum = 0.0;
    for (std::int64_t j = 0; j < 4; ++j) {
      EXPECT_GT(probs.at(i, j), 0.0F);
      sum += probs.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, StableUnderLargeLogits) {
  const Tensor logits({1, 2}, {1000.0F, 999.0F});
  const Tensor probs = softmax_rows(logits);
  EXPECT_TRUE(std::isfinite(probs.at(0, 0)));
  EXPECT_GT(probs.at(0, 0), probs.at(0, 1));
}

TEST(Mlp, ComputeGradientsValidatesLabels) {
  Mlp net({4, 3}, 1);
  Rng rng(4);
  const Tensor x = Tensor::randn({2, 4}, rng);
  EXPECT_THROW(net.compute_gradients(x, {0}), std::invalid_argument);       // count
  EXPECT_THROW(net.compute_gradients(x, {0, 5}), std::invalid_argument);    // range
  EXPECT_THROW(net.compute_gradients(x, {0, -1}), std::invalid_argument);   // range
}

TEST(Mlp, GradientsMatchFiniteDifferences) {
  // The gold-standard autograd check.
  Mlp net({3, 5, 2}, 9);
  Rng rng(5);
  const Tensor x = Tensor::randn({4, 3}, rng);
  const std::vector<int> y = {0, 1, 1, 0};
  net.compute_gradients(x, y);

  const float eps = 1e-3F;
  // Spot-check several coordinates in every layer's weight and bias.
  for (std::size_t layer = 0; layer < net.num_layers(); ++layer) {
    for (std::int64_t idx : {std::int64_t{0}, net.layers()[layer].w.numel() / 2,
                             net.layers()[layer].w.numel() - 1}) {
      Mlp probe = net;
      probe.layers()[layer].w.at(idx) += eps;
      const double up = probe.loss(x, y);
      probe.layers()[layer].w.at(idx) -= 2 * eps;
      const double down = probe.loss(x, y);
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(net.layers()[layer].grad_w.at(idx), numeric, 5e-3)
          << "layer " << layer << " idx " << idx;
    }
    Mlp probe = net;
    probe.layers()[layer].b.at(0) += eps;
    const double up = probe.loss(x, y);
    probe.layers()[layer].b.at(0) -= 2 * eps;
    const double down = probe.loss(x, y);
    EXPECT_NEAR(net.layers()[layer].grad_b.at(0), (up - down) / (2.0 * eps), 5e-3);
  }
}

TEST(Mlp, LossDecreasesUnderGradientDescent) {
  Mlp net({2, 8, 2}, 11);
  Rng rng(6);
  const Tensor x = Tensor::randn({16, 2}, rng);
  std::vector<int> y;
  for (int i = 0; i < 16; ++i) y.push_back(x.at(i, 0) > 0 ? 1 : 0);

  const double initial = net.loss(x, y);
  for (int step = 0; step < 100; ++step) {
    net.compute_gradients(x, y);
    for (auto& layer : net.layers()) {
      layer.w.axpy(-0.5F, layer.grad_w);
      layer.b.axpy(-0.5F, layer.grad_b);
    }
  }
  EXPECT_LT(net.loss(x, y), initial * 0.5);
}

TEST(Mlp, AccuracyOnTriviallySeparableData) {
  Mlp net({1, 4, 2}, 13);
  const Tensor x({8, 1}, {-3, -2, -1, -0.5F, 0.5F, 1, 2, 3});
  const std::vector<int> y = {0, 0, 0, 0, 1, 1, 1, 1};
  for (int step = 0; step < 300; ++step) {
    net.compute_gradients(x, y);
    for (auto& layer : net.layers()) {
      layer.w.axpy(-0.3F, layer.grad_w);
      layer.b.axpy(-0.3F, layer.grad_b);
    }
  }
  EXPECT_EQ(net.accuracy(x, y), 1.0);
}

TEST(Mlp, SecondBatchMatchesFreshModel) {
  // The workspace a first batch leaves behind (same or other batch size)
  // must not leak into the next call's bits.
  const std::vector<std::int64_t> dims = {24, 40, 40, 6};
  Rng rng(21);
  for (const std::int64_t first_batch : {std::int64_t{11}, std::int64_t{7}}) {
    const Tensor x1 = Tensor::randn({first_batch, 24}, rng);
    const Tensor x2 = Tensor::randn({11, 24}, rng);
    const auto y1 = labels_for(first_batch, 6, rng);
    const auto y2 = labels_for(11, 6, rng);
    Mlp warm(dims, 3);
    warm.compute_gradients(x1, y1);
    Mlp fresh(dims, 3);
    const double loss_warm = warm.compute_gradients(x2, y2);
    const double loss_fresh = fresh.compute_gradients(x2, y2);
    EXPECT_TRUE(same_gradients(loss_warm, warm, loss_fresh, fresh))
        << "first batch " << first_batch;
  }
}

TEST(Mlp, GradientsIndependentOfPoolSize) {
  // Large enough that a 4-thread pool splits every GEMM into row chunks.
  const std::vector<std::int64_t> dims = {128, 256, 256, 10};
  Rng rng(22);
  const Tensor x = Tensor::randn({256, 128}, rng);
  const auto y = labels_for(256, 10, rng);
  Mlp one(dims, 4);
  Mlp four(dims, 4);
  double loss_one = 0.0;
  double loss_four = 0.0;
  {
    const ScopedPool pool(1);
    loss_one = one.compute_gradients(x, y);
  }
  {
    const ScopedPool pool(4);
    loss_four = four.compute_gradients(x, y);
  }
  EXPECT_TRUE(same_gradients(loss_one, one, loss_four, four));
}

TEST(Mlp, WarmComputeGradientsDoesNotAllocate) {
  // With the pool running GEMMs inline, a steady-state step reuses the
  // workspace and the gradient storage.
  const ScopedPool pool(1);
  Mlp net({64, 128, 128, 8}, 5);
  Rng rng(23);
  const Tensor x = Tensor::randn({32, 64}, rng);
  const auto y = labels_for(32, 8, rng);
  net.compute_gradients(x, y);
  const std::int64_t before = g_allocations.load();
  net.compute_gradients(x, y);
  EXPECT_EQ(g_allocations.load() - before, 0);
}

TEST(Mlp, CrossEntropyOfUniformIsLogClasses) {
  // Zero weights -> uniform softmax -> loss = ln(C).
  Mlp net({3, 4}, 1);
  net.layers()[0].w.fill(0.0F);
  net.layers()[0].b.fill(0.0F);
  Rng rng(7);
  const Tensor x = Tensor::randn({10, 3}, rng);
  const std::vector<int> y(10, 2);
  EXPECT_NEAR(net.loss(x, y), std::log(4.0), 1e-5);
}

}  // namespace
}  // namespace gradcomp::train
