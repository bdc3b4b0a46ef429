#include "train/nn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/linalg.hpp"

namespace gradcomp::train {

Mlp::Mlp(std::vector<std::int64_t> dims, std::uint64_t seed) : dims_(std::move(dims)) {
  if (dims_.size() < 2) throw std::invalid_argument("Mlp: need at least input and output dims");
  tensor::Rng rng(seed);
  layers_.reserve(dims_.size() - 1);
  for (std::size_t i = 0; i + 1 < dims_.size(); ++i) {
    const std::int64_t in = dims_[i];
    const std::int64_t out = dims_[i + 1];
    if (in < 1 || out < 1) throw std::invalid_argument("Mlp: dims must be >= 1");
    LinearLayer layer{tensor::Tensor::randn({out, in}, rng), tensor::Tensor({out}),
                      tensor::Tensor({out, in}), tensor::Tensor({out})};
    // Kaiming-style scaling keeps activations bounded through ReLU stacks.
    layer.w.scale(static_cast<float>(std::sqrt(2.0 / static_cast<double>(in))));
    layers_.push_back(std::move(layer));
  }
}

namespace {

// y = x W^T + b, then ReLU when `relu`; bias and ReLU run in the GEMM's
// epilogue.
void linear_forward(const LinearLayer& layer, const tensor::Tensor& x, bool relu,
                    tensor::Tensor& y) {
  tensor::matmul_into(x, layer.w, tensor::Transpose::kNo, tensor::Transpose::kYes, y,
                      {layer.b.data().data(), relu, nullptr});
}

void softmax_rows_inplace(tensor::Tensor& probs) {
  const std::int64_t rows = probs.dim(0);
  const std::int64_t cols = probs.dim(1);
  auto p = probs.data();
  for (std::int64_t i = 0; i < rows; ++i) {
    float* row = p.data() + i * cols;
    const float row_max = *std::max_element(row, row + cols);
    double sum = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - row_max);
      sum += row[j];
    }
    const auto inv = static_cast<float>(1.0 / sum);
    for (std::int64_t j = 0; j < cols; ++j) row[j] *= inv;
  }
}

}  // namespace

tensor::Tensor softmax_rows(const tensor::Tensor& logits) {
  if (logits.ndim() != 2) throw std::invalid_argument("softmax_rows: logits must be 2-D");
  tensor::Tensor probs = logits;
  softmax_rows_inplace(probs);
  return probs;
}

tensor::Tensor Mlp::forward(const tensor::Tensor& x) const {
  if (x.ndim() != 2 || x.dim(1) != input_dim())
    throw std::invalid_argument("Mlp::forward: bad input shape");
  tensor::Tensor h;
  linear_forward(layers_.front(), x, layers_.size() > 1, h);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    tensor::Tensor next;
    linear_forward(layers_[i], h, i + 1 < layers_.size(), next);
    h = std::move(next);
  }
  return h;
}

double Mlp::compute_gradients(const tensor::Tensor& x, const std::vector<int>& labels) {
  const std::int64_t batch = x.dim(0);
  if (static_cast<std::int64_t>(labels.size()) != batch)
    throw std::invalid_argument("Mlp::compute_gradients: label count mismatch");

  // Forward; acts_[i] feeds layers_[i + 1].
  const std::size_t depth = layers_.size();
  acts_.resize(depth);
  deltas_.resize(depth);
  const auto input_of = [&](std::size_t i) -> const tensor::Tensor& {
    return i == 0 ? x : acts_[i - 1];
  };
  for (std::size_t i = 0; i < depth; ++i)
    linear_forward(layers_[i], input_of(i), i + 1 < depth, acts_[i]);

  // Softmax cross-entropy loss and dL/dlogits = (probs - onehot) / batch.
  tensor::Tensor& delta = deltas_.back();
  delta = acts_.back();
  softmax_rows_inplace(delta);
  const std::int64_t classes = delta.dim(1);
  double loss_sum = 0.0;
  auto pd = delta.data();
  for (std::int64_t i = 0; i < batch; ++i) {
    const int y = labels[static_cast<std::size_t>(i)];
    if (y < 0 || y >= classes)
      throw std::invalid_argument("Mlp::compute_gradients: label out of range");
    const float p = delta.at(i, y);
    loss_sum += -std::log(std::max(p, 1e-12F));
    pd[static_cast<std::size_t>(i * classes + y)] -= 1.0F;
  }
  delta.scale(1.0F / static_cast<float>(batch));

  // Backward through the stack.
  for (std::size_t i = depth; i-- > 0;) {
    LinearLayer& layer = layers_[i];
    const tensor::Tensor& d = deltas_[i];
    // dW = delta^T * input, db = column sums of delta.
    tensor::matmul_into(d, input_of(i), tensor::Transpose::kYes, tensor::Transpose::kNo,
                        layer.grad_w);
    layer.grad_b.fill(0.0F);
    const std::int64_t out = d.dim(1);
    auto gb = layer.grad_b.data();
    auto dp = d.data();
    for (std::int64_t r = 0; r < d.dim(0); ++r)
      for (std::int64_t c = 0; c < out; ++c)
        gb[static_cast<std::size_t>(c)] += dp[static_cast<std::size_t>(r * out + c)];
    if (i == 0) break;
    // dInput = delta * W, gated by the ReLU that produced this layer's input.
    tensor::matmul_into(d, layer.w, tensor::Transpose::kNo, tensor::Transpose::kNo,
                        deltas_[i - 1], {nullptr, false, input_of(i).data().data()});
  }
  return loss_sum / static_cast<double>(batch);
}

double Mlp::loss(const tensor::Tensor& x, const std::vector<int>& labels) const {
  const tensor::Tensor probs = softmax_rows(forward(x));
  const std::int64_t batch = probs.dim(0);
  double loss_sum = 0.0;
  for (std::int64_t i = 0; i < batch; ++i)
    loss_sum += -std::log(std::max(probs.at(i, labels[static_cast<std::size_t>(i)]), 1e-12F));
  return loss_sum / static_cast<double>(batch);
}

double Mlp::accuracy(const tensor::Tensor& x, const std::vector<int>& labels) const {
  const tensor::Tensor logits = forward(x);
  const std::int64_t batch = logits.dim(0);
  const std::int64_t classes = logits.dim(1);
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < batch; ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < classes; ++j)
      if (logits.at(i, j) > logits.at(i, best)) best = j;
    if (best == labels[static_cast<std::size_t>(i)]) ++correct;
  }
  return batch > 0 ? static_cast<double>(correct) / static_cast<double>(batch) : 0.0;
}

}  // namespace gradcomp::train
