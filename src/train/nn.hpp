// Minimal feed-forward network with manual backpropagation.
//
// This is the real-training substrate: enough of a neural network (linear
// layers, ReLU, softmax cross-entropy) to run genuine data-parallel SGD
// with every compressor in the library and observe convergence — including
// the accuracy-side effects (error feedback fixing signSGD/TopK bias) that
// the paper's timing study deliberately brackets out.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace gradcomp::train {

// One dense layer: y = x W^T + b, with cached activations for backward.
struct LinearLayer {
  tensor::Tensor w;       // {out, in}
  tensor::Tensor b;       // {out}
  tensor::Tensor grad_w;  // same shape as w
  tensor::Tensor grad_b;  // same shape as b
};

class Mlp {
 public:
  // dims = {input, hidden..., classes}; weights get Kaiming-style init from
  // `seed` (identical seed -> identical replicas, as data parallelism
  // requires).
  Mlp(std::vector<std::int64_t> dims, std::uint64_t seed);

  // Forward pass; x is {batch, input}. Returns class logits {batch, classes}.
  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& x) const;

  // Forward + backward on a labeled batch. Fills every layer's gradients
  // (overwriting previous contents, in their existing storage) and returns
  // the mean cross-entropy loss. Activations and deltas live in a per-model
  // workspace, so once a batch size has been seen the call makes no heap
  // allocation when the global pool runs it inline.
  double compute_gradients(const tensor::Tensor& x, const std::vector<int>& labels);

  // Mean cross-entropy of the model on a labeled set (no gradients).
  [[nodiscard]] double loss(const tensor::Tensor& x, const std::vector<int>& labels) const;
  // Top-1 accuracy in [0, 1].
  [[nodiscard]] double accuracy(const tensor::Tensor& x, const std::vector<int>& labels) const;

  [[nodiscard]] std::size_t num_layers() const noexcept { return layers_.size(); }
  [[nodiscard]] std::vector<LinearLayer>& layers() noexcept { return layers_; }
  [[nodiscard]] const std::vector<LinearLayer>& layers() const noexcept { return layers_; }
  [[nodiscard]] std::int64_t num_classes() const noexcept { return dims_.back(); }
  [[nodiscard]] std::int64_t input_dim() const noexcept { return dims_.front(); }

 private:
  std::vector<std::int64_t> dims_;
  std::vector<LinearLayer> layers_;
  // compute_gradients scratch, {batch, out} per layer: acts_[i] is layer
  // i's output (post-ReLU; logits for the last), deltas_[i] the loss
  // gradient with respect to its pre-activation output.
  std::vector<tensor::Tensor> acts_;
  std::vector<tensor::Tensor> deltas_;
};

// Row-wise softmax of logits (numerically stabilized); exposed for tests.
[[nodiscard]] tensor::Tensor softmax_rows(const tensor::Tensor& logits);

}  // namespace gradcomp::train
