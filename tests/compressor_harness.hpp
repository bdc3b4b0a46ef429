// Shared test harness: runs a compressor's distributed aggregation across p
// in-process ranks with persistent per-rank compressor state (needed for
// warm-start / error-feedback tests spanning multiple rounds).
#pragma once

#include <memory>
#include <vector>

#include "comm/thread_comm.hpp"
#include "compress/compressor.hpp"
#include "compress/topk_compressor.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace gradcomp::testing {

class MultiRankHarness {
 public:
  MultiRankHarness(const compress::CompressorConfig& config, int world_size)
      : comm_(world_size) {
    compressors_.reserve(static_cast<std::size_t>(world_size));
    for (int r = 0; r < world_size; ++r)
      compressors_.push_back(compress::make_compressor(config));
  }

  [[nodiscard]] int world_size() const { return comm_.world_size(); }
  [[nodiscard]] compress::Compressor& compressor(int rank) {
    return *compressors_.at(static_cast<std::size_t>(rank));
  }

  // Runs one collective aggregation round; returns the per-rank results and
  // the per-rank stats.
  std::vector<tensor::Tensor> aggregate(compress::LayerId layer,
                                        std::vector<tensor::Tensor> grads,
                                        std::vector<compress::AggregateStats>* stats = nullptr) {
    const int p = comm_.world_size();
    if (static_cast<int>(grads.size()) != p)
      throw std::invalid_argument("MultiRankHarness: need one gradient per rank");
    std::vector<compress::AggregateStats> local(static_cast<std::size_t>(p));
    comm::run_ranks(p, [&](int rank) {
      const auto r = static_cast<std::size_t>(rank);
      local[r] = compressors_[r]->aggregate(layer, rank, comm_, grads[r]);
    });
    if (stats != nullptr) *stats = std::move(local);
    return grads;
  }

 private:
  comm::ThreadComm comm_;
  std::vector<std::unique_ptr<compress::Compressor>> compressors_;
};

// The exact mean of per-rank gradients (the lossless reference).
inline tensor::Tensor exact_mean(const std::vector<tensor::Tensor>& grads) {
  tensor::Tensor mean(grads.front().shape());
  for (const auto& g : grads) mean.add_(g);
  mean.scale(1.0F / static_cast<float>(grads.size()));
  return mean;
}

// The sparse gather's reference decode: a zeroed tensor, each payload's
// values added at its indices in rank order, then a dense scale by 1/p.
inline tensor::Tensor sparse_reference_mean(const std::vector<std::vector<std::byte>>& payloads,
                                            bool half_values, const tensor::Shape& shape) {
  using compress::TopKCompressor;
  tensor::Tensor mean(shape);
  const auto out = mean.data();
  for (const auto& bytes : payloads) {
    const auto sparse = half_values ? TopKCompressor::deserialize_half(bytes, mean.numel())
                                    : TopKCompressor::deserialize(bytes, mean.numel());
    for (std::size_t j = 0; j < sparse.indices.size(); ++j)
      out[static_cast<std::size_t>(sparse.indices[j])] += sparse.values[j];
  }
  mean.scale(1.0F / static_cast<float>(payloads.size()));
  return mean;
}

// Per-rank gradients of n elements whose top 1% overlap: coordinate 7 is
// the largest on every rank, and coordinates 1000-1099 are large on ranks
// 0 and 1.
inline std::vector<tensor::Tensor> overlapping_gradients(int world_size, std::int64_t n,
                                                         tensor::Rng& rng) {
  std::vector<tensor::Tensor> grads;
  for (int r = 0; r < world_size; ++r) {
    tensor::Tensor g = tensor::Tensor::randn({n}, rng);
    g.at(7) = 100.0F + static_cast<float>(r);
    if (r < 2)
      for (std::int64_t i = 1000; i < 1100; ++i) g.at(i) *= 8.0F;
    grads.push_back(std::move(g));
  }
  return grads;
}

}  // namespace gradcomp::testing
