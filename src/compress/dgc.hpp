// DEEP GRADIENT COMPRESSION (Lin et al.), the last unimplemented row of the
// paper's Table 1.
//
// DGC sparsifies like Top-K but adds two corrections that preserve accuracy
// at extreme sparsity: momentum correction (a local velocity accumulator is
// compressed instead of the raw gradient) and gradient accumulation (what
// isn't sent keeps accumulating locally — error feedback on the velocity).
// Aggregation is an all-gather of (index, value) pairs: Table 1 classifies
// DGC as NOT all-reduce compatible.
#pragma once

#include <unordered_map>

#include "compress/compressor.hpp"
#include "tensor/topk.hpp"

namespace gradcomp::compress {

class DgcCompressor final : public Compressor {
 public:
  // fraction: share of coordinates transmitted per step; momentum: velocity
  // decay (the reference implementation uses 0.9).
  explicit DgcCompressor(double fraction, double momentum = 0.9);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Traits traits() const override {
    return Traits{false, true, "sparsification"};
  }
  [[nodiscard]] std::size_t compressed_bytes(const tensor::Shape& shape) const override;

  AggregateStats aggregate(LayerId layer, int rank, comm::ThreadComm& comm,
                           tensor::Tensor& grad) override;
  [[nodiscard]] tensor::Tensor roundtrip(LayerId layer, const tensor::Tensor& grad) override;
  // Persists the per-layer velocity and accumulation buffers.
  [[nodiscard]] std::vector<std::byte> serialize_state() const override;
  void restore_state(std::span<const std::byte> bytes) override;

  [[nodiscard]] std::int64_t k_for(std::int64_t numel) const;

 private:
  struct LayerState {
    tensor::Tensor velocity;      // momentum-corrected gradient accumulator
    tensor::Tensor accumulation;  // un-transmitted residual of the velocity
    bool initialized = false;
  };
  LayerState& state_for(LayerId layer, const tensor::Shape& shape);
  // Runs momentum correction + accumulation and selects the coordinates to
  // transmit into sparse_; zeroes the transmitted coordinates in both
  // accumulators.
  [[nodiscard]] const tensor::TopKResult& select_and_clear(LayerId layer,
                                                           const tensor::Tensor& grad);

  double fraction_;
  double momentum_;
  std::unordered_map<LayerId, LayerState> states_;
  // Selection scratch, result storage and the decode's bitmap, reused
  // across steps.
  tensor::Workspace workspace_;
  tensor::TopKResult sparse_;
  std::vector<std::uint64_t> touched_;
};

}  // namespace gradcomp::compress
