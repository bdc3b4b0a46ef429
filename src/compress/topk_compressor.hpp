// TOP-K sparsification (Aji & Heafield), the paper's representative
// sparsification method.
//
// Each rank keeps only the k = fraction*n coordinates largest in magnitude
// and transmits (index, value) pairs. Different ranks keep different
// coordinates, so the aggregation is not associative in compressed form:
// it requires an all-gather, and — as the paper stresses — the encode cost
// is a selection over the FULL gradient, which is why even TopK-1% shows
// 240+ ms encode times on ResNet-50 (Table 2) and no speedup (Figure 5).
#pragma once

#include <unordered_map>

#include "compress/compressor.hpp"
#include "tensor/topk.hpp"

namespace gradcomp::compress {

class TopKCompressor final : public Compressor {
 public:
  // fraction in (0, 1]: share of coordinates kept. fp16_values transmits the
  // kept values in half precision (sparsification composed with
  // quantization), 6 bytes per entry instead of 8.
  explicit TopKCompressor(double fraction, bool error_feedback = false,
                          bool fp16_values = false);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Traits traits() const override {
    return Traits{false, true, "sparsification"};
  }
  [[nodiscard]] std::size_t compressed_bytes(const tensor::Shape& shape) const override;

  AggregateStats aggregate(LayerId layer, int rank, comm::ThreadComm& comm,
                           tensor::Tensor& grad) override;
  [[nodiscard]] tensor::Tensor roundtrip(LayerId layer, const tensor::Tensor& grad) override;
  [[nodiscard]] std::vector<std::byte> serialize_state() const override;
  void restore_state(std::span<const std::byte> bytes) override;

  [[nodiscard]] std::int64_t k_for(std::int64_t numel) const;

  // Wire serialization (exposed for tests): [k:int64][indices:int32*k][values:float*k].
  // The decoders take the element count n of the dense gradient and throw
  // std::invalid_argument on a payload whose size does not match its k or
  // that holds an index outside [0, n).
  [[nodiscard]] static std::vector<std::byte> serialize(const tensor::TopKResult& sparse);
  [[nodiscard]] static tensor::TopKResult deserialize(std::span<const std::byte> bytes,
                                                      std::int64_t n);
  // Half-precision value variant: [k:int64][indices:int32*k][values:half*k].
  [[nodiscard]] static std::vector<std::byte> serialize_half(const tensor::TopKResult& sparse);
  [[nodiscard]] static tensor::TopKResult deserialize_half(std::span<const std::byte> bytes,
                                                           std::int64_t n);

  // The decode of TopK (either value format) and DGC. Writes the mean of
  // the gathered payloads over `out`: zero-fills it, adds each payload's
  // values at its indices straight from the wire in rank order, then
  // multiplies each coordinate a payload touched by 1/p once, p =
  // payloads.size(). That is memcmp-equal to fill -> scatter-add -> dense
  // scale, since an untouched +0 equals +0 * (1/p). A repeated index adds
  // twice. Each payload is validated as the deserializers validate it, with
  // n = out.size(). `touched` is scratch, one bit per coordinate.
  static void decode_mean(std::span<const std::vector<std::byte>> payloads, bool half_values,
                          std::span<float> out, std::vector<std::uint64_t>& touched);

 private:
  // Selects the top-k of the gradient (plus, with error feedback, the
  // layer's residual, which accumulates the gradient in place in the
  // selection's filter pass) into sparse_scratch_ and returns its payload.
  // The residual then keeps what the selection, and in fp16 mode the value
  // rounding, dropped. A sent coordinate whose decoded value is not finite
  // (a NaN, ±Inf, or an fp16 overflow) leaves +0 in the residual in both
  // formats: it was sent, and x - x is not 0 for it.
  [[nodiscard]] std::vector<std::byte> select_and_encode(LayerId layer,
                                                         const tensor::Tensor& grad);
  [[nodiscard]] std::vector<std::byte> encode(const tensor::TopKResult& sparse) const;
  [[nodiscard]] tensor::TopKResult decode(std::span<const std::byte> bytes,
                                          std::int64_t n) const;

  double fraction_;
  bool error_feedback_;
  bool fp16_values_;
  std::unordered_map<LayerId, tensor::Tensor> residuals_;
  // Selection scratch, reused result storage and the decode's bitmap: in
  // steady state the payloads are the only per-step allocations.
  tensor::Workspace workspace_;
  tensor::TopKResult sparse_scratch_;
  std::vector<std::uint64_t> touched_;
};

}  // namespace gradcomp::compress
