#include "compress/dgc.hpp"

#include "compress/state_io.hpp"

#include <cmath>
#include <stdexcept>

#include "compress/topk_compressor.hpp"
#include "stats/timer.hpp"

namespace gradcomp::compress {

DgcCompressor::DgcCompressor(double fraction, double momentum)
    : fraction_(fraction), momentum_(momentum) {
  if (!(fraction > 0.0) || fraction > 1.0)
    throw std::invalid_argument("DgcCompressor: fraction must be in (0, 1]");
  if (momentum < 0.0 || momentum >= 1.0)
    throw std::invalid_argument("DgcCompressor: momentum must be in [0, 1)");
}

std::string DgcCompressor::name() const {
  const int pct = static_cast<int>(std::lround(fraction_ * 100.0));
  return "dgc-" + std::to_string(pct) + "%";
}

std::int64_t DgcCompressor::k_for(std::int64_t numel) const {
  if (numel == 0) return 0;
  const auto k = static_cast<std::int64_t>(std::ceil(fraction_ * static_cast<double>(numel)));
  return std::clamp<std::int64_t>(k, 1, numel);
}

std::size_t DgcCompressor::compressed_bytes(const tensor::Shape& shape) const {
  const std::int64_t k = k_for(tensor::shape_numel(shape));
  return sizeof(std::int64_t) +
         static_cast<std::size_t>(k) * (sizeof(std::int32_t) + sizeof(float));
}

DgcCompressor::LayerState& DgcCompressor::state_for(LayerId layer, const tensor::Shape& shape) {
  auto& state = states_[layer];
  if (!state.initialized) {
    state.velocity = tensor::Tensor(shape);
    state.accumulation = tensor::Tensor(shape);
    state.initialized = true;
  }
  return state;
}

const tensor::TopKResult& DgcCompressor::select_and_clear(LayerId layer,
                                                          const tensor::Tensor& grad) {
  LayerState& state = state_for(layer, grad.shape());
  // Momentum correction: u = m*u + g; accumulation: v = v + u.
  state.velocity.scale(static_cast<float>(momentum_));
  state.velocity.add_(grad);
  state.accumulation.add_(state.velocity);

  tensor::top_k_abs_into(state.accumulation.data(), k_for(grad.numel()), sparse_, &workspace_);

  // Transmitted coordinates stop accumulating (both u and v are cleared
  // there, per the reference implementation's masking).
  auto acc = state.accumulation.data();
  auto vel = state.velocity.data();
  for (auto idx : sparse_.indices) {
    acc[static_cast<std::size_t>(idx)] = 0.0F;
    vel[static_cast<std::size_t>(idx)] = 0.0F;
  }
  return sparse_;
}

AggregateStats DgcCompressor::aggregate(LayerId layer, int rank, comm::ThreadComm& comm,
                                        tensor::Tensor& grad) {
  AggregateStats stats;
  stats.bytes_sent = compressed_bytes(grad.shape());

  stats::WallTimer encode_timer;
  const auto payload = TopKCompressor::serialize(select_and_clear(layer, grad));
  stats.encode_seconds = encode_timer.seconds();

  const auto gathered = comm.allgather(rank, payload);

  stats::WallTimer decode_timer;
  TopKCompressor::decode_mean(gathered, /*half_values=*/false, grad.data(), touched_);
  stats.decode_seconds = decode_timer.seconds();
  return stats;
}

tensor::Tensor DgcCompressor::roundtrip(LayerId layer, const tensor::Tensor& grad) {
  tensor::Tensor out(grad.shape());
  tensor::scatter(select_and_clear(layer, grad), out.data());
  return out;
}

std::vector<std::byte> DgcCompressor::serialize_state() const {
  tensor::ByteWriter writer;
  writer.u64(states_.size());
  for (const LayerId key : detail::sorted_keys(states_)) {
    const LayerState& state = states_.at(key);
    writer.i64(key);
    writer.tensor(state.velocity);
    writer.tensor(state.accumulation);
  }
  return writer.take();
}

void DgcCompressor::restore_state(std::span<const std::byte> bytes) {
  tensor::ByteReader reader(bytes, name() + " state");
  std::unordered_map<LayerId, LayerState> states;
  const std::uint64_t count = reader.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const LayerId key = reader.i64();
    LayerState state;
    state.velocity = reader.tensor();
    state.accumulation = reader.tensor();
    state.initialized = true;
    states.emplace(key, std::move(state));
  }
  reader.expect_done();
  states_ = std::move(states);
}


}  // namespace gradcomp::compress
