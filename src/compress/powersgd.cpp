#include "compress/powersgd.hpp"

#include "compress/state_io.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "stats/timer.hpp"
#include "tensor/linalg.hpp"
#include "tensor/rng.hpp"

namespace gradcomp::compress {

PowerSgdCompressor::PowerSgdCompressor(int rank, bool warm_start, std::uint64_t seed)
    : rank_(rank), warm_start_(warm_start), seed_(seed) {
  if (rank < 1) throw std::invalid_argument("PowerSgdCompressor: rank must be >= 1");
}

std::string PowerSgdCompressor::name() const {
  return "powersgd-r" + std::to_string(rank_);
}

int PowerSgdCompressor::effective_rank(std::int64_t m, std::int64_t n) const {
  return static_cast<int>(std::min<std::int64_t>({rank_, m, n}));
}

std::size_t PowerSgdCompressor::compressed_bytes(const tensor::Shape& shape) const {
  // Matricized view of this shape.
  const std::int64_t numel = tensor::shape_numel(shape);
  if (numel == 0) return 0;
  const std::int64_t m = shape.empty() ? numel : shape.front();
  const std::int64_t n = m > 0 ? numel / m : 0;
  if (m <= 1 || n <= 1) return static_cast<std::size_t>(numel) * sizeof(float);
  const int r = effective_rank(m, n);
  return static_cast<std::size_t>(m + n) * static_cast<std::size_t>(r) * sizeof(float);
}

PowerSgdCompressor::LayerState& PowerSgdCompressor::state_for(LayerId layer, std::int64_t m,
                                                              std::int64_t n) {
  auto& state = states_[layer];
  if (!state.initialized) {
    const int r = effective_rank(m, n);
    // Same seed on every rank -> identical cold-start Q, a correctness
    // requirement for the distributed power iteration.
    tensor::Rng rng(seed_ ^ (static_cast<std::uint64_t>(layer) * 0x9E3779B97F4A7C15ULL));
    state.q = tensor::Tensor::randn({n, r}, rng);
    tensor::orthonormalize_columns(state.q);
    state.residual = tensor::Tensor({m, n});
    state.initialized = true;
  }
  return state;
}

void PowerSgdCompressor::matricize_into(const tensor::Tensor& grad, std::int64_t m,
                                        std::int64_t n, tensor::Tensor& out) {
  // Row-major flattening: the matricized view has identical flat data, so
  // this is a copy into reused storage (no per-step allocation once shaped).
  if (out.ndim() != 2 || out.dim(0) != m || out.dim(1) != n) out = tensor::Tensor({m, n});
  std::copy(grad.data().begin(), grad.data().end(), out.data().begin());
}

AggregateStats PowerSgdCompressor::aggregate(LayerId layer, int rank, comm::ThreadComm& comm,
                                             tensor::Tensor& grad) {
  AggregateStats stats;
  const float inv_p = 1.0F / static_cast<float>(comm.world_size());

  const std::int64_t m = grad.ndim() == 0 ? grad.numel() : grad.shape().front();
  const std::int64_t n = m > 0 ? grad.numel() / m : 1;
  if (m <= 1 || n <= 1) {
    // 1-D parameter: not worth factoring; plain averaged all-reduce.
    comm.allreduce_sum(rank, grad.data());
    grad.scale(inv_p);
    stats.bytes_sent = grad.byte_size();
    return stats;
  }

  auto& state = state_for(layer, m, n);
  stats.bytes_sent = compressed_bytes(grad.shape());

  // --- Encode (left factor): M = grad + residual, P = M Q.
  stats::WallTimer encode_timer;
  matricize_into(grad, m, n, state.mat);
  state.mat.add_(state.residual);
  tensor::matmul_into(state.mat, state.q, tensor::Transpose::kNo, tensor::Transpose::kNo,
                      state.p);
  stats.encode_seconds = encode_timer.seconds();

  comm.allreduce_sum(rank, state.p.data());
  state.p.scale(inv_p);

  // --- Encode (right factor): orthonormalize P, Q = M^T P.
  encode_timer.reset();
  tensor::orthonormalize_columns(state.p);
  tensor::matmul_into(state.mat, state.p, tensor::Transpose::kYes, tensor::Transpose::kNo,
                      state.q_new);
  stats.encode_seconds += encode_timer.seconds();

  comm.allreduce_sum(rank, state.q_new.data());
  state.q_new.scale(inv_p);

  // --- Decode: low-rank reconstruction + error-feedback update.
  stats::WallTimer decode_timer;
  tensor::matmul_into(state.p, state.q_new, tensor::Transpose::kNo, tensor::Transpose::kYes,
                      state.decoded);
  // residual = (grad + old residual) - decoded, written in place.
  state.residual = state.mat;
  state.residual.sub_(state.decoded);
  if (warm_start_) state.q = state.q_new;
  std::copy(state.decoded.data().begin(), state.decoded.data().end(), grad.data().begin());
  stats.decode_seconds = decode_timer.seconds();
  return stats;
}

tensor::Tensor PowerSgdCompressor::roundtrip(LayerId layer, const tensor::Tensor& grad) {
  const std::int64_t m = grad.ndim() == 0 ? grad.numel() : grad.shape().front();
  const std::int64_t n = m > 0 ? grad.numel() / m : 1;
  if (m <= 1 || n <= 1) return grad;  // transmitted uncompressed

  auto& state = state_for(layer, m, n);
  matricize_into(grad, m, n, state.mat);
  state.mat.add_(state.residual);
  tensor::matmul_into(state.mat, state.q, tensor::Transpose::kNo, tensor::Transpose::kNo,
                      state.p);
  tensor::orthonormalize_columns(state.p);
  tensor::matmul_into(state.mat, state.p, tensor::Transpose::kYes, tensor::Transpose::kNo,
                      state.q_new);
  tensor::matmul_into(state.p, state.q_new, tensor::Transpose::kNo, tensor::Transpose::kYes,
                      state.decoded);
  state.residual = state.mat;
  state.residual.sub_(state.decoded);
  if (warm_start_) state.q = state.q_new;
  return state.decoded.reshape(grad.shape());
}

std::vector<std::byte> PowerSgdCompressor::serialize_state() const {
  tensor::ByteWriter writer;
  writer.u64(states_.size());
  for (const LayerId key : detail::sorted_keys(states_)) {
    const LayerState& state = states_.at(key);
    writer.i64(key);
    writer.tensor(state.q);
    writer.tensor(state.residual);
  }
  return writer.take();
}

void PowerSgdCompressor::restore_state(std::span<const std::byte> bytes) {
  tensor::ByteReader reader(bytes, name() + " state");
  std::unordered_map<LayerId, LayerState> states;
  const std::uint64_t count = reader.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const LayerId key = reader.i64();
    LayerState state;
    state.q = reader.tensor();
    state.residual = reader.tensor();
    // Scratch tensors (mat, p, q_new, decoded) are re-sized on demand by
    // matricize_into / matmul_into.
    state.initialized = true;
    states.emplace(key, std::move(state));
  }
  reader.expect_done();
  states_ = std::move(states);
}

std::vector<std::byte> PowerSgdCompressor::serialize_shared_state() const {
  tensor::ByteWriter writer;
  writer.u64(states_.size());
  for (const LayerId key : detail::sorted_keys(states_)) {
    const LayerState& state = states_.at(key);
    writer.i64(key);
    // The residual shape (m x n) is not derivable from Q (n x r) alone, so
    // carry m explicitly; the joiner's residual is a fresh zero tensor.
    writer.i64(state.residual.dim(0));
    writer.tensor(state.q);
  }
  return writer.take();
}

void PowerSgdCompressor::restore_shared_state(std::span<const std::byte> bytes) {
  tensor::ByteReader reader(bytes, name() + " shared state");
  std::unordered_map<LayerId, LayerState> states;
  const std::uint64_t count = reader.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const LayerId key = reader.i64();
    const std::int64_t m = reader.i64();
    LayerState state;
    state.q = reader.tensor();
    if (state.q.ndim() != 2)
      throw std::runtime_error(name() + " shared state: Q is not a matrix");
    const std::int64_t n = state.q.dim(0);
    if (m < 1 || (n > 0 && m > std::numeric_limits<std::int64_t>::max() / n))
      throw std::runtime_error(name() + " shared state: corrupt residual row count");
    state.residual = tensor::Tensor({m, n});  // zero error feedback
    state.initialized = true;
    states.emplace(key, std::move(state));
  }
  reader.expect_done();
  states_ = std::move(states);
}

}  // namespace gradcomp::compress
