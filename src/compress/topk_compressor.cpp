#include "compress/topk_compressor.hpp"

#include "compress/state_io.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "stats/timer.hpp"
#include "tensor/half.hpp"

namespace gradcomp::compress {

TopKCompressor::TopKCompressor(double fraction, bool error_feedback, bool fp16_values)
    : fraction_(fraction), error_feedback_(error_feedback), fp16_values_(fp16_values) {
  if (!(fraction > 0.0) || fraction > 1.0)
    throw std::invalid_argument("TopKCompressor: fraction must be in (0, 1]");
}

std::string TopKCompressor::name() const {
  const int pct = static_cast<int>(std::lround(fraction_ * 100.0));
  std::string base = "topk-" + std::to_string(pct) + "%";
  if (fp16_values_) base += "-fp16";
  return error_feedback_ ? "ef-" + base : base;
}

std::int64_t TopKCompressor::k_for(std::int64_t numel) const {
  if (numel == 0) return 0;
  const auto k = static_cast<std::int64_t>(std::ceil(fraction_ * static_cast<double>(numel)));
  return std::clamp<std::int64_t>(k, 1, numel);
}

std::size_t TopKCompressor::compressed_bytes(const tensor::Shape& shape) const {
  const std::int64_t k = k_for(tensor::shape_numel(shape));
  // int32 index + fp32 (or fp16) value per kept coordinate, plus the header.
  const std::size_t value_bytes = fp16_values_ ? sizeof(std::uint16_t) : sizeof(float);
  return sizeof(std::int64_t) +
         static_cast<std::size_t>(k) * (sizeof(std::int32_t) + value_bytes);
}

std::vector<std::byte> TopKCompressor::serialize(const tensor::TopKResult& sparse) {
  const auto k = static_cast<std::int64_t>(sparse.indices.size());
  std::vector<std::byte> out(sizeof(std::int64_t) +
                             static_cast<std::size_t>(k) * (sizeof(std::int32_t) + sizeof(float)));
  std::byte* p = out.data();
  std::memcpy(p, &k, sizeof(k));
  p += sizeof(k);
  for (auto idx : sparse.indices) {
    const auto idx32 = static_cast<std::int32_t>(idx);
    std::memcpy(p, &idx32, sizeof(idx32));
    p += sizeof(idx32);
  }
  // memcpy's pointers must be non-null even for zero bytes.
  if (!sparse.values.empty())
    std::memcpy(p, sparse.values.data(), sparse.values.size() * sizeof(float));
  return out;
}

namespace {

// Reads the [k:int64][indices:int32*k] prefix both wire formats share into
// `sparse` and returns the start of the k values. k is checked against the
// payload size before it is multiplied, and every index against [0, n).
const std::byte* read_sparse_prefix(std::span<const std::byte> bytes, std::int64_t n,
                                    std::size_t value_bytes, const char* who,
                                    tensor::TopKResult& sparse) {
  if (bytes.size() < sizeof(std::int64_t))
    throw std::invalid_argument(std::string(who) + ": truncated payload");
  std::int64_t k = 0;
  std::memcpy(&k, bytes.data(), sizeof(k));
  const std::size_t entry = sizeof(std::int32_t) + value_bytes;
  const std::size_t body = bytes.size() - sizeof(std::int64_t);
  if (k < 0 || static_cast<std::uint64_t>(k) > body / entry ||
      static_cast<std::size_t>(k) * entry != body)
    throw std::invalid_argument(std::string(who) + ": corrupt payload");
  sparse.indices.resize(static_cast<std::size_t>(k));
  sparse.values.resize(static_cast<std::size_t>(k));
  const std::byte* p = bytes.data() + sizeof(k);
  for (std::size_t i = 0; i < sparse.indices.size(); ++i) {
    std::int32_t idx32 = 0;
    std::memcpy(&idx32, p, sizeof(idx32));
    p += sizeof(idx32);
    if (idx32 < 0 || idx32 >= n)
      throw std::invalid_argument(std::string(who) + ": index out of range");
    sparse.indices[i] = idx32;
  }
  return p;
}

}  // namespace

tensor::TopKResult TopKCompressor::deserialize(std::span<const std::byte> bytes, std::int64_t n) {
  tensor::TopKResult sparse;
  const std::byte* p =
      read_sparse_prefix(bytes, n, sizeof(float), "TopKCompressor::deserialize", sparse);
  if (!sparse.values.empty())
    std::memcpy(sparse.values.data(), p, sparse.values.size() * sizeof(float));
  return sparse;
}

std::vector<std::byte> TopKCompressor::serialize_half(const tensor::TopKResult& sparse) {
  const auto k = static_cast<std::int64_t>(sparse.indices.size());
  std::vector<std::byte> out(sizeof(std::int64_t) + static_cast<std::size_t>(k) *
                                                        (sizeof(std::int32_t) +
                                                         sizeof(std::uint16_t)));
  std::byte* p = out.data();
  std::memcpy(p, &k, sizeof(k));
  p += sizeof(k);
  for (auto idx : sparse.indices) {
    const auto idx32 = static_cast<std::int32_t>(idx);
    std::memcpy(p, &idx32, sizeof(idx32));
    p += sizeof(idx32);
  }
  const auto halves = tensor::to_half(sparse.values);
  if (!halves.empty()) std::memcpy(p, halves.data(), halves.size() * sizeof(std::uint16_t));
  return out;
}

tensor::TopKResult TopKCompressor::deserialize_half(std::span<const std::byte> bytes,
                                                    std::int64_t n) {
  tensor::TopKResult sparse;
  const std::byte* p = read_sparse_prefix(bytes, n, sizeof(std::uint16_t),
                                          "TopKCompressor::deserialize_half", sparse);
  std::vector<std::uint16_t> halves(sparse.values.size());
  if (!halves.empty()) std::memcpy(halves.data(), p, halves.size() * sizeof(std::uint16_t));
  tensor::from_half(halves, sparse.values);
  return sparse;
}

std::vector<std::byte> TopKCompressor::encode(const tensor::TopKResult& sparse) const {
  return fp16_values_ ? serialize_half(sparse) : serialize(sparse);
}

tensor::TopKResult TopKCompressor::decode(std::span<const std::byte> bytes,
                                          std::int64_t n) const {
  return fp16_values_ ? deserialize_half(bytes, n) : deserialize(bytes, n);
}

std::vector<std::byte> TopKCompressor::select_and_encode(LayerId layer,
                                                         const tensor::Tensor& grad) {
  std::span<const float> work = grad.data();
  tensor::Tensor* residual = nullptr;
  if (error_feedback_) {
    const auto [it, fresh] = residuals_.try_emplace(layer);
    residual = &it->second;
    if (fresh) {
      *residual = grad;  // a copy, so a -0.0 gradient stays -0.0
    } else {
      if (residual->numel() != grad.numel())
        throw std::invalid_argument("TopKCompressor: residual size mismatch");
      const auto g = grad.data();
      const auto r = residual->data();
      for (std::size_t i = 0; i < r.size(); ++i) r[i] = g[i] + r[i];
    }
    work = residual->data();
  }
  tensor::top_k_abs_into(work, k_for(grad.numel()), sparse_scratch_, &workspace_);
  auto payload = encode(sparse_scratch_);
  if (residual != nullptr) {
    // What was sent leaves the residual. A kept value is sent exactly, and
    // x - x == +0 for finite x, so it is zeroed; fp16 mode subtracts the
    // rounded value the receivers decode.
    const auto r = residual->data();
    for (std::size_t j = 0; j < sparse_scratch_.indices.size(); ++j) {
      float& slot = r[static_cast<std::size_t>(sparse_scratch_.indices[j])];
      slot = fp16_values_
                 ? slot - tensor::half_to_float(tensor::float_to_half(sparse_scratch_.values[j]))
                 : 0.0F;
    }
  }
  return payload;
}

AggregateStats TopKCompressor::aggregate(LayerId layer, int rank, comm::ThreadComm& comm,
                                         tensor::Tensor& grad) {
  AggregateStats stats;
  const std::int64_t n = grad.numel();
  stats.bytes_sent = compressed_bytes(grad.shape());

  stats::WallTimer encode_timer;
  const auto payload = select_and_encode(layer, grad);
  stats.encode_seconds = encode_timer.seconds();

  // Not all-reduce compatible: gather everyone's sparse payload. Memory and
  // decode work grow linearly with p (the paper's BERT runs OOM past 32
  // GPUs for exactly this reason).
  const auto gathered = comm.allgather(rank, payload);

  stats::WallTimer decode_timer;
  grad.fill(0.0F);
  auto out = grad.data();
  for (const auto& msg : gathered) {
    const auto remote = decode(msg, n);
    for (std::size_t j = 0; j < remote.indices.size(); ++j)
      out[static_cast<std::size_t>(remote.indices[j])] += remote.values[j];
  }
  grad.scale(1.0F / static_cast<float>(comm.world_size()));
  stats.decode_seconds = decode_timer.seconds();
  return stats;
}

tensor::Tensor TopKCompressor::roundtrip(LayerId layer, const tensor::Tensor& grad) {
  const auto payload = select_and_encode(layer, grad);
  tensor::Tensor kept(grad.shape());
  tensor::scatter(decode(payload, grad.numel()), kept.data());
  return kept;
}

std::vector<std::byte> TopKCompressor::serialize_state() const {
  tensor::ByteWriter writer;
  detail::write_tensor_map(writer, residuals_);
  return writer.take();
}

void TopKCompressor::restore_state(std::span<const std::byte> bytes) {
  tensor::ByteReader reader(bytes, name() + " state");
  residuals_ = detail::read_tensor_map(reader);
  reader.expect_done();
}


}  // namespace gradcomp::compress
