#include "compress/topk_compressor.hpp"

#include "compress/state_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

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

constexpr const char* kDecodeFp32 = "TopKCompressor::deserialize";
constexpr const char* kDecodeHalf = "TopKCompressor::deserialize_half";

// Reads the [k:int64] header both wire formats share and returns k, checked
// against the payload size before it is multiplied.
std::size_t checked_count(std::span<const std::byte> bytes, std::size_t value_bytes,
                          const char* who) {
  if (bytes.size() < sizeof(std::int64_t))
    throw std::invalid_argument(std::string(who) + ": truncated payload");
  std::int64_t k = 0;
  std::memcpy(&k, bytes.data(), sizeof(k));
  const std::size_t entry = sizeof(std::int32_t) + value_bytes;
  const std::size_t body = bytes.size() - sizeof(std::int64_t);
  if (k < 0 || static_cast<std::uint64_t>(k) > body / entry ||
      static_cast<std::size_t>(k) * entry != body)
    throw std::invalid_argument(std::string(who) + ": corrupt payload");
  return static_cast<std::size_t>(k);
}

// The j-th entry of a wire array of T (the payload is unaligned).
template <typename T>
T load(const std::byte* array, std::size_t j) {
  T value;
  std::memcpy(&value, array + j * sizeof(T), sizeof(T));
  return value;
}

// The j-th index, checked against [0, n).
std::int64_t load_index(const std::byte* indices, std::size_t j, std::int64_t n,
                        const char* who) {
  const auto i = load<std::int32_t>(indices, j);
  if (i < 0 || i >= n) throw std::invalid_argument(std::string(who) + ": index out of range");
  return i;
}

// Reads the [k:int64][indices:int32*k] prefix both wire formats share into
// `sparse` and returns the start of the k values.
const std::byte* read_sparse_prefix(std::span<const std::byte> bytes, std::int64_t n,
                                    std::size_t value_bytes, const char* who,
                                    tensor::TopKResult& sparse) {
  const std::size_t k = checked_count(bytes, value_bytes, who);
  sparse.indices.resize(k);
  sparse.values.resize(k);
  const std::byte* indices = bytes.data() + sizeof(std::int64_t);
  for (std::size_t j = 0; j < k; ++j) sparse.indices[j] = load_index(indices, j, n, who);
  return indices + k * sizeof(std::int32_t);
}

// Adds one validated payload's values into `out` at its indices.
template <typename Value>
void scatter_add(std::span<const std::byte> bytes, std::span<float> out, const char* who) {
  const std::size_t k = checked_count(bytes, sizeof(Value), who);
  const std::byte* indices = bytes.data() + sizeof(std::int64_t);
  const std::byte* values = indices + k * sizeof(std::int32_t);
  const auto n = static_cast<std::int64_t>(out.size());
  for (std::size_t j = 0; j < k; ++j) {
    const auto i = static_cast<std::size_t>(load_index(indices, j, n, who));
    if constexpr (std::is_same_v<Value, std::uint16_t>)
      out[i] += tensor::half_to_float(load<std::uint16_t>(values, j));
    else
      out[i] += load<float>(values, j);
  }
}

}  // namespace

tensor::TopKResult TopKCompressor::deserialize(std::span<const std::byte> bytes, std::int64_t n) {
  tensor::TopKResult sparse;
  const std::byte* p = read_sparse_prefix(bytes, n, sizeof(float), kDecodeFp32, sparse);
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
  const std::byte* p = read_sparse_prefix(bytes, n, sizeof(std::uint16_t), kDecodeHalf, sparse);
  std::vector<std::uint16_t> halves(sparse.values.size());
  if (!halves.empty()) std::memcpy(halves.data(), p, halves.size() * sizeof(std::uint16_t));
  tensor::from_half(halves, sparse.values);
  return sparse;
}

void TopKCompressor::decode_mean(std::span<const std::vector<std::byte>> payloads,
                                 bool half_values, std::span<float> out,
                                 std::vector<std::uint64_t>& touched) {
  std::fill(out.begin(), out.end(), 0.0F);
  for (const auto& bytes : payloads) {
    if (half_values)
      scatter_add<std::uint16_t>(bytes, out, kDecodeHalf);
    else
      scatter_add<float>(bytes, out, kDecodeFp32);
  }
  // Every payload is valid now. Scale each touched coordinate once.
  const std::size_t entry = sizeof(std::int32_t) + (half_values ? sizeof(std::uint16_t)
                                                                : sizeof(float));
  const float scale = 1.0F / static_cast<float>(payloads.size());
  touched.assign((out.size() + 63) / 64, 0);
  for (const auto& bytes : payloads) {
    const std::size_t k = (bytes.size() - sizeof(std::int64_t)) / entry;
    const std::byte* indices = bytes.data() + sizeof(std::int64_t);
    for (std::size_t j = 0; j < k; ++j) {
      const auto i = static_cast<std::size_t>(load<std::int32_t>(indices, j));
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      if ((touched[i / 64] & bit) != 0) continue;
      touched[i / 64] |= bit;
      out[i] *= scale;
    }
  }
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
  const std::int64_t k = k_for(grad.numel());
  if (!error_feedback_) {
    tensor::top_k_abs_into(grad.data(), k, sparse_scratch_, &workspace_);
    return encode(sparse_scratch_);
  }
  const auto [it, fresh] = residuals_.try_emplace(layer);
  tensor::Tensor& residual = it->second;
  if (fresh) {
    residual = grad;  // a copy, so a -0.0 gradient stays -0.0
    tensor::top_k_abs_into(residual.data(), k, sparse_scratch_, &workspace_);
  } else {
    if (residual.numel() != grad.numel())
      throw std::invalid_argument("TopKCompressor: residual size mismatch");
    tensor::top_k_abs_accumulate_into(grad.data(), residual.data(), k, sparse_scratch_,
                                      &workspace_);
  }
  auto payload = encode(sparse_scratch_);
  // What was sent leaves the residual. A kept value is sent exactly, and
  // x - x == +0 for finite x, so it is zeroed; fp16 mode subtracts the
  // rounded value the receivers decode, unless that is not finite.
  const auto r = residual.data();
  for (std::size_t j = 0; j < sparse_scratch_.indices.size(); ++j) {
    float& slot = r[static_cast<std::size_t>(sparse_scratch_.indices[j])];
    if (!fp16_values_) {
      slot = 0.0F;
      continue;
    }
    const float sent = tensor::half_to_float(tensor::float_to_half(sparse_scratch_.values[j]));
    slot = std::isfinite(sent) ? slot - sent : 0.0F;
  }
  return payload;
}

AggregateStats TopKCompressor::aggregate(LayerId layer, int rank, comm::ThreadComm& comm,
                                         tensor::Tensor& grad) {
  AggregateStats stats;
  stats.bytes_sent = compressed_bytes(grad.shape());

  stats::WallTimer encode_timer;
  const auto payload = select_and_encode(layer, grad);
  stats.encode_seconds = encode_timer.seconds();

  // Not all-reduce compatible: gather everyone's sparse payload. Memory and
  // decode work grow linearly with p (the paper's BERT runs OOM past 32
  // GPUs for exactly this reason).
  const auto gathered = comm.allgather(rank, payload);

  stats::WallTimer decode_timer;
  decode_mean(gathered, fp16_values_, grad.data(), touched_);
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
