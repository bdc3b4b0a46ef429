#include "tensor/serial.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace gradcomp::tensor {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFU;
  for (const std::byte b : bytes)
    c = table[(c ^ static_cast<std::uint32_t>(b)) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFFU));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFFU));
}

void ByteWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void ByteWriter::f64(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  u64(bits);
}

void ByteWriter::bytes(std::span<const std::byte> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void ByteWriter::floats(std::span<const float> values) {
  const auto* raw = reinterpret_cast<const std::byte*>(values.data());
  out_.insert(out_.end(), raw, raw + values.size() * sizeof(float));
}

void ByteWriter::blob(std::span<const std::byte> data) {
  u64(data.size());
  bytes(data);
}

void ByteWriter::tensor(const Tensor& t) {
  u32(static_cast<std::uint32_t>(t.ndim()));
  for (const std::int64_t d : t.shape()) i64(d);
  floats(t.data());
}

ByteReader::ByteReader(std::span<const std::byte> data, std::string context)
    : data_(data), context_(std::move(context)) {}

void ByteReader::need(std::size_t n) const {
  if (pos_ + n > data_.size()) throw std::runtime_error(context_ + ": truncated input");
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
  pos_ += 8;
  return v;
}

std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void ByteReader::floats(std::span<float> out) {
  need(out.size() * sizeof(float));
  // memcpy's pointers must be non-null even for zero bytes (an empty tensor).
  if (!out.empty()) std::memcpy(out.data(), data_.data() + pos_, out.size() * sizeof(float));
  pos_ += out.size() * sizeof(float);
}

std::vector<std::byte> ByteReader::blob() {
  const std::uint64_t len = u64();
  need(len);
  std::vector<std::byte> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                             data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return out;
}

Tensor ByteReader::tensor() {
  const std::uint32_t ndim = u32();
  if (ndim > 8) throw std::runtime_error(context_ + ": implausible tensor rank");
  Shape shape(ndim);
  for (auto& d : shape) {
    d = i64();
    if (d < 0) throw std::runtime_error(context_ + ": negative tensor dimension");
  }
  // The payload must hold every declared float. Checked by division before
  // anything is allocated, so a huge product can neither wrap nor allocate.
  if (std::find(shape.begin(), shape.end(), 0) == shape.end()) {
    const std::uint64_t room = remaining() / sizeof(float);
    std::uint64_t numel = 1;
    for (const auto d : shape) {
      if (static_cast<std::uint64_t>(d) > room / numel)
        throw std::runtime_error(context_ + ": tensor larger than its payload");
      numel *= static_cast<std::uint64_t>(d);
    }
  }
  Tensor t(shape);
  floats(t.data());
  return t;
}

void ByteReader::expect_done() const {
  if (!done()) throw std::runtime_error(context_ + ": trailing bytes after payload");
}

}  // namespace gradcomp::tensor
