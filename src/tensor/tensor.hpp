// Dense float32 tensor: the value type every compressor and the trainer
// operate on.
//
// Deliberately minimal: contiguous row-major storage, explicit shape,
// value semantics, no views/strides. Gradient compression only ever needs
// (a) the flat vector and (b) a 2-D matricized view of a layer's gradient
// (PowerSGD/ATOMO reshape 4-D conv kernels to 2-D, Section 2.1), and
// `reshape` covers both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gradcomp::tensor {

class Rng;

using Shape = std::vector<std::int64_t>;

// Product of the dimensions. Throws std::invalid_argument on a negative
// dimension and std::overflow_error if the product overflows int64.
[[nodiscard]] std::int64_t shape_numel(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;
  // Zero-initialized tensor of the given shape. Throws on negative dims.
  explicit Tensor(Shape shape);
  // Wraps existing data; data.size() must equal the shape's element count.
  Tensor(Shape shape, std::vector<float> data);

  [[nodiscard]] static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  [[nodiscard]] static Tensor full(Shape shape, float value);
  // i.i.d. N(0,1) entries.
  [[nodiscard]] static Tensor randn(Shape shape, Rng& rng);
  // i.i.d. U[lo,hi) entries.
  [[nodiscard]] static Tensor rand_uniform(Shape shape, Rng& rng, float lo = 0.0F,
                                           float hi = 1.0F);

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t ndim() const noexcept { return shape_.size(); }
  [[nodiscard]] std::int64_t numel() const noexcept {
    return static_cast<std::int64_t>(data_.size());
  }
  [[nodiscard]] std::size_t byte_size() const noexcept { return data_.size() * sizeof(float); }
  [[nodiscard]] std::int64_t dim(std::size_t axis) const;

  [[nodiscard]] std::span<float> data() noexcept { return data_; }
  [[nodiscard]] std::span<const float> data() const noexcept { return data_; }

  // Flat element access (bounds-checked).
  [[nodiscard]] float& at(std::int64_t i);
  [[nodiscard]] float at(std::int64_t i) const;
  // 2-D element access; requires ndim()==2.
  [[nodiscard]] float& at(std::int64_t r, std::int64_t c);
  [[nodiscard]] float at(std::int64_t r, std::int64_t c) const;

  // Returns a copy with a new shape; element count must match. One dim may be
  // -1 (inferred). Storage is row-major contiguous, so this is a metadata op
  // plus a copy.
  [[nodiscard]] Tensor reshape(Shape new_shape) const;
  // Matricize to 2-D: first axis kept as rows, remaining axes flattened to
  // columns. This is the conv-kernel flattening PowerSGD/ATOMO use.
  [[nodiscard]] Tensor matricize() const;

  void fill(float value) noexcept;
  // this += alpha * other; shapes (element counts) must match.
  void axpy(float alpha, const Tensor& other);
  void scale(float alpha) noexcept;
  void add_(const Tensor& other) { axpy(1.0F, other); }
  void sub_(const Tensor& other) { axpy(-1.0F, other); }

  [[nodiscard]] double l2_norm() const noexcept;
  [[nodiscard]] double linf_norm() const noexcept;
  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] double l1_norm() const noexcept;

  [[nodiscard]] bool same_shape(const Tensor& other) const noexcept {
    return shape_ == other.shape_;
  }

 private:
  Shape shape_;
  std::vector<float> data_;
};

// Elementwise out-of-place helpers.
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor sub(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor scaled(const Tensor& a, float alpha);

// max |a_i - b_i|; shapes must match.
[[nodiscard]] double max_abs_diff(const Tensor& a, const Tensor& b);
// Relative L2 reconstruction error ||a-b|| / max(||b||, eps).
[[nodiscard]] double relative_l2_error(const Tensor& approx, const Tensor& reference);

}  // namespace gradcomp::tensor
