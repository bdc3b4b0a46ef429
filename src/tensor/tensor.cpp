#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/rng.hpp"

namespace gradcomp::tensor {

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (auto d : shape) {
    if (d < 0) throw std::invalid_argument("shape_numel: negative dimension");
    if (d != 0 && n > std::numeric_limits<std::int64_t>::max() / d)
      throw std::overflow_error("shape_numel: element count overflows int64");
    n *= d;
  }
  return n;
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<std::size_t>(shape_numel(shape_)), 0.0F);
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (shape_numel(shape_) != static_cast<std::int64_t>(data_.size()))
    throw std::invalid_argument("Tensor: data size does not match shape");
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) x = rng.gaussian();
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) x = rng.uniform(lo, hi);
  return t;
}

std::int64_t Tensor::dim(std::size_t axis) const {
  if (axis >= shape_.size()) throw std::out_of_range("Tensor::dim: axis out of range");
  return shape_[axis];
}

float& Tensor::at(std::int64_t i) {
  if (i < 0 || i >= numel()) throw std::out_of_range("Tensor::at: index out of range");
  return data_[static_cast<std::size_t>(i)];
}

float Tensor::at(std::int64_t i) const {
  if (i < 0 || i >= numel()) throw std::out_of_range("Tensor::at: index out of range");
  return data_[static_cast<std::size_t>(i)];
}

float& Tensor::at(std::int64_t r, std::int64_t c) {
  if (ndim() != 2) throw std::logic_error("Tensor::at(r,c): tensor is not 2-D");
  if (r < 0 || r >= shape_[0] || c < 0 || c >= shape_[1])
    throw std::out_of_range("Tensor::at(r,c): index out of range");
  return data_[static_cast<std::size_t>(r * shape_[1] + c)];
}

float Tensor::at(std::int64_t r, std::int64_t c) const {
  return const_cast<Tensor*>(this)->at(r, c);
}

Tensor Tensor::reshape(Shape new_shape) const {
  std::int64_t inferred_axis = -1;
  std::int64_t known = 1;
  for (std::size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      if (inferred_axis >= 0) throw std::invalid_argument("reshape: multiple -1 dims");
      inferred_axis = static_cast<std::int64_t>(i);
    } else if (new_shape[i] < 0) {
      throw std::invalid_argument("reshape: negative dimension");
    } else {
      known *= new_shape[i];
    }
  }
  if (inferred_axis >= 0) {
    if (known == 0 || numel() % known != 0)
      throw std::invalid_argument("reshape: cannot infer -1 dimension");
    new_shape[static_cast<std::size_t>(inferred_axis)] = numel() / known;
  }
  if (shape_numel(new_shape) != numel())
    throw std::invalid_argument("reshape: element count mismatch");
  return Tensor(std::move(new_shape), data_);
}

Tensor Tensor::matricize() const {
  if (ndim() == 0 || numel() == 0) return reshape({numel() > 0 ? numel() : 0, 1});
  if (ndim() == 1) return reshape({shape_[0], 1});
  return reshape({shape_[0], -1});
}

void Tensor::fill(float value) noexcept { std::fill(data_.begin(), data_.end(), value); }

void Tensor::axpy(float alpha, const Tensor& other) {
  if (other.numel() != numel()) throw std::invalid_argument("axpy: element count mismatch");
  const float* __restrict src = other.data_.data();
  float* __restrict dst = data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
}

void Tensor::scale(float alpha) noexcept {
  for (auto& x : data_) x *= alpha;
}

double Tensor::l2_norm() const noexcept {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * static_cast<double>(x);
  return std::sqrt(s);
}

double Tensor::linf_norm() const noexcept {
  double m = 0.0;
  for (float x : data_) m = std::max(m, static_cast<double>(std::abs(x)));
  return m;
}

double Tensor::sum() const noexcept {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x);
  return s;
}

double Tensor::l1_norm() const noexcept {
  double s = 0.0;
  for (float x : data_) s += std::abs(static_cast<double>(x));
  return s;
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.add_(b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.sub_(b);
  return out;
}

Tensor scaled(const Tensor& a, float alpha) {
  Tensor out = a;
  out.scale(alpha);
  return out;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) throw std::invalid_argument("max_abs_diff: size mismatch");
  double m = 0.0;
  auto da = a.data();
  auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i)
    m = std::max(m, std::abs(static_cast<double>(da[i]) - static_cast<double>(db[i])));
  return m;
}

double relative_l2_error(const Tensor& approx, const Tensor& reference) {
  Tensor diff = sub(approx, reference);
  const double denom = std::max(reference.l2_norm(), 1e-12);
  return diff.l2_norm() / denom;
}

}  // namespace gradcomp::tensor
