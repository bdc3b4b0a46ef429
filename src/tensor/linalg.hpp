// BLAS-lite: exactly the dense linear algebra gradient compression needs.
//
// PowerSGD is two GEMMs plus a Gram-Schmidt orthogonalization per layer per
// step; ATOMO needs a singular value decomposition. Implemented from scratch
// (no external BLAS) on the tensor::simd GEMM kernels.
#pragma once

#include <cstdint>

#include "tensor/simd.hpp"
#include "tensor/tensor.hpp"

namespace gradcomp::tensor {

enum class Transpose : std::uint8_t { kNo, kYes };

// C = A(op) * B(op). Shapes validated; result allocated fresh.
// Row blocks of C are computed in parallel on the shared pool; each output
// element is accumulated in a fixed order, so results are bit-identical at
// any thread count.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b,
                            Transpose ta = Transpose::kNo, Transpose tb = Transpose::kNo);

// Allocation-free variant: overwrites `out`, reallocating it only when its
// shape differs (so a caller-held scratch tensor is reused across
// iterations), then applies `ep` to every element (its bias holds n floats,
// its gate an m x n matrix that must not be `out`). The N/T and T/N cases
// run natively without materializing the transpose.
void matmul_into(const Tensor& a, const Tensor& b, Transpose ta, Transpose tb, Tensor& out,
                 const simd::Epilogue& ep = {});

// y = A * x for 2-D A and 1-D x.
[[nodiscard]] Tensor matvec(const Tensor& a, const Tensor& x);

// dot product of flat tensors (element counts must match).
[[nodiscard]] double dot(const Tensor& a, const Tensor& b);

// In-place modified Gram-Schmidt on the columns of a 2-D matrix, as used by
// PowerSGD's `orthogonalize(P)`. Near-zero columns are replaced by a unit
// basis vector to keep the result full column rank.
void orthonormalize_columns(Tensor& m);

// True iff M^T M is within `tol` of identity (column orthonormality check).
[[nodiscard]] bool has_orthonormal_columns(const Tensor& m, double tol = 1e-4);

// Thin SVD A = U * diag(s) * V^T via one-sided Jacobi rotations.
// A is (m x n) with m >= n preferred (internally transposes otherwise).
// Singular values are returned in non-increasing order.
struct SvdResult {
  Tensor u;                    // m x k
  std::vector<double> sigma;   // k
  Tensor v;                    // n x k
};
[[nodiscard]] SvdResult svd(const Tensor& a, int max_sweeps = 60, double tol = 1e-10);

// Frobenius norm of a tensor viewed as a flat vector (== l2_norm, provided
// for readability at matrix call sites).
[[nodiscard]] double frobenius_norm(const Tensor& a);

}  // namespace gradcomp::tensor
