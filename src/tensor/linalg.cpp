#include "tensor/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/parallel.hpp"
#include "tensor/simd.hpp"

namespace gradcomp::tensor {

namespace {

// Row-panel grain for the pool-parallel GEMM paths. Each C row is a pure
// function of the inputs with a fixed per-row accumulation order, so the
// grain affects performance only, never bits. Tiny products run as a single
// inline chunk — below ~2 MFLOP the pool's wake/claim overhead exceeds the
// work (the source of the old matmul/pool regression). Larger products use
// row panels sized so a panel's streaming working set (one A row plus one C
// row, ~4*(k+n) bytes per row) stays within half an L2 (256 KiB), rounded
// to a multiple of the 8-row register tile so SIMD full-tile kernels do not
// straddle chunk boundaries.
std::int64_t pick_row_grain(std::int64_t m, std::int64_t k, std::int64_t n) {
  const int threads = core::global_pool().size();
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  if (threads == 1 || flops < 2e6) return std::max<std::int64_t>(m, 1);
  const std::int64_t bytes_per_row = 4 * (k + n);
  std::int64_t rows = bytes_per_row > 0 ? (std::int64_t{256} << 10) / bytes_per_row : m;
  // Never split finer than ~4 chunks per thread: more chunks only add
  // claim/dispatch overhead once the panels already fit in L2.
  const std::int64_t min_rows = (m + 4 * threads - 1) / (4 * threads);
  rows = std::clamp<std::int64_t>(std::max(rows, min_rows), 16,
                                  std::max<std::int64_t>(m, 16));
  return (rows / 8) * 8;
}

// Reduction grain for orthonormalization dot products: one chunk per
// 32k rows keeps every matrix in the test suite single-chunk (bit-identical
// to the historical serial sum) while still splitting the huge matricized
// conv layers.
constexpr std::int64_t kReduceGrain = 1 << 15;

void require_2d(const Tensor& t, const char* who) {
  if (t.ndim() != 2) throw std::invalid_argument(std::string(who) + ": tensor must be 2-D");
}

// Returns the (rows, cols) of A(op).
std::pair<std::int64_t, std::int64_t> op_dims(const Tensor& a, Transpose op) {
  return op == Transpose::kNo ? std::pair{a.dim(0), a.dim(1)} : std::pair{a.dim(1), a.dim(0)};
}

// Materializes A(op) into a plain row-major matrix; identity op is a copy.
// Keeping the kernel to one (no-transpose) case keeps it simple and fast
// enough for the rank<=16 matrices PowerSGD produces.
Tensor materialize(const Tensor& a, Transpose op) {
  if (op == Transpose::kNo) return a;
  const std::int64_t r = a.dim(0);
  const std::int64_t c = a.dim(1);
  Tensor out({c, r});
  auto src = a.data();
  auto dst = out.data();
  for (std::int64_t i = 0; i < r; ++i)
    for (std::int64_t j = 0; j < c; ++j)
      dst[static_cast<std::size_t>(j * r + i)] = src[static_cast<std::size_t>(i * c + j)];
  return out;
}

}  // namespace

void matmul_into(const Tensor& a, const Tensor& b, Transpose ta, Transpose tb, Tensor& out,
                 const simd::Epilogue& ep) {
  require_2d(a, "matmul(a)");
  require_2d(b, "matmul(b)");
  const auto [m, ka] = op_dims(a, ta);
  const auto [kb, n] = op_dims(b, tb);
  if (ka != kb) throw std::invalid_argument("matmul: inner dimensions mismatch");
  const std::int64_t k = ka;

  // The kernels overwrite every element of C, so a correctly shaped `out` is
  // reused as is.
  if (out.ndim() != 2 || out.dim(0) != m || out.dim(1) != n) out = Tensor({m, n});

  // The double-transpose case is rare (no kernel uses it); fall back to
  // materializing A^T and reusing the T/N-free path.
  if (ta == Transpose::kYes && tb == Transpose::kYes) {
    const Tensor am = materialize(a, ta);
    matmul_into(am, b, Transpose::kNo, tb, out, ep);
    return;
  }

  // Row kernels live in tensor::simd. The body captures one reference so
  // the std::function parallel_for takes stays in its small buffer: the
  // call allocates nothing when it runs inline.
  const struct {
    const float* pa;
    const float* pb;
    float* pc;
    std::int64_t m, k, n;
    Transpose ta, tb;
    const simd::Epilogue& ep;
  } g{a.data().data(), b.data().data(), out.data().data(), m, k, n, ta, tb, ep};
  core::global_pool().parallel_for(
      0, m, pick_row_grain(m, k, n), [&g](std::int64_t i0, std::int64_t i1) {
        if (g.ta == Transpose::kYes)
          simd::gemm_tn(g.pa, g.pb, g.pc, i0, i1, g.k, g.m, g.n, g.ep);
        else if (g.tb == Transpose::kYes)
          simd::gemm_nt(g.pa, g.pb, g.pc, i0, i1, g.k, g.n, g.ep);
        else
          simd::gemm_nn(g.pa, g.pb, g.pc, i0, i1, g.k, g.n, g.ep);
      });
}

Tensor matmul(const Tensor& a, const Tensor& b, Transpose ta, Transpose tb) {
  Tensor c;
  matmul_into(a, b, ta, tb, c);
  return c;
}

Tensor matvec(const Tensor& a, const Tensor& x) {
  require_2d(a, "matvec(a)");
  if (x.numel() != a.dim(1)) throw std::invalid_argument("matvec: dimension mismatch");
  Tensor y({a.dim(0)});
  auto pa = a.data();
  auto px = x.data();
  auto py = y.data();
  const std::int64_t m = a.dim(0);
  const std::int64_t n = a.dim(1);
  for (std::int64_t i = 0; i < m; ++i) {
    double s = 0.0;
    for (std::int64_t j = 0; j < n; ++j)
      s += static_cast<double>(pa[static_cast<std::size_t>(i * n + j)]) *
           static_cast<double>(px[static_cast<std::size_t>(j)]);
    py[static_cast<std::size_t>(i)] = static_cast<float>(s);
  }
  return y;
}

double dot(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) throw std::invalid_argument("dot: size mismatch");
  auto pa = a.data();
  auto pb = b.data();
  double s = 0.0;
  for (std::size_t i = 0; i < pa.size(); ++i)
    s += static_cast<double>(pa[i]) * static_cast<double>(pb[i]);
  return s;
}

void orthonormalize_columns(Tensor& m) {
  require_2d(m, "orthonormalize_columns");
  const std::int64_t rows = m.dim(0);
  const std::int64_t cols = m.dim(1);
  auto p = m.data();
  auto& pool = core::global_pool();
  const auto col = [&](std::int64_t j, std::int64_t i) -> float& {
    return p[static_cast<std::size_t>(i * cols + j)];
  };
  // Column dot products run as ordered chunked reductions (fixed kReduceGrain
  // boundaries, sequential combine): bit-exact at any thread count, and
  // identical to the plain serial sum whenever rows <= the grain.
  const auto col_dot = [&](std::int64_t j, std::int64_t k) {
    return pool.reduce_ordered(
        std::int64_t{0}, rows, kReduceGrain, 0.0,
        [&](std::int64_t lo, std::int64_t hi) {
          double s = 0.0;
          for (std::int64_t i = lo; i < hi; ++i)
            s += static_cast<double>(col(j, i)) * static_cast<double>(col(k, i));
          return s;
        },
        [](double acc, double part) { return acc + part; });
  };
  const auto project_out_previous = [&](std::int64_t j) {
    for (std::int64_t k = 0; k < j; ++k) {
      const double proj = col_dot(j, k);
      pool.parallel_for(0, rows, kReduceGrain, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          col(j, i) -= static_cast<float>(proj) * col(k, i);
      });
    }
  };
  const auto column_norm = [&](std::int64_t j) { return std::sqrt(col_dot(j, j)); };

  for (std::int64_t j = 0; j < cols; ++j) {
    const double pre_norm = column_norm(j);
    project_out_previous(j);
    double norm = column_norm(j);
    // "Twice is enough": a large cancellation leaves a direction dominated
    // by rounding error; one re-orthogonalization pass restores accuracy.
    if (norm < 0.5 * pre_norm) {
      project_out_previous(j);
      norm = column_norm(j);
    }
    if (norm <= 1e-5 * pre_norm || norm < 1e-12) {
      // Degenerate (e.g. duplicate) column: substitute a unit vector and
      // orthogonalize it against the previous columns (twice, same reason).
      for (std::int64_t i = 0; i < rows; ++i) col(j, i) = 0.0F;
      col(j, j % rows) = 1.0F;
      project_out_previous(j);
      project_out_previous(j);
      norm = std::max(column_norm(j), 1e-12);
    }
    const float inv = static_cast<float>(1.0 / norm);
    for (std::int64_t i = 0; i < rows; ++i) col(j, i) *= inv;
  }
}

bool has_orthonormal_columns(const Tensor& m, double tol) {
  Tensor gram = matmul(m, m, Transpose::kYes, Transpose::kNo);
  const std::int64_t k = gram.dim(0);
  for (std::int64_t i = 0; i < k; ++i)
    for (std::int64_t j = 0; j < k; ++j) {
      const double expect = i == j ? 1.0 : 0.0;
      if (std::abs(static_cast<double>(gram.at(i, j)) - expect) > tol) return false;
    }
  return true;
}

SvdResult svd(const Tensor& a, int max_sweeps, double tol) {
  require_2d(a, "svd");
  const std::int64_t m = a.dim(0);
  const std::int64_t n = a.dim(1);
  if (m < n) {
    // svd(A^T) = (V, s, U); swap back.
    SvdResult t = svd(materialize(a, Transpose::kYes), max_sweeps, tol);
    return SvdResult{std::move(t.v), std::move(t.sigma), std::move(t.u)};
  }

  // One-sided Jacobi: rotate column pairs of W (a working copy of A) until
  // all pairs are numerically orthogonal; then sigma_j = ||w_j||,
  // u_j = w_j / sigma_j, and V accumulates the rotations.
  Tensor w = a;
  Tensor v({n, n});
  for (std::int64_t i = 0; i < n; ++i) v.at(i, i) = 1.0F;

  auto pw = w.data();
  auto pv = v.data();
  const auto wcol = [&](std::int64_t j, std::int64_t i) -> float& {
    return pw[static_cast<std::size_t>(i * n + j)];
  };
  const auto vcol = [&](std::int64_t j, std::int64_t i) -> float& {
    return pv[static_cast<std::size_t>(i * n + j)];
  };

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool converged = true;
    for (std::int64_t p = 0; p < n - 1; ++p) {
      for (std::int64_t q = p + 1; q < n; ++q) {
        double app = 0.0;
        double aqq = 0.0;
        double apq = 0.0;
        for (std::int64_t i = 0; i < m; ++i) {
          const double wp = wcol(p, i);
          const double wq = wcol(q, i);
          app += wp * wp;
          aqq += wq * wq;
          apq += wp * wq;
        }
        if (std::abs(apq) <= tol * std::sqrt(app * aqq) + 1e-300) continue;
        converged = false;
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0 ? 1.0 : -1.0) / (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::int64_t i = 0; i < m; ++i) {
          const float wp = wcol(p, i);
          const float wq = wcol(q, i);
          wcol(p, i) = static_cast<float>(c * wp - s * wq);
          wcol(q, i) = static_cast<float>(s * wp + c * wq);
        }
        for (std::int64_t i = 0; i < n; ++i) {
          const float vp = vcol(p, i);
          const float vq = vcol(q, i);
          vcol(p, i) = static_cast<float>(c * vp - s * vq);
          vcol(q, i) = static_cast<float>(s * vp + c * vq);
        }
      }
    }
    if (converged) break;
  }

  // Extract singular values, sort descending, and build U.
  std::vector<double> sigma(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (std::int64_t i = 0; i < m; ++i)
      s += static_cast<double>(wcol(j, i)) * static_cast<double>(wcol(j, i));
    sigma[static_cast<std::size_t>(j)] = std::sqrt(s);
  }
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::int64_t x, std::int64_t y) {
    return sigma[static_cast<std::size_t>(x)] > sigma[static_cast<std::size_t>(y)];
  });

  SvdResult result{Tensor({m, n}), std::vector<double>(static_cast<std::size_t>(n)),
                   Tensor({n, n})};
  for (std::int64_t jj = 0; jj < n; ++jj) {
    const std::int64_t j = order[static_cast<std::size_t>(jj)];
    const double s = sigma[static_cast<std::size_t>(j)];
    result.sigma[static_cast<std::size_t>(jj)] = s;
    const double inv = s > 1e-300 ? 1.0 / s : 0.0;
    for (std::int64_t i = 0; i < m; ++i)
      result.u.at(i, jj) = static_cast<float>(wcol(j, i) * inv);
    for (std::int64_t i = 0; i < n; ++i) result.v.at(i, jj) = vcol(j, i);
  }
  return result;
}

double frobenius_norm(const Tensor& a) { return a.l2_norm(); }

}  // namespace gradcomp::tensor
