// Runtime-dispatched SIMD kernel layer.
//
// The paper's central claim — compression pays off only when encode/decode
// cost is small next to the communication it saves — makes kernel throughput
// a first-class modeling input: a 4x-slower sign pack shifts every advisor
// and adaptive-controller crossover. This module is the single home for the
// vectorized implementations of the hot kernels (sign pack/unpack, FP16
// convert, top-k threshold filtering, QSGD/TernGrad dequantize, the GEMM
// microkernel) plus the scalar reference implementations they are checked
// against.
//
// Dispatch contract:
//   * `active_level()` is chosen once: AVX2 when the build can emit it AND
//     the host reports AVX2+FMA+F16C, scalar otherwise. The environment
//     variable GRADCOMP_SIMD=scalar|avx2 (read on first query) and
//     `set_level()` (tests, benches) override it; forcing an unsupported
//     level throws.
//   * Every kernel is bit-exact against its scalar reference wherever the
//     algorithm is deterministic: pack/unpack (including NaN, -0.0), FP16
//     convert (NaN payloads canonicalized to match the software converter),
//     threshold count/filter, and the dequantize loops produce identical
//     bytes at either level. The AVX2 GEMM kernels are bit-exact to their
//     documented FMA order instead, which reassociates the scalar kernels'
//     reduction, so the two levels agree only to a small relative
//     tolerance — documented at the kernels and pinned by
//     tests/test_simd.cpp.
//   * Raw vector intrinsics live ONLY in simd.cpp; gradcheck's
//     `raw-intrinsic` token rule fails the build on any `_mm*`/`__m256`
//     token outside this module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace gradcomp::tensor::simd {

enum class Level : std::uint8_t {
  kScalar = 0,  // portable reference path, always available
  kAvx2 = 1,    // AVX2 + FMA + F16C
};

// True when this binary contains the AVX2 code paths at all (x86 build with
// a compiler supporting per-function target attributes).
[[nodiscard]] bool compiled_with_avx2() noexcept;

// True when the host CPU reports AVX2, FMA, and F16C.
[[nodiscard]] bool host_supports_avx2() noexcept;

// Best level this build + host can run (ignores overrides).
[[nodiscard]] Level detected_level() noexcept;

// The level every kernel dispatches on. First call resolves detection and
// the GRADCOMP_SIMD environment override; later calls return the cache.
[[nodiscard]] Level active_level() noexcept;

// Forces the dispatch level (tests and the micro_simd bench time both paths
// in one process). Throws std::invalid_argument if the level cannot run on
// this build/host.
void set_level(Level level);

[[nodiscard]] const char* level_name(Level level) noexcept;

// Parses "scalar"/"avx2" (the GRADCOMP_SIMD vocabulary); nullopt otherwise.
[[nodiscard]] std::optional<Level> parse_level(std::string_view name) noexcept;

// Monotonic cycle counter (rdtsc) for the roofline bench; 0 on non-x86.
[[nodiscard]] std::uint64_t cycle_counter() noexcept;

// --- sign bits ---------------------------------------------------------------
// Wire layout shared by SignSGD and 1-bit SGD: bit (i % 8) of byte (i / 8)
// is `values[i] >= 0.0f` (so NaN packs as 0 and -0.0 packs as 1). `bits`
// must hold (n + 7) / 8 bytes; trailing pad bits are zeroed.
void pack_signs(const float* values, std::int64_t n, std::byte* bits);

// Inverse map to the +/-1 vote vector: bit set -> +1.0f, clear -> -1.0f.
void unpack_signs(const std::byte* bits, std::int64_t n, float* out);

// 1-bit SGD decode: bit set -> pos_level, clear -> neg_level.
void unpack_select(const std::byte* bits, std::int64_t n, float pos_level, float neg_level,
                   float* out);

// --- FP16 convert ------------------------------------------------------------
// Element-for-element equal to tensor::float_to_half / half_to_float,
// including round-to-nearest-even, subnormals, and the canonical NaN form
// the software converter produces.
void to_half(const float* src, std::int64_t n, std::uint16_t* dst);
void from_half(const std::uint16_t* src, std::int64_t n, float* dst);

// --- top-k threshold filtering ----------------------------------------------
// Number of i in [0, n) with |values[i]| >= threshold (NaN never counts),
// exactly as the scalar filter counts them.
[[nodiscard]] std::int64_t count_abs_ge(const float* values, std::int64_t n, float threshold);

// Writes index_base + i for each surviving i, in ascending order, to `out`
// (which must hold at least the matching count_abs_ge result). Returns the
// number written.
std::int64_t collect_abs_ge(const float* values, std::int64_t n, float threshold,
                            std::int64_t index_base, std::int64_t* out);

// --- dequantize --------------------------------------------------------------
// QSGD: out[i] = +/- (norm * (code & 0x7F) / levels), sign from bit 7.
// Identical operation order (mul then div) to the scalar decoder.
void qsgd_decode(const std::uint8_t* codes, std::int64_t n, float norm, float levels,
                 float* out);

// TernGrad: 2-bit codes, 4 per byte, LSB-first; 0 -> 0, 1 -> +scale,
// 2 -> -scale.
void terngrad_decode(const std::uint8_t* codes, std::int64_t n, float scale, float* out);

// --- GEMM row kernels --------------------------------------------------------
// C[i0:i1, :] = A(op) * B for row-major operands, overwriting those rows of
// C (its previous contents are never read), then the optional epilogue.
// Each C row is a pure function of the inputs, so row-partitioned callers
// stay deterministic at any thread count.
//   gemm_nn: A is (m x k), B is (k x n)
//   gemm_tn: A is (k x m) used transposed, B is (k x n)
//   gemm_nt: A is (m x k), B is (n x k) used transposed
//
// The AVX2 kernels are bit-exact to a fixed per-element FMA order, whatever
// the row range, tiling or thread count (tests/test_simd.cpp holds them to
// scalar models of it):
//   gemm_nn, gemm_tn: one sequential chain over k from +0,
//       c = fma(a[i][k-1], b[k-1][j], ... fma(a[i][0], b[0][j], +0));
//   gemm_nt: eight lane chains, lane l over kk = l (mod 8) of the 8-aligned
//       prefix of k, combined as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), then
//       one fma chain over the k tail, then +0 is added.
// gemm_nn and gemm_tn pack B into 16-column panels on the stack; gemm_nt
// blocks over B rows. The scalar kernels are the dispatch fallback and match
// the AVX2 ones only to relative O(k * eps).

// Applied to each C element after its last FMA, in this order:
//   bias: c = c + bias[j]               (n floats)
//   relu: c = max(c, 0)                 (as std::max(c, 0.0f): NaN and -0.0 pass)
//   gate: c = gate[i*n + j] <= 0 ? +0 : c  (m x n, laid out like C; the ReLU
//                                            derivative from stored activations)
// `gate` must not alias C.
struct Epilogue {
  const float* bias = nullptr;
  bool relu = false;
  const float* gate = nullptr;
};

void gemm_nn(const float* a, const float* b, float* c, std::int64_t i0, std::int64_t i1,
             std::int64_t k, std::int64_t n, const Epilogue& ep = {});
void gemm_tn(const float* a, const float* b, float* c, std::int64_t i0, std::int64_t i1,
             std::int64_t k, std::int64_t m, std::int64_t n, const Epilogue& ep = {});
void gemm_nt(const float* a, const float* b, float* c, std::int64_t i0, std::int64_t i1,
             std::int64_t k, std::int64_t n, const Epilogue& ep = {});

}  // namespace gradcomp::tensor::simd
