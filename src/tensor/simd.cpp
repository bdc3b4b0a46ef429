// The only translation unit in the repo allowed to contain raw vector
// intrinsics (enforced by gradcheck's `raw-intrinsic` rule). Every kernel
// comes in two variants:
//
//   *_scalar — the portable reference, kept textually boring so it is easy
//       to audit against the pre-SIMD code it replaced;
//   *_avx2   — AVX2/FMA/F16C, compiled via per-function target attributes
//       so the rest of this file (and the whole build) stays baseline-ISA;
//       running them is gated on the runtime dispatch below.
//
// Exactness: the bit-level kernels (sign pack/unpack/select, FP16 convert,
// threshold count/filter, dequantize) are lane-independent and use the same
// IEEE operations in the same per-element order as the scalar reference, so
// they are bit-exact — including NaN, -0.0, and denormal inputs. The two
// hardware-vs-software FP16 NaN mismatches (float->half NaN payload
// truncation, half->float signaling-NaN quieting) are canonicalized with an
// explicit blend to match the software converter. The AVX2 GEMM kernels are
// bit-exact to the FMA order documented in the header, which differs from
// the scalar kernels' order, so the two levels are only tolerance-equal.
#include "tensor/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "tensor/half.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define GRADCOMP_SIMD_X86 1
#include <immintrin.h>
#include <x86intrin.h>
#else
#define GRADCOMP_SIMD_X86 0
#endif

namespace gradcomp::tensor::simd {

namespace {

// --- scalar reference kernels ------------------------------------------------

// Word-at-a-time sign packing (32 signs per uint32), byte-wise LSB-first
// store so the wire layout is endianness-independent.
void pack_signs_scalar(const float* values, std::int64_t n, std::byte* bits) {
  const std::int64_t nwords = n / 32;
  for (std::int64_t w = 0; w < nwords; ++w) {
    const float* v = values + w * 32;
    std::uint32_t word = 0;
    for (unsigned b = 0; b < 32; ++b)
      word |= static_cast<std::uint32_t>(v[b] >= 0.0F) << b;
    std::byte* out = bits + w * 4;
    out[0] = static_cast<std::byte>(word & 0xFFU);
    out[1] = static_cast<std::byte>((word >> 8) & 0xFFU);
    out[2] = static_cast<std::byte>((word >> 16) & 0xFFU);
    out[3] = static_cast<std::byte>((word >> 24) & 0xFFU);
  }
  const std::int64_t nbytes = (n + 7) / 8;
  for (std::int64_t i = nwords * 4; i < nbytes; ++i) bits[i] = std::byte{0};
  for (std::int64_t i = nwords * 32; i < n; ++i)
    if (values[i] >= 0.0F)
      bits[i / 8] |= static_cast<std::byte>(1U << (i % 8));
}

void unpack_select_scalar(const std::byte* bits, std::int64_t n, float pos_level,
                          float neg_level, float* out) {
  const std::int64_t nwords = n / 32;
  for (std::int64_t w = 0; w < nwords; ++w) {
    const std::byte* in = bits + w * 4;
    const std::uint32_t word = static_cast<std::uint32_t>(in[0]) |
                               (static_cast<std::uint32_t>(in[1]) << 8) |
                               (static_cast<std::uint32_t>(in[2]) << 16) |
                               (static_cast<std::uint32_t>(in[3]) << 24);
    float* v = out + w * 32;
    for (unsigned b = 0; b < 32; ++b) v[b] = ((word >> b) & 1U) != 0 ? pos_level : neg_level;
  }
  for (std::int64_t i = nwords * 32; i < n; ++i) {
    const bool set = (bits[i / 8] & static_cast<std::byte>(1U << (i % 8))) != std::byte{0};
    out[i] = set ? pos_level : neg_level;
  }
}

void to_half_scalar(const float* src, std::int64_t n, std::uint16_t* dst) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = float_to_half(src[i]);
}

void from_half_scalar(const std::uint16_t* src, std::int64_t n, float* dst) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = half_to_float(src[i]);
}

std::int64_t count_abs_ge_scalar(const float* values, std::int64_t n, float threshold) {
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < n; ++i) count += std::abs(values[i]) >= threshold ? 1 : 0;
  return count;
}

std::int64_t collect_abs_ge_scalar(const float* values, std::int64_t n, float threshold,
                                   std::int64_t index_base, std::int64_t* out) {
  std::int64_t at = 0;
  for (std::int64_t i = 0; i < n; ++i)
    if (std::abs(values[i]) >= threshold) out[at++] = index_base + i;
  return at;
}

void qsgd_decode_scalar(const std::uint8_t* codes, std::int64_t n, float norm, float levels,
                        float* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float magnitude = norm * static_cast<float>(codes[i] & 0x7FU) / levels;
    out[i] = (codes[i] & 0x80U) != 0 ? -magnitude : magnitude;
  }
}

void terngrad_decode_scalar(const std::uint8_t* codes, std::int64_t n, float scale,
                            float* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint8_t code = (codes[i / 4] >> (2 * (i % 4))) & 0x3U;
    if (code == 1)
      out[i] = scale;
    else if (code == 2)
      out[i] = -scale;
    else
      out[i] = 0.0F;
  }
}

// Cache-blocked i-k-j with a contiguous AXPY inner loop — the pre-SIMD
// kernel, unchanged, so the scalar dispatch path reproduces historical bits.
void gemm_nn_scalar(const float* __restrict pa, const float* __restrict pb,
                    float* __restrict pc, std::int64_t i0, std::int64_t i1, std::int64_t k,
                    std::int64_t n) {
  constexpr std::int64_t kBlock = 64;
  for (std::int64_t k0 = 0; k0 < k; k0 += kBlock) {
    const std::int64_t k1 = std::min(k0 + kBlock, k);
    for (std::int64_t i = i0; i < i1; ++i) {
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        const float aik = pa[i * k + kk];
        const float* __restrict brow = pb + kk * n;
        float* __restrict crow = pc + i * n;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  }
}

void gemm_tn_scalar(const float* __restrict pa, const float* __restrict pb,
                    float* __restrict pc, std::int64_t i0, std::int64_t i1, std::int64_t k,
                    std::int64_t m, std::int64_t n) {
  for (std::int64_t i = i0; i < i1; ++i) {
    float* __restrict crow = pc + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = pa[kk * m + i];
      const float* __restrict brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void gemm_nt_scalar(const float* __restrict pa, const float* __restrict pb,
                    float* __restrict pc, std::int64_t i0, std::int64_t i1, std::int64_t k,
                    std::int64_t n) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const float* __restrict arow = pa + i * k;
    float* __restrict crow = pc + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* __restrict brow = pb + j * k;
      float acc = crow[j];
      for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
}

// One C element's epilogue, in the order simd.hpp documents.
inline float apply_epilogue(float c, const Epilogue& ep, std::int64_t i, std::int64_t j,
                            std::int64_t n) {
  if (ep.bias != nullptr) c += ep.bias[j];
  if (ep.relu) c = std::max(c, 0.0F);
  if (ep.gate != nullptr && ep.gate[i * n + j] <= 0.0F) c = 0.0F;
  return c;
}

// The scalar dispatch path: zero the rows, accumulate into them with the
// historical kernel, then run the epilogue element by element.
template <typename Kernel>
void gemm_scalar(float* c, std::int64_t i0, std::int64_t i1, std::int64_t n, const Epilogue& ep,
                 const Kernel& accumulate) {
  std::fill(c + i0 * n, c + i1 * n, 0.0F);
  accumulate();
  if (ep.bias == nullptr && !ep.relu && ep.gate == nullptr) return;
  for (std::int64_t i = i0; i < i1; ++i)
    for (std::int64_t j = 0; j < n; ++j) c[i * n + j] = apply_epilogue(c[i * n + j], ep, i, j, n);
}

#if GRADCOMP_SIMD_X86

#define GRADCOMP_AVX2 __attribute__((target("avx2,fma,f16c")))

// Lane masks for j-tails: kTailMask[r] has the top bit set in the first r
// lanes (maskload/maskstore honor only the sign bit).
alignas(32) constexpr std::int32_t kTailMaskTable[16] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};

GRADCOMP_AVX2 inline __m256i tail_mask(std::int64_t rem) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMaskTable + 8 - rem));
}

// --- sign bits ---------------------------------------------------------------

// bit = (v >= 0): _CMP_GE_OQ matches the scalar `>=` on every input class
// (NaN -> false, -0.0 >= 0.0 -> true), and movemask collects lane i into
// bit i, so the uint32 store reproduces the LSB-first wire layout.
GRADCOMP_AVX2 void pack_signs_avx2(const float* values, std::int64_t n, std::byte* bits) {
  const __m256 zero = _mm256_setzero_ps();
  const std::int64_t nwords = n / 32;
  for (std::int64_t w = 0; w < nwords; ++w) {
    const float* v = values + w * 32;
    const auto m0 = static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(_mm256_loadu_ps(v + 0), zero, _CMP_GE_OQ)));
    const auto m1 = static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(_mm256_loadu_ps(v + 8), zero, _CMP_GE_OQ)));
    const auto m2 = static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(_mm256_loadu_ps(v + 16), zero, _CMP_GE_OQ)));
    const auto m3 = static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(_mm256_loadu_ps(v + 24), zero, _CMP_GE_OQ)));
    const std::uint32_t word = m0 | (m1 << 8) | (m2 << 16) | (m3 << 24);
    std::memcpy(bits + w * 4, &word, 4);  // x86 is little-endian: LSB-first
  }
  const std::int64_t done = nwords * 32;
  if (done < n) pack_signs_scalar(values + done, n - done, bits + nwords * 4);
}

GRADCOMP_AVX2 void unpack_select_avx2(const std::byte* bits, std::int64_t n, float pos_level,
                                      float neg_level, float* out) {
  const __m256 pos = _mm256_set1_ps(pos_level);
  const __m256 neg = _mm256_set1_ps(neg_level);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i shift0 = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i shift1 = _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15);
  const __m256i shift2 = _mm256_setr_epi32(16, 17, 18, 19, 20, 21, 22, 23);
  const __m256i shift3 = _mm256_setr_epi32(24, 25, 26, 27, 28, 29, 30, 31);
  const std::int64_t nwords = n / 32;
  for (std::int64_t w = 0; w < nwords; ++w) {
    std::uint32_t word = 0;
    std::memcpy(&word, bits + w * 4, 4);
    const __m256i wv = _mm256_set1_epi32(static_cast<std::int32_t>(word));
    float* v = out + w * 32;
    const auto emit = [&](const __m256i& shifts, float* dst) GRADCOMP_AVX2 {
      const __m256i bit = _mm256_and_si256(_mm256_srlv_epi32(wv, shifts), one);
      const __m256 mask = _mm256_castsi256_ps(_mm256_cmpeq_epi32(bit, one));
      _mm256_storeu_ps(dst, _mm256_blendv_ps(neg, pos, mask));
    };
    emit(shift0, v + 0);
    emit(shift1, v + 8);
    emit(shift2, v + 16);
    emit(shift3, v + 24);
  }
  const std::int64_t done = nwords * 32;
  if (done < n)
    unpack_select_scalar(bits + nwords * 4, n - done, pos_level, neg_level, out + done);
}

// --- FP16 convert ------------------------------------------------------------

// vcvtps2ph rounds to nearest-even exactly like the software converter, but
// keeps (truncated) NaN payloads where the software path canonicalizes every
// NaN to sign | 0x7E00 — so NaN lanes are blended to the canonical form.
GRADCOMP_AVX2 void to_half_avx2(const float* src, std::int64_t n, std::uint16_t* dst) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    __m128i h = _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m256i nan32 = _mm256_castps_si256(_mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    const __m128i nan16 = _mm_packs_epi32(_mm256_castsi256_si128(nan32),
                                          _mm256_extracti128_si256(nan32, 1));
    const __m128i canonical = _mm_or_si128(
        _mm_and_si128(h, _mm_set1_epi16(static_cast<short>(0x8000))), _mm_set1_epi16(0x7E00));
    h = _mm_blendv_epi8(h, canonical, nan16);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  if (i < n) to_half_scalar(src + i, n - i, dst + i);
}

// vcvtph2ps is exact except that it quiets signaling NaNs; the software
// widener shifts the payload up unmodified, so NaN lanes are rebuilt from
// the half bits (sign | 0x7F800000 | mantissa << 13) and blended in.
GRADCOMP_AVX2 void from_half_avx2(const std::uint16_t* src, std::int64_t n, float* dst) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m256 f = _mm256_cvtph_ps(h);
    const __m256i w = _mm256_cvtepu16_epi32(h);
    const __m256i exp = _mm256_and_si256(w, _mm256_set1_epi32(0x7C00));
    const __m256i mant = _mm256_and_si256(w, _mm256_set1_epi32(0x3FF));
    const __m256i is_nan =
        _mm256_and_si256(_mm256_cmpeq_epi32(exp, _mm256_set1_epi32(0x7C00)),
                         _mm256_cmpgt_epi32(mant, _mm256_setzero_si256()));
    const __m256i rebuilt = _mm256_or_si256(
        _mm256_slli_epi32(_mm256_and_si256(w, _mm256_set1_epi32(0x8000)), 16),
        _mm256_or_si256(_mm256_set1_epi32(0x7F800000), _mm256_slli_epi32(mant, 13)));
    f = _mm256_blendv_ps(f, _mm256_castsi256_ps(rebuilt), _mm256_castsi256_ps(is_nan));
    _mm256_storeu_ps(dst + i, f);
  }
  if (i < n) from_half_scalar(src + i, n - i, dst + i);
}

// --- top-k threshold filtering ----------------------------------------------

GRADCOMP_AVX2 std::int64_t count_abs_ge_avx2(const float* values, std::int64_t n,
                                             float threshold) {
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const __m256 t = _mm256_set1_ps(threshold);
  std::int64_t count = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_and_ps(_mm256_loadu_ps(values + i), absmask);
    const int mask = _mm256_movemask_ps(_mm256_cmp_ps(a, t, _CMP_GE_OQ));
    count += __builtin_popcount(static_cast<unsigned>(mask));
  }
  if (i < n) count += count_abs_ge_scalar(values + i, n - i, threshold);
  return count;
}

GRADCOMP_AVX2 std::int64_t collect_abs_ge_avx2(const float* values, std::int64_t n,
                                               float threshold, std::int64_t index_base,
                                               std::int64_t* out) {
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const __m256 t = _mm256_set1_ps(threshold);
  std::int64_t at = 0;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_and_ps(_mm256_loadu_ps(values + i), absmask);
    auto mask = static_cast<unsigned>(_mm256_movemask_ps(_mm256_cmp_ps(a, t, _CMP_GE_OQ)));
    while (mask != 0) {  // ascending bit order == ascending index order
      const int lane = __builtin_ctz(mask);
      out[at++] = index_base + i + lane;
      mask &= mask - 1;
    }
  }
  if (i < n) at += collect_abs_ge_scalar(values + i, n - i, threshold, index_base + i, out + at);
  return at;
}

// --- dequantize --------------------------------------------------------------

GRADCOMP_AVX2 void qsgd_decode_avx2(const std::uint8_t* codes, std::int64_t n, float norm,
                                    float levels, float* out) {
  const __m256 norm_v = _mm256_set1_ps(norm);
  const __m256 s_v = _mm256_set1_ps(levels);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t raw = 0;
    std::memcpy(&raw, codes + i, 8);
    const __m256i c = _mm256_cvtepu8_epi32(
        _mm_cvtsi64_si128(static_cast<long long>(raw)));
    // Same operation order as the scalar decoder: (norm * level) / s.
    const __m256 mag = _mm256_div_ps(
        _mm256_mul_ps(norm_v, _mm256_cvtepi32_ps(
                                  _mm256_and_si256(c, _mm256_set1_epi32(0x7F)))),
        s_v);
    const __m256i sign =
        _mm256_slli_epi32(_mm256_and_si256(c, _mm256_set1_epi32(0x80)), 24);
    _mm256_storeu_ps(out + i, _mm256_xor_ps(mag, _mm256_castsi256_ps(sign)));
  }
  if (i < n) qsgd_decode_scalar(codes + i, n - i, norm, levels, out + i);
}

GRADCOMP_AVX2 void terngrad_decode_avx2(const std::uint8_t* codes, std::int64_t n, float scale,
                                        float* out) {
  const __m256 pos = _mm256_set1_ps(scale);
  const __m256 neg = _mm256_set1_ps(-scale);
  const __m256i three = _mm256_set1_epi32(3);
  const __m256i shifts = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {  // 8 codes span exactly 2 payload bytes
    std::uint16_t raw = 0;
    std::memcpy(&raw, codes + i / 4, 2);
    const __m256i c = _mm256_and_si256(
        _mm256_srlv_epi32(_mm256_set1_epi32(raw), shifts), three);
    const __m256 take_pos =
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(c, _mm256_set1_epi32(1)));
    const __m256 take_neg =
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(c, _mm256_set1_epi32(2)));
    _mm256_storeu_ps(out + i, _mm256_or_ps(_mm256_and_ps(take_pos, pos),
                                           _mm256_and_ps(take_neg, neg)));
  }
  for (; i < n; ++i) {  // tail shares bytes with the last vector group; per-code decode
    const std::uint8_t code = (codes[i / 4] >> (2 * (i % 4))) & 0x3U;
    out[i] = code == 1 ? scale : code == 2 ? -scale : 0.0F;
  }
}

// --- GEMM --------------------------------------------------------------------
//
// Each kernel keeps the per-element FMA order documented in simd.hpp; the
// tiling below decides only which elements are in flight together, so the
// bits never depend on the row range or the tile shapes.

GRADCOMP_AVX2 inline float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// Lanes [0, rem) of p; rem in [1, 8]. A partial load never touches memory
// past the last valid lane.
GRADCOMP_AVX2 inline __m256 load_lanes(const float* p, std::int64_t rem) {
  return rem == 8 ? _mm256_loadu_ps(p) : _mm256_maskload_ps(p, tail_mask(rem));
}

GRADCOMP_AVX2 inline void store_lanes(float* p, __m256 v, std::int64_t rem) {
  if (rem == 8)
    _mm256_storeu_ps(p, v);
  else
    _mm256_maskstore_ps(p, tail_mask(rem), v);
}

// apply_epilogue on the lanes [j, j + rem) of row i.
GRADCOMP_AVX2 inline __m256 epilogue_avx2(__m256 c, const Epilogue& ep, std::int64_t i,
                                          std::int64_t j, std::int64_t n, std::int64_t rem) {
  const __m256 zero = _mm256_setzero_ps();
  if (ep.bias != nullptr) c = _mm256_add_ps(c, load_lanes(ep.bias + j, rem));
  // maxps returns its second operand unless the first is greater, so
  // max(0, c) is std::max(c, 0.0f) exactly: NaN and -0.0 pass through.
  if (ep.relu) c = _mm256_max_ps(zero, c);
  if (ep.gate != nullptr)
    c = _mm256_andnot_ps(_mm256_cmp_ps(load_lanes(ep.gate + i * n + j, rem), zero, _CMP_LE_OQ),
                         c);
  return c;
}

// NN/TN blocking. B is packed kc rows at a time (kBlockK, deeper for a
// narrow B) into 16-column panels: rows of 16 floats, or 8 when at most 8
// columns remain, zero-padded past n, in a stack buffer of kPackFloats. The
// tile's B loads are then sequential instead of one per B row at B's row
// stride. TN reads its A down the columns, also at a full-row stride, so
// each kc x mc block of it is first copied to a second buffer.
constexpr std::int64_t kPanelCols = 16;
constexpr std::int64_t kBlockK = 256;
constexpr std::int64_t kBlockM = 64;
constexpr std::int64_t kShallowK = 64;
constexpr std::int64_t kRowGroup = 8;
constexpr std::int64_t kPackFloats = 16384;

// Copies B[0:kc, 0:w) (row stride ldb, 1 <= w <= 16) into kc panel rows
// of 8V floats, V = 1 when w <= 8 and 2 otherwise.
GRADCOMP_AVX2 void pack_panel(const float* b, std::int64_t ldb, std::int64_t kc, std::int64_t w,
                              float* dst) {
  const std::int64_t stride = w > 8 ? 16 : 8;
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* src = b + kk * ldb;
    float* row = dst + kk * stride;
    _mm256_store_ps(row, load_lanes(src, std::min<std::int64_t>(w, 8)));
    if (w > 8) _mm256_store_ps(row + 8, load_lanes(src + 8, w - 8));
  }
}

// An R x 8V tile of C at (i, j) against one packed panel; A element
// (i + r, k0 + kk) is a[r * a_row + kk * a_k]. With `first` every chain
// starts from +0, otherwise it continues from C; with `last` the epilogue
// runs before the store. w is the panel's valid width, 8(V-1) < w <= 8V.
template <int R, int V>
GRADCOMP_AVX2 inline void panel_tile(const float* a, std::int64_t a_row, std::int64_t a_k,
                                     const float* panel, std::int64_t kc, float* c,
                                     std::int64_t i, std::int64_t j, std::int64_t n,
                                     std::int64_t w, bool first, bool last, const Epilogue& ep) {
  const auto rem = [w](std::int64_t v) { return std::min<std::int64_t>(8, w - 8 * v); };
  __m256 acc[R][V];
#pragma GCC unroll 8
  for (std::int64_t r = 0; r < R; ++r)
#pragma GCC unroll 2
    for (std::int64_t v = 0; v < V; ++v)
      acc[r][v] = first ? _mm256_setzero_ps() : load_lanes(c + (i + r) * n + j + 8 * v, rem(v));
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    __m256 bv[V];
#pragma GCC unroll 2
    for (std::int64_t v = 0; v < V; ++v) bv[v] = _mm256_load_ps(panel + kk * 8 * V + 8 * v);
#pragma GCC unroll 8
    for (std::int64_t r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * a_row + kk * a_k);
#pragma GCC unroll 2
      for (std::int64_t v = 0; v < V; ++v) acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 8
  for (std::int64_t r = 0; r < R; ++r)
#pragma GCC unroll 2
    for (std::int64_t v = 0; v < V; ++v) {
      float* dst = c + (i + r) * n + j + 8 * v;
      store_lanes(dst, last ? epilogue_avx2(acc[r][v], ep, i + r, j + 8 * v, n, rem(v))
                            : acc[r][v], rem(v));
    }
}

// Rows [i, i + rows) against one panel: R-row tiles (R * V = 8
// accumulators), then single rows.
template <int V>
GRADCOMP_AVX2 void panel_rows(const float* a, std::int64_t a_row, std::int64_t a_k,
                              const float* panel, std::int64_t kc, float* c, std::int64_t i,
                              std::int64_t rows, std::int64_t j, std::int64_t n, std::int64_t w,
                              bool first, bool last, const Epilogue& ep) {
  constexpr int R = 8 / V;
  std::int64_t r = 0;
  for (; r + R <= rows; r += R)
    panel_tile<R, V>(a + r * a_row, a_row, a_k, panel, kc, c, i + r, j, n, w, first, last, ep);
  for (; r < rows; ++r)
    panel_tile<1, V>(a + r * a_row, a_row, a_k, panel, kc, c, i + r, j, n, w, first, last, ep);
}

// A element (i, kk) is a[i * a_row + kk * a_k]: gemm_nn passes (k, 1), so
// each tile row streams along k in place; gemm_tn passes (1, m), a strided
// k-walk, and its A blocks are copied.
GRADCOMP_AVX2 void gemm_packed_avx2(const float* a, std::int64_t a_row, std::int64_t a_k,
                                    const float* b, float* c, std::int64_t i0, std::int64_t i1,
                                    std::int64_t k, std::int64_t n, const Epilogue& ep) {
  alignas(32) float pack_b[kPackFloats];
  alignas(32) float pack_a[kBlockM * kBlockK];
  const bool copy_a = a_k != 1;
  // With A read in place, a narrow B takes deeper k blocks (up to the
  // buffer), so each A row streams in longer runs.
  const std::int64_t n_pad = std::max(kPanelCols, (n + kPanelCols - 1) / kPanelCols * kPanelCols);
  const std::int64_t kc_max = std::min(
      std::max<std::int64_t>(k, 1),
      copy_a ? kBlockK : std::clamp(kPackFloats / n_pad, kBlockK, kPackFloats / kPanelCols));
  const std::int64_t nc = kPackFloats / kc_max / kPanelCols * kPanelCols;
  for (std::int64_t jc = 0; jc < n; jc += nc) {
    const std::int64_t ncw = std::min(nc, n - jc);
    std::int64_t k0 = 0;
    do {  // once even when k == 0, so C is still written
      const std::int64_t kc = std::min(kc_max, k - k0);
      for (std::int64_t jp = 0; jp < ncw; jp += kPanelCols)
        pack_panel(b + k0 * n + jc + jp, n, kc, std::min(kPanelCols, ncw - jp),
                   pack_b + jp * kc);
      const bool first = k0 == 0;
      const bool last = k0 + kc >= k;
      for (std::int64_t ic = i0; ic < i1; ic += kBlockM) {
        const std::int64_t mc = std::min(kBlockM, i1 - ic);
        const float* ablk = a + ic * a_row + k0 * a_k;
        std::int64_t ak = a_k;
        if (copy_a) {
          for (std::int64_t kk = 0; kk < kc; ++kk)
            std::memcpy(pack_a + kk * mc, ablk + kk * a_k,
                        static_cast<std::size_t>(mc) * sizeof(float));
          ablk = pack_a;
          ak = mc;
        }
        // A deep block keeps each panel in L1 while all mc rows run against
        // it. A shallow one does few FMAs per C element, so storing C
        // dominates: row groups go outer and each C row of a group is
        // stored as one sequential run across the block, not one 64-byte
        // piece per panel, which keeps the stores prefetchable when C is
        // not in cache.
        const std::int64_t group = kc < kShallowK ? kRowGroup : mc;
        for (std::int64_t r0 = 0; r0 < mc; r0 += group) {
          const std::int64_t rows = std::min(group, mc - r0);
          for (std::int64_t jp = 0; jp < ncw; jp += kPanelCols) {
            const std::int64_t w = std::min(kPanelCols, ncw - jp);
            if (w > 8)
              panel_rows<2>(ablk + r0 * a_row, a_row, ak, pack_b + jp * kc, kc, c, ic + r0, rows,
                            jc + jp, n, w, first, last, ep);
            else
              panel_rows<1>(ablk + r0 * a_row, a_row, ak, pack_b + jp * kc, kc, c, ic + r0, rows,
                            jc + jp, n, w, first, last, ep);
          }
        }
      }
      k0 += kc;
    } while (k0 < k);
  }
}

GRADCOMP_AVX2 void gemm_nn_avx2(const float* pa, const float* pb, float* pc, std::int64_t i0,
                                std::int64_t i1, std::int64_t k, std::int64_t n,
                                const Epilogue& ep) {
  gemm_packed_avx2(pa, k, 1, pb, pc, i0, i1, k, n, ep);
}

GRADCOMP_AVX2 void gemm_tn_avx2(const float* pa, const float* pb, float* pc, std::int64_t i0,
                                std::int64_t i1, std::int64_t k, std::int64_t m, std::int64_t n,
                                const Epilogue& ep) {
  gemm_packed_avx2(pa, 1, m, pb, pc, i0, i1, k, n, ep);
}

// hsum8 of eight accumulators at once: lane r of the result is
// hsum8(acc[r]), added in the same tree order.
GRADCOMP_AVX2 inline __m256 hsum8_x8(const __m256 (&acc)[8]) {
  __m256 s[4];  // per 128-bit half: [v0+v4, v1+v5, v2+v6, v3+v7] of acc[2p], acc[2p+1]
#pragma GCC unroll 4
  for (std::int64_t p = 0; p < 4; ++p)
    s[p] = _mm256_add_ps(_mm256_permute2f128_ps(acc[2 * p], acc[2 * p + 1], 0x20),
                         _mm256_permute2f128_ps(acc[2 * p], acc[2 * p + 1], 0x31));
  __m256 t[2];  // [t0, t1] = [s0+s2, s1+s3] of acc 0, 2 | 1, 3 (and 4, 6 | 5, 7)
#pragma GCC unroll 2
  for (std::int64_t q = 0; q < 2; ++q)
    t[q] = _mm256_add_ps(_mm256_shuffle_ps(s[2 * q], s[2 * q + 1], _MM_SHUFFLE(1, 0, 1, 0)),
                         _mm256_shuffle_ps(s[2 * q], s[2 * q + 1], _MM_SHUFFLE(3, 2, 3, 2)));
  // t0 + t1 of acc [0, 2, 4, 6 | 1, 3, 5, 7], then back into acc order.
  const __m256 r = _mm256_add_ps(_mm256_shuffle_ps(t[0], t[1], _MM_SHUFFLE(2, 0, 2, 0)),
                                 _mm256_shuffle_ps(t[0], t[1], _MM_SHUFFLE(3, 1, 3, 1)));
  return _mm256_permutevar8x32_ps(r, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
}

// C[i][j, j + 8) from A row i and the eight B rows at j: one 8-lane
// accumulator per element, reduced together, then the k tail as one FMA
// chain per lane against `b_tail` (the tail of the eight B rows, [t][r]).
GRADCOMP_AVX2 inline void nt_row8(const float* arow, const float* b, const float* b_tail,
                                  float* c, std::int64_t i, std::int64_t j, std::int64_t k,
                                  std::int64_t n, const Epilogue& ep) {
  __m256 acc[8];
#pragma GCC unroll 8
  for (auto& v : acc) v = _mm256_setzero_ps();
  const std::int64_t k8 = k - k % 8;
  for (std::int64_t kk = 0; kk < k8; kk += 8) {
    const __m256 av = _mm256_loadu_ps(arow + kk);
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r)
      acc[r] = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + (j + r) * k + kk), acc[r]);
  }
  __m256 dot = hsum8_x8(acc);
  for (std::int64_t t = 0; t < k - k8; ++t)
    dot = _mm256_fmadd_ps(_mm256_set1_ps(arow[k8 + t]), _mm256_load_ps(b_tail + 8 * t), dot);
  _mm256_storeu_ps(c + i * n + j,
                   epilogue_avx2(_mm256_add_ps(_mm256_setzero_ps(), dot), ep, i, j, n, 8));
}

// One element: the same order, for the last n % 8 columns.
GRADCOMP_AVX2 inline void nt_one(const float* arow, const float* brow, float* c, std::int64_t i,
                                 std::int64_t j, std::int64_t k, std::int64_t n,
                                 const Epilogue& ep) {
  __m256 acc = _mm256_setzero_ps();
  const std::int64_t k8 = k - k % 8;
  for (std::int64_t kk = 0; kk < k8; kk += 8)
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk), _mm256_loadu_ps(brow + kk), acc);
  float dot = hsum8(acc);
  for (std::int64_t kk = k8; kk < k; ++kk) dot = std::fma(arow[kk], brow[kk], dot);
  c[i * n + j] = apply_epilogue(0.0F + dot, ep, i, j, n);
}

// B rows outer: a block of eight B rows stays in L1 while every A row of
// the range streams past it, so B (the weight matrix of x * W^T) is read
// once per call rather than once per A row.
GRADCOMP_AVX2 void gemm_nt_avx2(const float* pa, const float* pb, float* pc, std::int64_t i0,
                                std::int64_t i1, std::int64_t k, std::int64_t n,
                                const Epilogue& ep) {
  const std::int64_t k8 = k - k % 8;
  alignas(32) float b_tail[7 * 8];
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    for (std::int64_t t = 0; t < k - k8; ++t)
      for (int r = 0; r < 8; ++r) b_tail[8 * t + r] = pb[(j + r) * k + k8 + t];
    for (std::int64_t i = i0; i < i1; ++i) nt_row8(pa + i * k, pb, b_tail, pc, i, j, k, n, ep);
  }
  for (; j < n; ++j)
    for (std::int64_t i = i0; i < i1; ++i) nt_one(pa + i * k, pb + j * k, pc, i, j, k, n, ep);
}

#undef GRADCOMP_AVX2

#endif  // GRADCOMP_SIMD_X86

// --- dispatch state ----------------------------------------------------------

Level resolve_initial_level() {
  Level level = detected_level();
  if (const char* env = std::getenv("GRADCOMP_SIMD")) {
    if (const auto parsed = parse_level(env)) {
      // A downgrade always works; an upgrade request on an unsupported
      // build/host is ignored rather than crashing later on an illegal
      // instruction.
      if (*parsed == Level::kScalar || detected_level() == Level::kAvx2) level = *parsed;
    }
  }
  return level;
}

std::atomic<Level>& level_cell() {
  static std::atomic<Level> cell{resolve_initial_level()};
  return cell;
}

}  // namespace

bool compiled_with_avx2() noexcept { return GRADCOMP_SIMD_X86 != 0; }

bool host_supports_avx2() noexcept {
#if GRADCOMP_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

Level detected_level() noexcept {
  return compiled_with_avx2() && host_supports_avx2() ? Level::kAvx2 : Level::kScalar;
}

Level active_level() noexcept { return level_cell().load(); }

void set_level(Level level) {
  if (level == Level::kAvx2 && detected_level() != Level::kAvx2)
    throw std::invalid_argument("simd::set_level: AVX2 not available on this build/host");
  level_cell().store(level);
}

const char* level_name(Level level) noexcept {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

std::optional<Level> parse_level(std::string_view name) noexcept {
  if (name == "scalar") return Level::kScalar;
  if (name == "avx2") return Level::kAvx2;
  return std::nullopt;
}

std::uint64_t cycle_counter() noexcept {
#if GRADCOMP_SIMD_X86
  return __rdtsc();
#else
  return 0;
#endif
}

// --- dispatched entry points -------------------------------------------------

#if GRADCOMP_SIMD_X86
#define GRADCOMP_DISPATCH(avx2_call, scalar_call) \
  do {                                            \
    if (active_level() == Level::kAvx2) {         \
      avx2_call;                                  \
    } else {                                      \
      scalar_call;                                \
    }                                             \
  } while (false)
#else
#define GRADCOMP_DISPATCH(avx2_call, scalar_call) \
  do {                                            \
    scalar_call;                                  \
  } while (false)
#endif

void pack_signs(const float* values, std::int64_t n, std::byte* bits) {
  GRADCOMP_DISPATCH(pack_signs_avx2(values, n, bits), pack_signs_scalar(values, n, bits));
}

void unpack_signs(const std::byte* bits, std::int64_t n, float* out) {
  unpack_select(bits, n, 1.0F, -1.0F, out);
}

void unpack_select(const std::byte* bits, std::int64_t n, float pos_level, float neg_level,
                   float* out) {
  GRADCOMP_DISPATCH(unpack_select_avx2(bits, n, pos_level, neg_level, out),
                    unpack_select_scalar(bits, n, pos_level, neg_level, out));
}

void to_half(const float* src, std::int64_t n, std::uint16_t* dst) {
  GRADCOMP_DISPATCH(to_half_avx2(src, n, dst), to_half_scalar(src, n, dst));
}

void from_half(const std::uint16_t* src, std::int64_t n, float* dst) {
  GRADCOMP_DISPATCH(from_half_avx2(src, n, dst), from_half_scalar(src, n, dst));
}

std::int64_t count_abs_ge(const float* values, std::int64_t n, float threshold) {
#if GRADCOMP_SIMD_X86
  if (active_level() == Level::kAvx2) return count_abs_ge_avx2(values, n, threshold);
#endif
  return count_abs_ge_scalar(values, n, threshold);
}

std::int64_t collect_abs_ge(const float* values, std::int64_t n, float threshold,
                            std::int64_t index_base, std::int64_t* out) {
#if GRADCOMP_SIMD_X86
  if (active_level() == Level::kAvx2)
    return collect_abs_ge_avx2(values, n, threshold, index_base, out);
#endif
  return collect_abs_ge_scalar(values, n, threshold, index_base, out);
}

void qsgd_decode(const std::uint8_t* codes, std::int64_t n, float norm, float levels,
                 float* out) {
  GRADCOMP_DISPATCH(qsgd_decode_avx2(codes, n, norm, levels, out),
                    qsgd_decode_scalar(codes, n, norm, levels, out));
}

void terngrad_decode(const std::uint8_t* codes, std::int64_t n, float scale, float* out) {
  GRADCOMP_DISPATCH(terngrad_decode_avx2(codes, n, scale, out),
                    terngrad_decode_scalar(codes, n, scale, out));
}

void gemm_nn(const float* a, const float* b, float* c, std::int64_t i0, std::int64_t i1,
             std::int64_t k, std::int64_t n, const Epilogue& ep) {
  GRADCOMP_DISPATCH(
      gemm_nn_avx2(a, b, c, i0, i1, k, n, ep),
      gemm_scalar(c, i0, i1, n, ep, [&] { gemm_nn_scalar(a, b, c, i0, i1, k, n); }));
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t i0, std::int64_t i1,
             std::int64_t k, std::int64_t m, std::int64_t n, const Epilogue& ep) {
  GRADCOMP_DISPATCH(
      gemm_tn_avx2(a, b, c, i0, i1, k, m, n, ep),
      gemm_scalar(c, i0, i1, n, ep, [&] { gemm_tn_scalar(a, b, c, i0, i1, k, m, n); }));
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t i0, std::int64_t i1,
             std::int64_t k, std::int64_t n, const Epilogue& ep) {
  GRADCOMP_DISPATCH(
      gemm_nt_avx2(a, b, c, i0, i1, k, n, ep),
      gemm_scalar(c, i0, i1, n, ep, [&] { gemm_nt_scalar(a, b, c, i0, i1, k, n); }));
}

#undef GRADCOMP_DISPATCH

}  // namespace gradcomp::tensor::simd
