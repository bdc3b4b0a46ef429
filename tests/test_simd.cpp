// Scalar-vs-AVX2 equivalence for the tensor::simd dispatch layer.
//
// Every bit-level kernel must produce identical bytes at either dispatch
// level across unaligned pointers, every tail length (n mod 8, and n mod 32
// for the sign-word kernels), and hostile inputs (NaN, +/-0, denormals,
// infinities). The AVX2 GEMM kernels are held bit-exact to a scalar model
// of their FMA order instead, and to a relative tolerance against the
// scalar kernels, whose summation order differs. On hosts without AVX2 the
// cross-level tests skip; the scalar path is still exercised against the
// element-wise reference converters.
#include "tensor/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/half.hpp"
#include "tensor/rng.hpp"

namespace gradcomp::tensor::simd {
namespace {

// Restores the dispatch level even when an assertion bails out of the test.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level) : saved_(active_level()) { set_level(level); }
  ~ScopedLevel() { set_level(saved_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  Level saved_;
};

bool avx2_available() { return detected_level() == Level::kAvx2; }

// Mixed-magnitude input with the hostile values planted at varying offsets:
// NaN, +/-inf, +/-0, float denormals, and values that become half denormals
// or overflow to half inf.
std::vector<float> hostile_input(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            0.0F,
                            -0.0F,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1e-7F,   // half denormal range
                            -1e-7F,
                            7e4F,    // overflows half
                            -7e4F,
                            1.0F,
                            -1.0F};
  const std::int64_t nspecial = static_cast<std::int64_t>(std::size(specials));
  for (std::int64_t i = 0; i < n; i += 7)
    v[static_cast<std::size_t>(i)] = specials[(i / 7) % nspecial];
  return v;
}

// Offsets 0..3 into an over-allocated buffer exercise every pointer
// misalignment class the loadu/storeu paths must handle.
constexpr std::int64_t kOffsets[] = {0, 1, 2, 3};
constexpr std::int64_t kPad = 4;

TEST(SimdDispatch, ParseLevelVocabulary) {
  EXPECT_EQ(parse_level("scalar"), Level::kScalar);
  EXPECT_EQ(parse_level("avx2"), Level::kAvx2);
  EXPECT_FALSE(parse_level("sse2").has_value());
  EXPECT_FALSE(parse_level("").has_value());
  EXPECT_FALSE(parse_level("AVX2").has_value());
  EXPECT_STREQ(level_name(Level::kScalar), "scalar");
  EXPECT_STREQ(level_name(Level::kAvx2), "avx2");
}

TEST(SimdDispatch, ScalarAlwaysSettable) {
  ScopedLevel forced(Level::kScalar);
  EXPECT_EQ(active_level(), Level::kScalar);
}

TEST(SimdDispatch, DetectedLevelIsSettable) {
  set_level(detected_level());
  EXPECT_EQ(active_level(), detected_level());
}

TEST(SimdDispatch, ForcingUnsupportedLevelThrows) {
  if (avx2_available()) GTEST_SKIP() << "AVX2 supported; nothing is unsupported here";
  EXPECT_THROW(set_level(Level::kAvx2), std::invalid_argument);
}

TEST(SimdPackSigns, MatchesScalarAcrossTailsAndOffsets) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  // n mod 32 covers 0..31 via these sizes; offsets cover misalignment.
  for (std::int64_t n : {0, 1, 7, 8, 31, 32, 33, 63, 64, 95, 96, 100, 257, 1024, 1027}) {
    for (std::int64_t off : kOffsets) {
      std::vector<float> buf = hostile_input(n + kPad, 42 + static_cast<std::uint64_t>(n));
      const float* values = buf.data() + off;
      const auto nbytes = static_cast<std::size_t>((n + 7) / 8);
      std::vector<std::byte> scalar_bits(nbytes, std::byte{0xAA});
      std::vector<std::byte> simd_bits(nbytes, std::byte{0x55});
      {
        ScopedLevel forced(Level::kScalar);
        pack_signs(values, n, scalar_bits.data());
      }
      {
        ScopedLevel forced(Level::kAvx2);
        pack_signs(values, n, simd_bits.data());
      }
      EXPECT_EQ(scalar_bits, simd_bits) << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdPackSigns, NanPacksAsZeroNegativeZeroAsOne) {
  const float vals[] = {std::numeric_limits<float>::quiet_NaN(), -0.0F, 0.0F, -1.0F};
  for (Level level : {Level::kScalar, Level::kAvx2}) {
    if (level == Level::kAvx2 && !avx2_available()) continue;
    ScopedLevel forced(level);
    std::byte bits{0xFF};
    pack_signs(vals, 4, &bits);
    // bit0: NaN >= 0 is false; bit1: -0.0 >= 0 is true; bit2: true; bit3: false.
    EXPECT_EQ(bits, std::byte{0b0110}) << level_name(level);
  }
}

TEST(SimdUnpackSelect, MatchesScalarAndRoundTrips) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  for (std::int64_t n : {1, 31, 32, 33, 64, 97, 255, 256, 1000}) {
    std::vector<float> buf = hostile_input(n, 7);
    std::vector<std::byte> bits(static_cast<std::size_t>((n + 7) / 8));
    pack_signs(buf.data(), n, bits.data());
    std::vector<float> scalar_out(static_cast<std::size_t>(n));
    std::vector<float> simd_out(static_cast<std::size_t>(n));
    {
      ScopedLevel forced(Level::kScalar);
      unpack_select(bits.data(), n, 0.25F, -0.75F, scalar_out.data());
    }
    {
      ScopedLevel forced(Level::kAvx2);
      unpack_select(bits.data(), n, 0.25F, -0.75F, simd_out.data());
    }
    EXPECT_EQ(0, std::memcmp(scalar_out.data(), simd_out.data(),
                             static_cast<std::size_t>(n) * sizeof(float)))
        << "n=" << n;
    // unpack_signs is unpack_select(+1, -1).
    std::vector<float> signs(static_cast<std::size_t>(n));
    unpack_signs(bits.data(), n, signs.data());
    for (std::int64_t i = 0; i < n; ++i)
      EXPECT_TRUE(signs[static_cast<std::size_t>(i)] == 1.0F ||
                  signs[static_cast<std::size_t>(i)] == -1.0F);
  }
}

TEST(SimdHalf, BitExactAgainstReferenceConverter) {
  // Both dispatch levels must match float_to_half element-for-element,
  // including the canonical NaN form — this is what keeps the golden wire
  // bytes identical whichever path ran.
  for (Level level : {Level::kScalar, Level::kAvx2}) {
    if (level == Level::kAvx2 && !avx2_available()) continue;
    ScopedLevel forced(level);
    for (std::int64_t n : {0, 1, 3, 7, 8, 9, 15, 16, 17, 255, 1000}) {
      for (std::int64_t off : kOffsets) {
        std::vector<float> buf = hostile_input(n + kPad, 11 + static_cast<std::uint64_t>(n));
        const float* src = buf.data() + off;
        std::vector<std::uint16_t> dst(static_cast<std::size_t>(n) + 1, 0xDEAD);
        to_half(src, n, dst.data());
        for (std::int64_t i = 0; i < n; ++i)
          EXPECT_EQ(dst[static_cast<std::size_t>(i)], float_to_half(src[i]))
              << level_name(level) << " n=" << n << " off=" << off << " i=" << i;
        EXPECT_EQ(dst[static_cast<std::size_t>(n)], 0xDEAD) << "kernel wrote past n";
      }
    }
  }
}

TEST(SimdHalf, FromHalfBitExactIncludingNanPayloads) {
  // Every half pattern class: zeros, denormals, normals, inf, quiet and
  // signaling NaN payloads (vcvtph2ps would quiet the latter; the kernel
  // must not).
  std::vector<std::uint16_t> patterns = {0x0000, 0x8000, 0x0001, 0x8001, 0x03FF, 0x0400,
                                         0x3C00, 0xBC00, 0x7BFF, 0xFBFF, 0x7C00, 0xFC00,
                                         0x7C01, 0xFC01, 0x7E00, 0xFE00, 0x7D55, 0xFFFF};
  while (patterns.size() % 8 != 3) patterns.push_back(0x5555);  // force a tail
  const auto n = static_cast<std::int64_t>(patterns.size());
  for (Level level : {Level::kScalar, Level::kAvx2}) {
    if (level == Level::kAvx2 && !avx2_available()) continue;
    ScopedLevel forced(level);
    std::vector<float> out(patterns.size());
    from_half(patterns.data(), n, out.data());
    for (std::int64_t i = 0; i < n; ++i) {
      const float expect = half_to_float(patterns[static_cast<std::size_t>(i)]);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(out[static_cast<std::size_t>(i)]),
                std::bit_cast<std::uint32_t>(expect))
          << level_name(level) << " pattern=" << std::hex
          << patterns[static_cast<std::size_t>(i)];
    }
  }
}

TEST(SimdThresholdFilter, FilterAndAccumulateMatchScalar) {
  // Both levels keep the same offsets (|v| >= t, NaN always) and store the
  // same sums, over every tail length and misalignment, in both modes.
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  const float inf = std::numeric_limits<float>::infinity();
  for (std::int64_t n : {0, 1, 5, 8, 13, 64, 100, 1000, 4099, 65536}) {
    for (std::int64_t off : kOffsets) {
      const std::vector<float> start = hostile_input(n + kPad, 99 + static_cast<std::uint64_t>(n));
      const std::vector<float> add = hostile_input(n + kPad, 7 + static_cast<std::uint64_t>(n));
      for (float t : {0.5F, 0.0F, -1.0F, std::numeric_limits<float>::denorm_min(), inf,
                      std::numeric_limits<float>::quiet_NaN()}) {
        for (const bool accumulate : {false, true}) {
          std::vector<float> values[2] = {start, start};
          std::vector<std::uint16_t> hits[2];
          std::int64_t count[2] = {0, 0};
          for (int l = 0; l < 2; ++l) {
            ScopedLevel forced(l == 0 ? Level::kScalar : Level::kAvx2);
            hits[l].resize(static_cast<std::size_t>(n) + 1);
            float* v = values[l].data() + off;
            count[l] = accumulate
                           ? accumulate_filter_abs_ge(add.data() + off, v, n, t, hits[l].data())
                           : filter_abs_ge(v, n, t, hits[l].data());
          }
          const std::string what = "n=" + std::to_string(n) + " off=" + std::to_string(off) +
                                   " t=" + std::to_string(t) + " acc=" + std::to_string(accumulate);
          ASSERT_EQ(count[0], count[1]) << what;
          ASSERT_EQ(std::memcmp(values[0].data(), values[1].data(), values[0].size() * 4), 0)
              << what;
          std::int64_t want = 0;
          for (std::int64_t i = 0; i < n; ++i) {
            if (std::abs(values[0][static_cast<std::size_t>(off + i)]) < t) continue;
            ASSERT_LT(want, count[0]) << what;
            ASSERT_EQ(hits[0][static_cast<std::size_t>(want)], i) << what;
            ASSERT_EQ(hits[1][static_cast<std::size_t>(want)], i) << what;
            ++want;
          }
          ASSERT_EQ(want, count[0]) << what;
        }
      }
    }
  }
}

TEST(SimdDequantize, QsgdDecodeBitExact) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(5);
  for (std::int64_t n : {1, 7, 8, 9, 16, 100, 1000, 1003}) {
    std::vector<std::uint8_t> codes(static_cast<std::size_t>(n));
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
    for (float norm : {0.0F, 1.0F, 3.75F, 1e30F}) {
      std::vector<float> scalar_out(static_cast<std::size_t>(n));
      std::vector<float> simd_out(static_cast<std::size_t>(n));
      {
        ScopedLevel forced(Level::kScalar);
        qsgd_decode(codes.data(), n, norm, 127.0F, scalar_out.data());
      }
      {
        ScopedLevel forced(Level::kAvx2);
        qsgd_decode(codes.data(), n, norm, 127.0F, simd_out.data());
      }
      EXPECT_EQ(0, std::memcmp(scalar_out.data(), simd_out.data(),
                               static_cast<std::size_t>(n) * sizeof(float)))
          << "n=" << n << " norm=" << norm;
    }
  }
}

TEST(SimdDequantize, TernGradDecodeBitExact) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(6);
  for (std::int64_t n : {1, 3, 4, 7, 8, 9, 31, 32, 100, 1001}) {
    std::vector<std::uint8_t> codes((static_cast<std::size_t>(n) + 3) / 4);
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
    for (float scale : {0.0F, 0.5F, 2.5F}) {
      std::vector<float> scalar_out(static_cast<std::size_t>(n));
      std::vector<float> simd_out(static_cast<std::size_t>(n));
      {
        ScopedLevel forced(Level::kScalar);
        terngrad_decode(codes.data(), n, scale, scalar_out.data());
      }
      {
        ScopedLevel forced(Level::kAvx2);
        terngrad_decode(codes.data(), n, scale, simd_out.data());
      }
      EXPECT_EQ(0, std::memcmp(scalar_out.data(), simd_out.data(),
                               static_cast<std::size_t>(n) * sizeof(float)))
          << "n=" << n << " scale=" << scale;
    }
  }
}

// --- GEMM -------------------------------------------------------------------

enum class Op { kNn, kTn, kNt };

const char* op_name(Op op) { return op == Op::kNn ? "nn" : op == Op::kTn ? "tn" : "nt"; }

// Operands of C = A(op) * B(op) (m x n) in each kernel's storage: A is
// m x k (k x m for TN), B is k x n (n x k for NT).
struct GemmCase {
  Op op;
  std::int64_t m, k, n;
  std::vector<float> a, b;
};

GemmCase make_case(Op op, std::int64_t m, std::int64_t k, std::int64_t n, Rng& rng) {
  GemmCase g{op, m, k, n, std::vector<float>(static_cast<std::size_t>(m * k)),
             std::vector<float>(static_cast<std::size_t>(k * n))};
  for (auto& x : g.a) x = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  for (auto& x : g.b) x = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  return g;
}

void run_gemm(const GemmCase& g, float* c, std::int64_t i0, std::int64_t i1,
              const Epilogue& ep = {}) {
  switch (g.op) {
    case Op::kNn: gemm_nn(g.a.data(), g.b.data(), c, i0, i1, g.k, g.n, ep); break;
    case Op::kTn: gemm_tn(g.a.data(), g.b.data(), c, i0, i1, g.k, g.m, g.n, ep); break;
    case Op::kNt: gemm_nt(g.a.data(), g.b.data(), c, i0, i1, g.k, g.n, ep); break;
  }
}

// Scalar model of the AVX2 kernels' per-element order (simd.hpp): NN and TN
// are one fma chain over k from +0; NT is eight lane chains over the
// 8-aligned prefix, the hsum8 tree, an fma chain over the k tail, then +0.
float fma_order_model(const GemmCase& g, std::int64_t i, std::int64_t j) {
  const auto a = [&](std::int64_t kk) {
    return g.a[static_cast<std::size_t>(g.op == Op::kTn ? kk * g.m + i : i * g.k + kk)];
  };
  const auto b = [&](std::int64_t kk) {
    return g.b[static_cast<std::size_t>(g.op == Op::kNt ? j * g.k + kk : kk * g.n + j)];
  };
  if (g.op != Op::kNt) {
    float c = 0.0F;
    for (std::int64_t kk = 0; kk < g.k; ++kk) c = std::fma(a(kk), b(kk), c);
    return c;
  }
  float lane[8] = {};
  const std::int64_t k8 = g.k - g.k % 8;
  for (std::int64_t kk = 0; kk < k8; ++kk) lane[kk % 8] = std::fma(a(kk), b(kk), lane[kk % 8]);
  float dot = ((lane[0] + lane[4]) + (lane[2] + lane[6])) + ((lane[1] + lane[5]) + (lane[3] + lane[7]));
  for (std::int64_t kk = k8; kk < g.k; ++kk) dot = std::fma(a(kk), b(kk), dot);
  return 0.0F + dot;
}

float epilogue_model(float c, const Epilogue& ep, std::int64_t i, std::int64_t j,
                     std::int64_t n) {
  if (ep.bias != nullptr) c = c + ep.bias[j];
  if (ep.relu) c = std::max(c, 0.0F);
  if (ep.gate != nullptr && ep.gate[i * n + j] <= 0.0F) c = 0.0F;
  return c;
}

bool same_bits(float x, float y) { return std::memcmp(&x, &y, sizeof(float)) == 0; }

// The MLP's three shapes (forward x * W^T, dInput d * W, gradW d^T * x, at
// batch 32 and width 1024), then row, j and k tails, k = 0, k < 8, and
// blocks split in k and in n.
struct Shape {
  Op op;
  std::int64_t m, k, n;
};
const Shape kExactShapes[] = {
    {Op::kNt, 32, 1024, 1024}, {Op::kNn, 32, 1024, 1024}, {Op::kTn, 1024, 32, 1024},
    {Op::kNt, 32, 256, 1024},  {Op::kNt, 32, 1024, 16},   {Op::kNn, 32, 16, 1024},
    {Op::kTn, 16, 32, 1024},   {Op::kTn, 1024, 32, 256},
};
const std::int64_t kTailShapes[][3] = {{17, 5, 9},  {23, 31, 41}, {1, 1, 1},   {9, 300, 33},
                                       {13, 7, 4},  {40, 600, 20}, {3, 0, 5},  {70, 9, 17},
                                       {5, 1100, 12}};

TEST(SimdGemm, Avx2BitExactToFmaOrderModel) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  ScopedLevel forced(Level::kAvx2);
  Rng rng(8);
  std::vector<Shape> shapes(std::begin(kExactShapes), std::end(kExactShapes));
  for (const auto& t : kTailShapes)
    for (const Op op : {Op::kNn, Op::kTn, Op::kNt}) shapes.push_back({op, t[0], t[1], t[2]});
  for (const Shape& s : shapes) {
    const GemmCase g = make_case(s.op, s.m, s.k, s.n, rng);
    // Two row ranges split off the 8-row grid, as pool chunks are; C starts
    // as garbage because the kernels overwrite it.
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n),
                         std::numeric_limits<float>::quiet_NaN());
    const std::int64_t split = s.m / 3;
    run_gemm(g, c.data(), 0, split);
    run_gemm(g, c.data(), split, s.m);
    std::int64_t wrong = 0;
    for (std::int64_t i = 0; i < s.m; ++i)
      for (std::int64_t j = 0; j < s.n; ++j)
        if (!same_bits(c[static_cast<std::size_t>(i * s.n + j)], fma_order_model(g, i, j)))
          ++wrong;
    EXPECT_EQ(wrong, 0) << op_name(s.op) << " " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(SimdGemm, EpilogueMatchesElementwiseModelAtBothLevels) {
  // Bias, ReLU and the ReLU gate, with NaN and -0.0 in every input that the
  // epilogue reads, against the model applied element by element.
  Rng rng(12);
  for (const auto& t : kTailShapes) {
    for (const Op op : {Op::kNn, Op::kTn, Op::kNt}) {
      const GemmCase g = make_case(op, t[0], t[1], t[2], rng);
      const std::size_t mn = static_cast<std::size_t>(g.m * g.n);
      std::vector<float> bias = hostile_input(g.n, 3);
      std::vector<float> gate = hostile_input(g.m * g.n, 4);
      for (const Epilogue ep : {Epilogue{bias.data(), true, nullptr},
                                Epilogue{nullptr, false, gate.data()},
                                Epilogue{bias.data(), false, gate.data()}}) {
        for (Level level : {Level::kScalar, Level::kAvx2}) {
          if (level == Level::kAvx2 && !avx2_available()) continue;
          ScopedLevel forced(level);
          std::vector<float> plain(mn);
          std::vector<float> fused(mn, 7.0F);
          run_gemm(g, plain.data(), 0, g.m);
          run_gemm(g, fused.data(), 0, g.m, ep);
          std::int64_t wrong = 0;
          for (std::int64_t i = 0; i < g.m; ++i)
            for (std::int64_t j = 0; j < g.n; ++j) {
              const auto at = static_cast<std::size_t>(i * g.n + j);
              if (!same_bits(fused[at], epilogue_model(plain[at], ep, i, j, g.n))) ++wrong;
            }
          EXPECT_EQ(wrong, 0) << level_name(level) << " " << op_name(op) << " " << g.m << "x"
                              << g.k << "x" << g.n << " relu=" << ep.relu;
        }
      }
    }
  }
}

TEST(SimdGemm, AllVariantsMatchScalarWithinTolerance) {
  // The scalar kernels keep their own summation order, so the two levels
  // agree to relative O(k * eps).
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(8);
  for (const auto& t : kTailShapes) {
    for (const Op op : {Op::kNn, Op::kTn, Op::kNt}) {
      const GemmCase g = make_case(op, t[0], t[1], t[2], rng);
      std::vector<float> c_scalar(static_cast<std::size_t>(g.m * g.n), 0.5F);
      std::vector<float> c_simd(c_scalar.size(), -0.5F);
      {
        ScopedLevel forced(Level::kScalar);
        run_gemm(g, c_scalar.data(), 0, g.m);
      }
      {
        ScopedLevel forced(Level::kAvx2);
        run_gemm(g, c_simd.data(), 0, g.m);
      }
      const double tol = 1e-6 * static_cast<double>(std::max<std::int64_t>(g.k, 1));
      for (std::size_t i = 0; i < c_scalar.size(); ++i) {
        const double denom = std::max(1.0, std::abs(static_cast<double>(c_scalar[i])));
        EXPECT_NEAR(c_scalar[i], c_simd[i], tol * denom) << op_name(op) << " i=" << i;
      }
    }
  }
}

TEST(SimdGemm, PartialRowRangeTouchesOnlyItsRows) {
  // Row-partitioned callers hand each chunk [i0, i1); rows outside must not
  // be written at either level.
  Rng rng(9);
  for (const Op op : {Op::kNn, Op::kTn, Op::kNt}) {
    const GemmCase g = make_case(op, 20, 13, 11, rng);
    for (Level level : {Level::kScalar, Level::kAvx2}) {
      if (level == Level::kAvx2 && !avx2_available()) continue;
      ScopedLevel forced(level);
      std::vector<float> c(static_cast<std::size_t>(g.m * g.n), 7.0F);
      run_gemm(g, c.data(), 4, 12);
      for (std::int64_t i = 0; i < g.m; ++i) {
        const bool inside = i >= 4 && i < 12;
        for (std::int64_t j = 0; j < g.n; ++j) {
          const float v = c[static_cast<std::size_t>(i * g.n + j)];
          if (!inside)
            EXPECT_EQ(v, 7.0F) << level_name(level) << " " << op_name(op) << " row " << i
                               << " written outside range";
          else
            EXPECT_NE(v, 7.0F) << level_name(level) << " " << op_name(op) << " row " << i
                               << " not updated";
        }
      }
    }
  }
}

}  // namespace
}  // namespace gradcomp::tensor::simd
