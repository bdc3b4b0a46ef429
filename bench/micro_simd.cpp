// Roofline micro-benchmark for the tensor::simd dispatch layer.
//
// Times every dispatched kernel at Level::kScalar and (when the host
// supports it) Level::kAvx2 in the same process, reporting milliseconds per
// call, roofline-style bytes/cycle (bytes the kernel streams per rdtsc
// cycle), and speedup-vs-scalar per kernel. Emits a google-benchmark-style
// JSON document to stdout and to BENCH_simd.json so CI can archive the
// numbers and speedups are ratcheted, not anecdotal.
//
// All kernel calls go through the public tensor::simd entry points — no
// pool, no intrinsics here (gradcheck's raw-intrinsic rule applies to
// bench/ too); cycles come from simd::cycle_counter().
//
// Usage: micro_simd   (argument-free, terminates in a few seconds)
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "stats/timer.hpp"
#include "tensor/rng.hpp"
#include "tensor/simd.hpp"

namespace {

using namespace gradcomp;
namespace simd = tensor::simd;

struct KernelResult {
  std::string kernel;
  std::string level;
  double real_ms = 0.0;
  double bytes_per_cycle = 0.0;
  int iterations = 0;
  double speedup_vs_scalar = 0.0;  // 0 when this row IS the scalar row
};

struct Kernel {
  std::string name;
  double bytes_per_iter;  // streamed bytes (reads + writes) per call
  int iters;
  std::function<void()> fn;
};

// Times `k.fn` at the given level; ms/call and bytes/cycle over the run.
KernelResult run_kernel(const Kernel& k, simd::Level level) {
  simd::set_level(level);
  k.fn();  // warm-up: first-touch + branch predictors
  const std::uint64_t c0 = simd::cycle_counter();
  stats::WallTimer t;
  for (int i = 0; i < k.iters; ++i) k.fn();
  const double ms = t.millis() / k.iters;
  const std::uint64_t c1 = simd::cycle_counter();
  KernelResult r;
  r.kernel = k.name;
  r.level = simd::level_name(level);
  r.real_ms = ms;
  r.iterations = k.iters;
  const double cycles = static_cast<double>(c1 - c0);
  r.bytes_per_cycle =
      cycles > 0 ? k.bytes_per_iter * static_cast<double>(k.iters) / cycles : 0.0;
  return r;
}

}  // namespace

int main() {
  tensor::Rng rng(42);
  const simd::Level detected = simd::detected_level();
  const bool have_avx2 = detected == simd::Level::kAvx2;

  // --- kernel inputs ---------------------------------------------------------
  const std::int64_t n = 1 << 22;  // 4M floats, ~a ResNet-50 gradient
  std::vector<float> values(static_cast<std::size_t>(n));
  for (auto& v : values) v = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  std::vector<std::byte> bits(static_cast<std::size_t>((n + 7) / 8));
  std::vector<float> floats_out(static_cast<std::size_t>(n));
  std::vector<std::uint16_t> halves(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> codes(static_cast<std::size_t>(n));
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  std::vector<std::uint8_t> tern_codes(static_cast<std::size_t>((n + 3) / 4));
  for (auto& c : tern_codes) c = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  // Top-k's filter runs over 32768-element chunks; adding zeros keeps the
  // accumulating row's input the same across repetitions.
  const std::int64_t chunk = 1 << 15;
  std::vector<std::uint16_t> hits(static_cast<std::size_t>(chunk));
  std::vector<float> zeros(static_cast<std::size_t>(n), 0.0F);
  std::vector<float> acc = values;

  const std::int64_t gm = 256;
  const std::int64_t gk = 256;
  const std::int64_t gn = 256;
  std::vector<float> ga(static_cast<std::size_t>(gm * gk));
  std::vector<float> gb(static_cast<std::size_t>(gk * gn));
  std::vector<float> gc(static_cast<std::size_t>(gm * gn), 0.0F);
  for (auto& v : ga) v = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  for (auto& v : gb) v = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  // The wide MLP's hidden layer at batch 32 (the stepbench model): forward
  // x * W^T, dInput d * W and gradW d^T * x. mlp_small holds the 32 x 1024
  // activations and deltas, mlp_w the 1024 x 1024 weights and gradient.
  const std::int64_t mb = 32;
  const std::int64_t mw = 1024;
  std::vector<float> mlp_x(static_cast<std::size_t>(mb * mw));
  std::vector<float> mlp_d(static_cast<std::size_t>(mb * mw));
  std::vector<float> mlp_y(static_cast<std::size_t>(mb * mw));
  std::vector<float> mlp_w(static_cast<std::size_t>(mw * mw));
  std::vector<float> mlp_gw(static_cast<std::size_t>(mw * mw));
  for (auto* buf : {&mlp_x, &mlp_d, &mlp_w})
    for (auto& v : *buf) v = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  const double mlp_bytes = static_cast<double>((2 * mb * mw + mw * mw) * 4);

  const double nf = static_cast<double>(n);
  const std::vector<Kernel> kernels = {
      {"sign_pack", nf * 4 + nf / 8, 20,
       [&] { simd::pack_signs(values.data(), n, bits.data()); }},
      {"sign_unpack", nf / 8 + nf * 4, 20,
       [&] { simd::unpack_signs(bits.data(), n, floats_out.data()); }},
      {"fp16_to_half", nf * 4 + nf * 2, 10,
       [&] { simd::to_half(values.data(), n, halves.data()); }},
      {"fp16_from_half", nf * 2 + nf * 4, 10,
       [&] { simd::from_half(halves.data(), n, floats_out.data()); }},
      {"topk_filter", nf * 4, 20,
       [&] {
         for (std::int64_t lo = 0; lo < n; lo += chunk)
           (void)simd::filter_abs_ge(values.data() + lo, chunk, 0.99F, hits.data());
       }},
      {"topk_accumulate_filter", nf * 12, 10,
       [&] {
         for (std::int64_t lo = 0; lo < n; lo += chunk)
           (void)simd::accumulate_filter_abs_ge(zeros.data() + lo, acc.data() + lo, chunk, 0.99F,
                                                hits.data());
       }},
      {"qsgd_decode", nf * 1 + nf * 4, 10,
       [&] { simd::qsgd_decode(codes.data(), n, 3.5F, 127.0F, floats_out.data()); }},
      {"terngrad_decode", nf / 4 + nf * 4, 10,
       [&] { simd::terngrad_decode(tern_codes.data(), n, 0.5F, floats_out.data()); }},
      // GEMM bytes are nominal streams (A + B read once, C written once);
      // the interesting column for it is speedup, not bytes/cycle.
      {"gemm_nn_256", static_cast<double>((gm * gk + gk * gn + gm * gn) * 4), 10,
       [&] { simd::gemm_nn(ga.data(), gb.data(), gc.data(), 0, gm, gk, gn); }},
      {"gemm_nt_32x1024x1024", mlp_bytes, 10,
       [&] { simd::gemm_nt(mlp_x.data(), mlp_w.data(), mlp_y.data(), 0, mb, mw, mw); }},
      {"gemm_nn_32x1024x1024", mlp_bytes, 10,
       [&] { simd::gemm_nn(mlp_d.data(), mlp_w.data(), mlp_y.data(), 0, mb, mw, mw); }},
      {"gemm_tn_1024x32x1024", mlp_bytes, 10,
       [&] { simd::gemm_tn(mlp_d.data(), mlp_x.data(), mlp_gw.data(), 0, mw, mb, mw, mw); }},
  };

  std::vector<KernelResult> results;
  for (const Kernel& k : kernels) {
    const KernelResult scalar = run_kernel(k, simd::Level::kScalar);
    results.push_back(scalar);
    if (have_avx2) {
      KernelResult vec = run_kernel(k, simd::Level::kAvx2);
      vec.speedup_vs_scalar = vec.real_ms > 0 ? scalar.real_ms / vec.real_ms : 0.0;
      results.push_back(vec);
    }
  }
  simd::set_level(detected);  // leave the process at the default level

  // --- emit google-benchmark-style JSON --------------------------------------
  std::ostringstream json;
  json << "{\n"
       << "  \"context\": {\n"
       << "    \"executable\": \"micro_simd\",\n"
       << "    \"compiled_with_avx2\": " << (simd::compiled_with_avx2() ? "true" : "false")
       << ",\n"
       << "    \"host_supports_avx2\": " << (simd::host_supports_avx2() ? "true" : "false")
       << ",\n"
       << "    \"isa\": \"" << simd::level_name(detected) << "\",\n"
       << "    \"elements\": " << n << "\n"
       << "  },\n"
       << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    json << "    {\"name\": \"" << r.kernel << "/" << r.level
         << "\", \"iterations\": " << r.iterations << ", \"real_time\": " << r.real_ms
         << ", \"cpu_time\": " << r.real_ms << ", \"time_unit\": \"ms\""
         << ", \"bytes_per_cycle\": " << r.bytes_per_cycle;
    if (r.speedup_vs_scalar > 0) json << ", \"speedup_vs_scalar\": " << r.speedup_vs_scalar;
    json << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::cout << json.str();
  std::ofstream("BENCH_simd.json") << json.str();

  // Human-readable speedup summary on stderr.
  for (const KernelResult& r : results)
    if (r.speedup_vs_scalar > 0)
      std::cerr << r.kernel << ": " << r.speedup_vs_scalar << "x vs scalar ("
                << r.bytes_per_cycle << " B/cycle)\n";
  if (!have_avx2) std::cerr << "AVX2 unavailable: scalar-only run\n";
  return 0;
}
