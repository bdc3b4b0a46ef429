// Serial-vs-pool micro benchmark for the parallel execution layer.
//
// Times the three rewritten kernels (sampled-threshold top-k, row-blocked
// matmul, word-at-a-time sign packing) and a 4-point weak-scaling sweep at
// --jobs 1 versus the requested job count, verifying along the way that the
// sweep's Measurement values are bit-exact at both settings. Emits a
// google-benchmark-style JSON document to stdout and to BENCH_parallel.json
// so CI can archive and diff the numbers.
//
// Usage: micro_parallel [--jobs N]   (default: hardware concurrency)
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "compress/signsgd.hpp"
#include "core/parallel.hpp"
#include "sim/experiment.hpp"
#include "stats/timer.hpp"
#include "tensor/linalg.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"
#include "tensor/topk.hpp"

namespace {

using namespace gradcomp;

struct Result {
  std::string name;
  double real_ms = 0.0;
  int iterations = 0;
};

// Times `fn` enough times to get a stable mean; returns milliseconds/call.
template <typename Fn>
Result timed(const std::string& name, int iters, Fn&& fn) {
  fn();  // warm-up (first-touch, pool spin-up)
  stats::WallTimer t;
  for (int i = 0; i < iters; ++i) fn();
  return {name, t.millis() / iters, iters};
}

sim::Measurement run_sweep_point(int workers) {
  core::Cluster cluster;
  cluster.world_size = workers;
  cluster.network = comm::Network::from_gbps(10.0);
  cluster.device = models::Device::v100();
  sim::SimOptions options;
  options.jitter_frac = 0.03;
  options.seed = 1;
  compress::CompressorConfig config;
  config.method = compress::Method::kPowerSgd;
  config.rank = 4;
  core::Workload workload{models::resnet50(), 64};
  return sim::measure(cluster, options, config, workload, sim::MeasurementProtocol{});
}

std::vector<sim::ScalingPoint> run_sweep() {
  core::Cluster cluster;
  cluster.network = comm::Network::from_gbps(10.0);
  cluster.device = models::Device::v100();
  sim::SimOptions options;
  options.jitter_frac = 0.03;
  options.seed = 1;
  compress::CompressorConfig config;
  config.method = compress::Method::kPowerSgd;
  config.rank = 4;
  core::Workload workload{models::resnet50(), 64};
  return sim::weak_scaling(cluster, options, config, workload, {8, 16, 32, 64},
                           sim::MeasurementProtocol{});
}

bool measurements_equal(const std::vector<sim::ScalingPoint>& a,
                        const std::vector<sim::ScalingPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto eq = [](const sim::Measurement& x, const sim::Measurement& y) {
      return x.mean.value() == y.mean.value() && x.stddev.value() == y.stddev.value() &&
             x.mean_encode.value() == y.mean_encode.value() && x.mean_decode.value() == y.mean_decode.value() &&
             x.mean_comm.value() == y.mean_comm.value();
    };
    if (a[i].workers != b[i].workers || !eq(a[i].sync, b[i].sync) ||
        !eq(a[i].compressed, b[i].compressed))
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;  // 0 = hardware default
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc)
      jobs = std::atoi(argv[++i]);
    else if (arg.rfind("--jobs=", 0) == 0)
      jobs = std::atoi(arg.substr(7).data());
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int effective_jobs = jobs > 0 ? jobs : static_cast<int>(hw > 0 ? hw : 1);

  std::vector<Result> results;
  tensor::Rng rng(42);

  // --- top-k: exact (serial nth_element over all indices) vs fast (spread
  // sample -> threshold, one filter pass over pooled chunks, nth_element
  // over the survivors' magnitudes)
  {
    const std::int64_t n = 1 << 22;  // 4M elements, ~a ResNet-50 gradient
    const std::int64_t k = n / 100;  // TopK-1%
    const tensor::Tensor grad = tensor::Tensor::randn({n}, rng);
    tensor::Workspace ws;
    tensor::TopKResult out;
    core::set_global_pool_threads(1);
    results.push_back(timed("topk/exact_serial", 5, [&] {
      tensor::top_k_abs_exact_into(grad.data(), k, out, &ws);
    }));
    core::set_global_pool_threads(effective_jobs);
    results.push_back(timed("topk/fast_pool", 5, [&] {
      tensor::top_k_abs_into(grad.data(), k, out, &ws);
    }));
  }

  // --- matmul: row-panel GEMM at jobs=1 vs jobs=N (PowerSGD M^T * M shape).
  // The two configs are timed interleaved (alternating every repetition) and
  // reported as min-of-reps: back-to-back means let frequency decay and cache
  // state land entirely on whichever config ran second, which is what
  // manufactured the historical matmul/pool "regression".
  {
    const tensor::Tensor a = tensor::Tensor::randn({1024, 512}, rng);
    const tensor::Tensor b = tensor::Tensor::randn({512, 256}, rng);
    tensor::Tensor c;
    const auto run = [&] {
      tensor::matmul_into(a, b, tensor::Transpose::kNo, tensor::Transpose::kNo, c);
    };
    constexpr int kReps = 150;
    double serial_best = std::numeric_limits<double>::infinity();
    double pool_best = std::numeric_limits<double>::infinity();
    core::set_global_pool_threads(1);
    run();  // warm-up (first-touch)
    const auto sample = [&](bool pooled) {
      core::set_global_pool_threads(pooled ? effective_jobs : 1);
      stats::WallTimer t;
      run();
      double& best = pooled ? pool_best : serial_best;
      best = std::min(best, t.millis());
    };
    for (int r = 0; r < kReps; ++r) {
      // Swap which config goes first every repetition: frequency decay
      // during sustained FMA work penalizes whichever run comes second.
      sample(r % 2 == 1);
      sample(r % 2 == 0);
    }
    results.push_back({"matmul/serial", serial_best, kReps});
    results.push_back({"matmul/pool", pool_best, kReps});
  }

  // --- signsgd pack: word-at-a-time packing at jobs=1 vs jobs=N
  {
    const std::int64_t n = 1 << 24;  // 16M signs
    const tensor::Tensor grad = tensor::Tensor::randn({n}, rng);
    std::vector<std::byte> bits(static_cast<std::size_t>((n + 7) / 8));
    core::set_global_pool_threads(1);
    results.push_back(timed("signsgd_pack/serial", 10, [&] {
      compress::SignSgdCompressor::pack_signs_into(grad.data(), bits);
    }));
    core::set_global_pool_threads(effective_jobs);
    results.push_back(timed("signsgd_pack/pool", 10, [&] {
      compress::SignSgdCompressor::pack_signs_into(grad.data(), bits);
    }));
  }

  // --- weak-scaling sweep: 4 points dispatched serially vs onto the pool.
  // The acceptance bar: bit-exact Measurement values at any job count.
  std::vector<sim::ScalingPoint> serial_sweep;
  std::vector<sim::ScalingPoint> pooled_sweep;
  double sweep_serial = 0.0;
  double sweep_pool = 0.0;
  {
    core::set_global_pool_threads(1);
    results.push_back(timed("weak_scaling_4pt/serial", 3, [&] { serial_sweep = run_sweep(); }));
    sweep_serial = results.back().real_ms;
    core::set_global_pool_threads(effective_jobs);
    results.push_back(
        timed("weak_scaling_4pt/jobs" + std::to_string(effective_jobs), 3,
              [&] { pooled_sweep = run_sweep(); }));
    sweep_pool = results.back().real_ms;
  }
  const bool bit_exact = measurements_equal(serial_sweep, pooled_sweep);

  // Single-point measure cost, for context in the JSON.
  {
    core::set_global_pool_threads(effective_jobs);
    results.push_back(timed("measure_1pt/resnet50_p16", 3, [] { (void)run_sweep_point(16); }));
  }

  // --- emit google-benchmark-style JSON --------------------------------------
  std::ostringstream json;
  json << "{\n"
       << "  \"context\": {\n"
       << "    \"executable\": \"micro_parallel\",\n"
       << "    \"num_cpus\": " << (hw > 0 ? hw : 1) << ",\n"
       << "    \"jobs\": " << effective_jobs << ",\n"
       << "    \"sweep_bit_exact\": " << (bit_exact ? "true" : "false") << "\n"
       << "  },\n"
       << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    json << "    {\"name\": \"" << r.name << "\", \"iterations\": " << r.iterations
         << ", \"real_time\": " << r.real_ms << ", \"cpu_time\": " << r.real_ms
         << ", \"time_unit\": \"ms\"}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::cout << json.str();
  std::ofstream("BENCH_parallel.json") << json.str();

  std::cerr << "sweep speedup (--jobs " << effective_jobs << " vs --jobs 1): "
            << (sweep_pool > 0 ? sweep_serial / sweep_pool : 0.0) << "x; bit-exact: "
            << (bit_exact ? "yes" : "NO") << "\n";
  if (!bit_exact) {
    std::cerr << "ERROR: pooled sweep diverged from serial sweep\n";
    return 1;
  }
  return 0;
}
