#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <stdexcept>

#include "stats/summary.hpp"
#include "tensor/rng.hpp"

namespace stepbench {

namespace gc = gradcomp;

namespace {

// Distinct streams per input, all derived from the one workload seed.
constexpr std::uint64_t kLabelNoiseStream = 0x6c6162656c6e6f69ULL;
constexpr std::uint64_t kChurnStream = 0x636875726e706c61ULL;

constexpr float kBlobSpread = 4.0F;
// Inputs are scaled down after generation so the initial loss starts near
// ln(classes) rather than saturating the softmax.
constexpr float kInputScale = 0.25F;
// Share of labels redrawn uniformly: keeps the reachable loss well above
// zero, so final_loss measures something on every seed.
constexpr double kLabelNoise = 0.3;

std::vector<Workload> build_workloads() {
  const std::vector<std::int64_t> wide = {256, 1024, 1024, 16};
  std::vector<std::int64_t> deep = {64};
  deep.insert(deep.end(), 8, 128);
  deep.push_back(8);

  Workload dense;
  dense.name = "mlp_dense_sync";
  dense.layer_dims = wide;
  dense.compression.method = gc::compress::Method::kSyncSgd;

  Workload topk = dense;
  topk.name = "mlp_topk_gather";
  topk.compression.method = gc::compress::Method::kTopK;
  topk.compression.fraction = 0.01;
  topk.compression.error_feedback = true;

  Workload powersgd;
  powersgd.name = "deep_powersgd_latency";
  powersgd.layer_dims = deep;
  powersgd.compression.method = gc::compress::Method::kPowerSgd;
  powersgd.compression.rank = 4;
  // The small model memorizes 4096 samples within its longer loss horizon,
  // which makes final_loss swing with the seed; 16384 keeps it near the
  // label-noise floor.
  powersgd.samples = 16384;
  powersgd.lr = 0.1;
  powersgd.loss_steps = 256;

  Workload churn = dense;
  churn.name = "elastic_churn";
  churn.churn = true;

  return {dense, topk, powersgd, churn};
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = build_workloads();
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

gc::train::Dataset make_dataset(const Workload& w, std::uint64_t seed) {
  const std::int64_t classes = w.layer_dims.back();
  gc::train::Dataset data = gc::train::make_blobs(classes, w.layer_dims.front(),
                                                  w.samples / classes, kBlobSpread, seed);
  gc::tensor::Rng rng(seed ^ kLabelNoiseStream);
  for (auto& label : data.y)
    if (rng.next_double() < kLabelNoise)
      label = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(classes)));
  data.x.scale(kInputScale);
  return data;
}

gc::train::TrainerConfig make_config(const Workload& w, std::uint64_t seed) {
  gc::train::TrainerConfig config;
  config.world_size = kWorldSize;
  config.layer_dims = w.layer_dims;
  config.compression = w.compression;
  config.compression.seed = seed;
  config.optimizer.lr = w.lr;
  config.batch_per_worker = kBatchPerWorker;
  config.seed = seed;
  return config;
}

gc::core::FaultPlan churn_plan(const ChurnShape& shape, std::uint64_t seed) {
  gc::tensor::Rng rng(seed ^ kChurnStream);
  gc::core::FaultPlanOptions options;
  options.world_size = kWorldSize;
  options.seed = seed;
  for (int k = 0; k < shape.windows; ++k) {
    gc::core::RecoveryWindow window;
    window.rank = static_cast<int>(rng.next_below(kWorldSize));
    window.death_iteration =
        shape.first_death + k * shape.spacing +
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(shape.jitter) + 1));
    const auto extra = static_cast<std::uint64_t>(shape.max_extra_downtime) + 1;
    window.downtime = 2 + static_cast<int>(rng.next_below(extra));
    options.recovery_windows.push_back(window);
  }
  options.iterations = shape.first_death + (shape.windows + 1) * shape.spacing;
  return gc::core::FaultPlan::generate(options);
}

gc::train::TrainerConfig make_churn_config(const Workload& w, std::uint64_t seed) {
  gc::train::TrainerConfig config = make_config(w, seed);
  // 400 windows cover 16000 steps, far beyond any timed phase.
  config.fault_plan = churn_plan({20, 40, 10, 6, 400}, seed);
  config.recovery = gc::train::RecoveryPolicy::kRestoreCheckpoint;
  config.checkpoint_every = 10;
  return config;
}

double fwd_bwd_flops(const std::vector<std::int64_t>& dims, std::int64_t batch) {
  double flops = 0.0;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const double gemm = 2.0 * static_cast<double>(batch * dims[i] * dims[i + 1]);
    flops += gemm * (i == 0 ? 2.0 : 3.0);
  }
  return flops;
}

double percentile(const std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  gc::stats::Summary summary;
  for (const double s : samples) summary.add(s);
  return summary.percentile(q);
}

std::size_t count_above(const std::vector<double>& samples, double value) {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), [&](double s) { return s > value; }));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace stepbench
