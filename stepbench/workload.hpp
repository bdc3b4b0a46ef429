// Workloads of the real-stack step benchmark and the helpers the untraced
// (end-to-end) and traced (per-layer) runs share.
//
// Every workload runs the in-process stack tensor -> compress ->
// comm::ThreadComm -> train at p = kWorldSize rank threads with the global
// kernel pool at one thread, so the process keeps one busy thread per core.
// The workload seed is the only input: it seeds the dataset, the model
// init, the compressor and the fault plan.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "compress/compressor.hpp"
#include "core/fault_plan.hpp"
#include "train/data.hpp"
#include "train/trainer.hpp"

namespace stepbench {

inline constexpr int kWorldSize = 4;
inline constexpr std::int64_t kBatchPerWorker = 32;

struct Workload {
  std::string name;
  std::vector<std::int64_t> layer_dims;  // {input, hidden..., classes}
  std::int64_t samples = 4096;           // dataset size
  gradcomp::compress::CompressorConfig compression;
  double lr = 0.05;
  int loss_steps = 64;  // final_loss is taken after exactly this many steps
  bool churn = false;   // death -> downtime -> rejoin windows in the timed phase
};

[[nodiscard]] const std::vector<Workload>& workloads();
// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const Workload& find_workload(const std::string& name);

[[nodiscard]] gradcomp::train::Dataset make_dataset(const Workload& w, std::uint64_t seed);

// Fault-free trainer configuration of the workload.
[[nodiscard]] gradcomp::train::TrainerConfig make_config(const Workload& w, std::uint64_t seed);

// Seeded death -> downtime -> rejoin windows: window k kills a random rank
// at first_death + k * spacing + jitter and brings it back after 2 +
// [0, max_extra_downtime] steps.
struct ChurnShape {
  int first_death = 0;
  int spacing = 0;
  int jitter = 0;
  int max_extra_downtime = 0;
  int windows = 0;
};
[[nodiscard]] gradcomp::core::FaultPlan churn_plan(const ChurnShape& shape, std::uint64_t seed);

// The timed-phase plan of elastic_churn: about one window per 40 steps,
// restore-from-checkpoint with a checkpoint every 10 steps.
[[nodiscard]] gradcomp::train::TrainerConfig make_churn_config(const Workload& w,
                                                               std::uint64_t seed);

// Floating-point operations of one Mlp::compute_gradients call: forward,
// weight gradient, and input gradient for every layer but the first.
[[nodiscard]] double fwd_bwd_flops(const std::vector<std::int64_t>& dims, std::int64_t batch);

using Clock = std::chrono::steady_clock;
[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Percentile by linear interpolation, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(const std::vector<double>& samples, double q);
// Count of samples strictly above the value.
[[nodiscard]] std::size_t count_above(const std::vector<double>& samples, double value);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports: its metrics, how many operations it attempted, and
// every failed operation or correctness check.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // context printed beside the metrics

  void fail(const std::string& why) {
    ++failed;
    errors.push_back(why);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace stepbench
