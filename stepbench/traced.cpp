// Traced run: per-layer metrics, measured from outside the library by timing
// calls into each layer's public functions. Nothing in src/ is instrumented.
#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "compress/compressor.hpp"
#include "probes.hpp"
#include "runs.hpp"
#include "trace/timeline.hpp"
#include "trace/validate.hpp"

namespace stepbench {

namespace gc = gradcomp;
using gc::train::DataParallelTrainer;

namespace {

constexpr int kWarmupSteps = 5;  // run by both loops, excluded from every statistic
constexpr int kBlockSteps = 10;
constexpr std::size_t kMinSteps = 40;
constexpr int kCheckpointRounds = 10;

// Boundary stamps of one rank in one traced step, in seconds since the trace
// origin.
struct RankStamps {
  double start = 0.0;
  double batch_end = 0.0;
  double fwd_bwd_end = 0.0;
  // One entry per aggregate() call, in call order: w0, b0, w1, b1, ...
  std::vector<double> aggregate_end;
  std::vector<gc::compress::AggregateStats> aggregate;
  double optimizer_end = 0.0;
};

struct StepStamps {
  double run_start = 0.0;  // the driver's view, around run_ranks
  double run_end = 0.0;
  std::array<RankStamps, kWorldSize> ranks;
};

// Bench-owned replica of the fault-free DataParallelTrainer::step, built
// from the same public calls in the same order -- run_ranks -> batch ->
// compute_gradients -> per-layer aggregate -> SgdOptimizer::step -- so its
// parameters must stay bit-identical to a trainer on the same seed.
class TracedReplica {
 public:
  TracedReplica(const gc::train::TrainerConfig& config, const gc::train::Dataset& data)
      : config_(config), comm_(config.world_size, config.comm_timeout) {
    for (int r = 0; r < config_.world_size; ++r) {
      shards_.push_back(gc::train::shard(data, r, config_.world_size));
      models_.emplace_back(config_.layer_dims, config_.seed);
      compressors_.push_back(gc::compress::make_compressor(config_.compression));
      optimizers_.emplace_back(config_.optimizer);
    }
  }

  StepStamps step(Clock::time_point origin) {
    const auto now = [origin] { return seconds_between(origin, Clock::now()); };
    const std::size_t calls = 2 * models_.front().num_layers();
    StepStamps stamps;
    for (auto& s : stamps.ranks) {
      s.aggregate_end.resize(calls);
      s.aggregate.resize(calls);
    }
    stamps.run_start = now();
    gc::comm::run_ranks(config_.world_size, [&](int rank) {
      const auto r = static_cast<std::size_t>(rank);
      RankStamps& s = stamps.ranks[r];
      s.start = now();
      const gc::train::Dataset local =
          gc::train::batch(shards_[r], step_, config_.batch_per_worker);
      s.batch_end = now();
      (void)models_[r].compute_gradients(local.x, local.y);
      s.fwd_bwd_end = now();
      auto& layers = models_[r].layers();
      for (std::size_t i = 0; i < layers.size(); ++i) {
        s.aggregate[2 * i] = compressors_[r]->aggregate(static_cast<gc::compress::LayerId>(2 * i),
                                                        rank, comm_, layers[i].grad_w);
        s.aggregate_end[2 * i] = now();
        s.aggregate[2 * i + 1] = compressors_[r]->aggregate(
            static_cast<gc::compress::LayerId>(2 * i + 1), rank, comm_, layers[i].grad_b);
        s.aggregate_end[2 * i + 1] = now();
      }
      optimizers_[r].step(models_[r]);
      s.optimizer_end = now();
    });
    stamps.run_end = now();
    ++step_;
    return stamps;
  }

  [[nodiscard]] const gc::train::Mlp& model(int rank) const {
    return models_.at(static_cast<std::size_t>(rank));
  }
  [[nodiscard]] std::uint64_t allreduce_count() const noexcept { return comm_.allreduce_count(); }

 private:
  gc::train::TrainerConfig config_;
  std::vector<gc::train::Dataset> shards_;
  std::vector<gc::train::Mlp> models_;
  std::vector<std::unique_ptr<gc::compress::Compressor>> compressors_;
  std::vector<gc::train::SgdOptimizer> optimizers_;
  gc::comm::ThreadComm comm_;
  std::int64_t step_ = 0;
};

bool same_bits(const gc::tensor::Tensor& a, const gc::tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(), a.byte_size()) == 0;
}

// First rank/tensor where the replica and the trainer differ, or "" when
// every parameter of every rank is bit-identical.
std::string first_difference(const TracedReplica& replica, const DataParallelTrainer& trainer) {
  for (int r = 0; r < kWorldSize; ++r) {
    const auto& mine = replica.model(r).layers();
    const auto& theirs = trainer.replica(r).layers();
    for (std::size_t i = 0; i < mine.size(); ++i)
      if (!same_bits(mine[i].w, theirs[i].w) || !same_bits(mine[i].b, theirs[i].b))
        return "rank " + std::to_string(r) + " layer " + std::to_string(i);
  }
  return "";
}

// Per-layer sums over the post-warmup rank-steps.
struct LayerTotals {
  double batch_s = 0.0;
  double fwd_bwd_s = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  double aggregate_s = 0.0;
  double wait_s = 0.0;
  double optimizer_s = 0.0;
  double bytes_sent = 0.0;
  double run_ranks_overhead_s = 0.0;  // summed per step, not per rank
  std::size_t rank_steps = 0;
  std::size_t steps = 0;

  void add(const StepStamps& step) {
    double latest_arrival = 0.0;
    double longest_body = 0.0;
    for (const auto& s : step.ranks) {
      latest_arrival = std::max(latest_arrival, s.fwd_bwd_end);
      longest_body = std::max(longest_body, s.optimizer_end - s.start);
    }
    run_ranks_overhead_s += (step.run_end - step.run_start) - longest_body;
    ++steps;
    for (const auto& s : step.ranks) {
      const double aggregate_end = s.aggregate_end.back();
      batch_s += s.batch_end - s.start;
      fwd_bwd_s += s.fwd_bwd_end - s.batch_end;
      aggregate_s += aggregate_end - s.fwd_bwd_end;
      wait_s += latest_arrival - s.fwd_bwd_end;
      optimizer_s += s.optimizer_end - aggregate_end;
      for (const auto& a : s.aggregate) {
        encode_s += a.encode_seconds;
        decode_s += a.decode_seconds;
        bytes_sent += static_cast<double>(a.bytes_sent);
      }
      ++rank_steps;
    }
  }
  [[nodiscard]] double per_rank_step(double total) const {
    return total / static_cast<double>(rank_steps);
  }
};

// One lane per layer per rank, plus the driver's run_ranks lane.
gc::trace::Timeline build_timeline(const std::vector<StepStamps>& steps) {
  gc::trace::Timeline timeline;
  const auto add = [&](const std::string& stream, const std::string& label, double a, double b) {
    timeline.add(stream, label, gc::trace::Seconds{a}, gc::trace::Seconds{b});
  };
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const StepStamps& step = steps[k];
    add("driver run_ranks", "step " + std::to_string(k), step.run_start, step.run_end);
    double latest_arrival = 0.0;
    for (const auto& s : step.ranks) latest_arrival = std::max(latest_arrival, s.fwd_bwd_end);
    for (std::size_t r = 0; r < step.ranks.size(); ++r) {
      const RankStamps& s = step.ranks[r];
      const std::string lane = "rank" + std::to_string(r) + " ";
      add(lane + "train.data", "batch", s.start, s.batch_end);
      add(lane + "train.nn", "compute_gradients", s.batch_end, s.fwd_bwd_end);
      add(lane + "comm.wait", "wait for latest peer", s.fwd_bwd_end, latest_arrival);
      double prev = s.fwd_bwd_end;
      for (std::size_t c = 0; c < s.aggregate_end.size(); ++c) {
        const auto& a = s.aggregate[c];
        add(lane + "comm",
            "layer " + std::to_string(c / 2) + (c % 2 == 0 ? " w" : " b") + " aggregate: encode " +
                std::to_string(a.encode_seconds * 1e3) + " ms, decode " +
                std::to_string(a.decode_seconds * 1e3) + " ms, " + std::to_string(a.bytes_sent) +
                " B",
            prev, s.aggregate_end[c]);
        prev = s.aggregate_end[c];
      }
      add(lane + "train.optimizer", "SgdOptimizer::step", prev, s.optimizer_end);
    }
  }
  return timeline;
}

// Size of the trainer's in-band rejoin resync blob for this workload, read
// from a short run with one death -> rejoin window.
std::size_t resync_bytes(const Workload& w, std::uint64_t seed) {
  gc::train::TrainerConfig config = make_config(w, seed);
  config.fault_plan = churn_plan({1, 4, 0, 0, 1}, seed);
  DataParallelTrainer trainer(std::move(config), make_dataset(w, seed));
  while (trainer.rejoins().empty() && trainer.steps_taken() < 8) (void)trainer.step();
  if (trainer.rejoins().empty()) throw std::runtime_error("resync probe: no rejoin happened");
  return trainer.rejoins().front().resync_bytes;
}

std::string percent(double share) { return std::to_string(share * 100.0) + "%"; }

}  // namespace

Report run_traced(const Workload& w, std::uint64_t seed, double seconds,
                  const std::string& trace_dir) {
  Report report;
  const gc::train::TrainerConfig config = make_config(w, seed);
  const gc::train::Dataset data = make_dataset(w, seed);

  // The untraced trainer and the traced replica advance in alternating
  // blocks of steps, so a slow spell on the host hits both loops alike and
  // trace.overhead_frac compares like with like. Both end on the same step.
  DataParallelTrainer trainer(config, data);
  TracedReplica replica(config, data);
  const auto origin = Clock::now();
  for (int i = 0; i < kWarmupSteps; ++i) {
    (void)trainer.step();
    (void)replica.step(origin);
  }
  report.attempted += 2 * kWarmupSteps;
  const std::uint64_t allreduces_before = replica.allreduce_count();
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<StepStamps> steps;
  LayerTotals totals;
  while (seconds_between(origin, Clock::now()) < seconds || untraced_ms.size() < kMinSteps) {
    for (int i = 0; i < kBlockSteps; ++i) {
      const auto t0 = Clock::now();
      (void)trainer.step();
      untraced_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    for (int i = 0; i < kBlockSteps; ++i) {
      const auto t0 = Clock::now();
      steps.push_back(replica.step(origin));
      traced_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      totals.add(steps.back());
    }
  }
  report.attempted += static_cast<std::int64_t>(untraced_ms.size() + traced_ms.size());
  const double allreduces =
      static_cast<double>(replica.allreduce_count() - allreduces_before) /
      static_cast<double>(totals.steps);

  const std::string diff = first_difference(replica, trainer);
  if (!diff.empty()) report.fail("traced replica diverged from the trainer at " + diff);

  // Checkpoint probe on the reference trainer, after the comparison.
  std::vector<double> make_ms;
  std::vector<double> restore_ms;
  for (int i = 0; i < kCheckpointRounds; ++i) {
    const auto t0 = Clock::now();
    const gc::train::Checkpoint ck = trainer.make_checkpoint();
    const auto t1 = Clock::now();
    trainer.restore(ck);
    make_ms.push_back(seconds_between(t0, t1) * 1e3);
    restore_ms.push_back(seconds_between(t1, Clock::now()) * 1e3);
  }

  const CollectiveProbe collectives = probe_collectives();
  const ControlPlaneProbe control = probe_control_plane(resync_bytes(w, seed));

  gc::trace::Timeline timeline = build_timeline(steps);
  const auto violations = gc::trace::validate(timeline);
  if (!violations.empty())
    report.fail("trace::validate rejected the timeline: " + gc::trace::describe(violations));
  std::filesystem::create_directories(trace_dir);
  const std::string trace_path =
      trace_dir + "/stepbench-" + w.name + "-seed" + std::to_string(seed) + ".json";
  std::ofstream out(trace_path);
  timeline.render_chrome_json(out);
  if (!out) report.fail("could not write " + trace_path);

  double dense_bytes = 0.0;
  for (const auto& layer : replica.model(0).layers())
    dense_bytes += static_cast<double>(layer.w.byte_size() + layer.b.byte_size());

  const double ms = 1e3;
  const double fwd_bwd_s = totals.per_rank_step(totals.fwd_bwd_s);
  const double encode_s = totals.per_rank_step(totals.encode_s);
  const double decode_s = totals.per_rank_step(totals.decode_s);
  const double aggregate_s = totals.per_rank_step(totals.aggregate_s);
  const double wait_s = totals.per_rank_step(totals.wait_s);
  const double xfer_s = aggregate_s - encode_s - decode_s - wait_s;
  const double bytes_sent = totals.per_rank_step(totals.bytes_sent);
  const double traced_p50 = percentile(traced_ms, 0.5);
  const double untraced_p50 = percentile(untraced_ms, 0.5);

  report.add("train.data.batch_ms", totals.per_rank_step(totals.batch_s) * ms, "ms");
  report.add("train.nn.fwd_bwd_ms", fwd_bwd_s * ms, "ms");
  report.add("train.nn.gflops",
             fwd_bwd_flops(w.layer_dims, kBatchPerWorker) / fwd_bwd_s / 1e9, "GFLOP/s");
  report.add("compress.encode_ms", encode_s * ms, "ms");
  report.add("compress.decode_ms", decode_s * ms, "ms");
  report.add("compress.ratio", dense_bytes / bytes_sent, "x");
  report.add("comm.aggregate_ms", aggregate_s * ms, "ms");
  report.add("comm.wait_ms", wait_s * ms, "ms");
  report.add("comm.xfer_ms", xfer_s * ms, "ms");
  report.add("comm.wire_kb_per_step", bytes_sent / 1024.0, "KiB");
  report.add("comm.allreduce_calls_per_step", allreduces, "count");
  report.add("comm.run_ranks_overhead_us",
             totals.run_ranks_overhead_s / static_cast<double>(totals.steps) * 1e6, "us");
  report.add("comm.alpha_us", collectives.alpha_us, "us");
  report.add("comm.busbw_gbps", collectives.busbw_gbps, "GB/s");
  report.add("train.optimizer.step_ms", totals.per_rank_step(totals.optimizer_s) * ms, "ms");
  report.add("comm.shrink_ms", control.shrink_ms, "ms");
  report.add("comm.grow_rejoin_ms", control.grow_rejoin_ms, "ms");
  report.add("comm.broadcast_bytes_ms", control.broadcast_ms, "ms");
  report.add("train.checkpoint.make_ms", percentile(make_ms, 0.5), "ms");
  report.add("train.checkpoint.restore_ms", percentile(restore_ms, 0.5), "ms");
  report.add("trace.step_ms_p50", traced_p50, "ms");
  report.add("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0, "frac");

  const double step_s = traced_p50 / ms;
  report.notes.push_back("traced steps " + std::to_string(totals.steps) +
                         ", replica bit-identical to trainer: " + (diff.empty() ? "yes" : "NO"));
  report.notes.push_back("share of traced step p50: fwd_bwd " + percent(fwd_bwd_s / step_s) +
                         ", encode+decode " + percent((encode_s + decode_s) / step_s) +
                         ", wait " + percent(wait_s / step_s) + ", xfer " +
                         percent(xfer_s / step_s));
  report.notes.push_back("trace written to " + trace_path);
  return report;
}

}  // namespace stepbench
