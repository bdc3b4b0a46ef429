#include "train/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "compress/registry.hpp"
#include "core/perf_model.hpp"
#include "tensor/serial.hpp"

namespace gradcomp::train {

DataParallelTrainer::DataParallelTrainer(TrainerConfig config, Dataset dataset)
    : config_(std::move(config)),
      dataset_(std::move(dataset)),
      comm_(config_.world_size, config_.comm_timeout) {
  if (config_.world_size < 1)
    throw std::invalid_argument("DataParallelTrainer: world_size must be >= 1");
  if (dataset_.size() < config_.world_size)
    throw std::invalid_argument("DataParallelTrainer: dataset smaller than world size");
  if (config_.layer_dims.front() != dataset_.dim() ||
      config_.layer_dims.back() != dataset_.classes)
    throw std::invalid_argument(
        "DataParallelTrainer: layer_dims must start at data dim and end at class count");
  if (config_.checkpoint_every < 0)
    throw std::invalid_argument("DataParallelTrainer: checkpoint_every must be >= 0");
  if (!config_.fault_plan.empty() && config_.fault_plan.world_size() != config_.world_size)
    throw std::invalid_argument("DataParallelTrainer: fault_plan world size (" +
                                std::to_string(config_.fault_plan.world_size()) +
                                ") != world_size (" + std::to_string(config_.world_size) + ")");

  active_compression_ = config_.compression;
  shards_.reserve(static_cast<std::size_t>(config_.world_size));
  models_.reserve(static_cast<std::size_t>(config_.world_size));
  compressors_.reserve(static_cast<std::size_t>(config_.world_size));
  optimizers_.reserve(static_cast<std::size_t>(config_.world_size));
  // Replicas start identical: rank 0's model is built once and copied.
  models_.emplace_back(config_.layer_dims, config_.seed);
  for (int r = 0; r < config_.world_size; ++r) {
    shards_.push_back(shard(dataset_, r, config_.world_size));
    if (r > 0) models_.push_back(models_.front());
    compressors_.push_back(compress::make_compressor(active_compression_));
    optimizers_.emplace_back(config_.optimizer);
  }

  if (config_.adaptive.enabled) {
    core::Cluster prior = config_.adaptive.cluster;
    prior.world_size = config_.world_size;
    adapt::ControllerOptions opts = config_.adaptive.controller;
    opts.initial = {compress::config_to_string(active_compression_), active_compression_};
    controller_ = std::make_unique<adapt::Controller>(config_.adaptive.workload, prior,
                                                      std::move(opts));
    running_label_ = controller_->current().label;
  }
}

StepStats DataParallelTrainer::step() {
  const auto n = static_cast<std::size_t>(config_.world_size);
  for (;;) {
    maybe_rejoin();
    const std::vector<int> active = comm_.active_ranks();
    std::vector<double> losses(n, 0.0);
    std::vector<compress::AggregateStats> agg(n);
    std::vector<double> backward_s(n, 0.0);
    std::vector<double> agg_wall_s(n, 0.0);
    {
      const core::sync::LockGuard lock(shared_mu_);
      step_failure_seen_ = false;
    }
    // The plan kills at most one rank per iteration; a dead rank is no
    // longer in `active`, so a retried or rewound step cannot re-kill it.
    const int doomed = config_.fault_plan.empty()
                           ? -1
                           : config_.fault_plan.failed_rank_at(static_cast<int>(step_count_));

    comm::run_ranks(active, [&](int rank) {
      const auto r = static_cast<std::size_t>(rank);
      try {
        if (rank == doomed) {
          // Scheduled death: declare it and stop participating. Peers see
          // RankFailure at this step's first collective.
          comm_.fail(rank);
          return;
        }
        const Dataset local = batch(shards_[r], step_count_, config_.batch_per_worker);
        const auto t0 = std::chrono::steady_clock::now();
        losses[r] = models_[r].compute_gradients(local.x, local.y);
        const auto t1 = std::chrono::steady_clock::now();

        auto& layers = models_[r].layers();
        for (std::size_t i = 0; i < layers.size(); ++i) {
          agg[r] += compressors_[r]->aggregate(static_cast<compress::LayerId>(2 * i), rank,
                                               comm_, layers[i].grad_w);
          agg[r] += compressors_[r]->aggregate(static_cast<compress::LayerId>(2 * i + 1), rank,
                                               comm_, layers[i].grad_b);
        }
        const auto t2 = std::chrono::steady_clock::now();
        backward_s[r] = std::chrono::duration<double>(t1 - t0).count();
        agg_wall_s[r] = std::chrono::duration<double>(t2 - t1).count();
        optimizers_[r].step(models_[r]);
      } catch (const comm::RankFailure&) {
        // Consistent unwind: every survivor throws at the same collective,
        // before any optimizer update. Reap the dead and retry the step.
        // shrink() has returned (and released the group lock) before the
        // trainer lock is taken — kTrainerShared is the TOP rank, so taking
        // it the other way around would throw LockOrderError.
        comm_.shrink(rank);
        const core::sync::LockGuard lock(shared_mu_);
        step_failure_seen_ = true;
      }
    });

    if ([&] {
          const core::sync::LockGuard lock(shared_mu_);
          return step_failure_seen_;
        }()) {
      recover(active);
      continue;  // retry (possibly after a checkpoint rewind)
    }

    ++step_count_;
    StepStats stats;
    stats.active_workers = static_cast<int>(active.size());
    double step_wall_s = 0.0;
    for (const int rank : active) {
      const auto r = static_cast<std::size_t>(rank);
      stats.mean_local_loss += losses[r];
      stats.encode_seconds += agg[r].encode_seconds;
      stats.decode_seconds += agg[r].decode_seconds;
      stats.backward_seconds = std::max(stats.backward_seconds, backward_s[r]);
      // Collective time = wall time in the aggregate phase minus the time
      // this rank spent inside its own encode/decode kernels.
      stats.comm_seconds =
          std::max(stats.comm_seconds,
                   agg_wall_s[r] - agg[r].encode_seconds - agg[r].decode_seconds);
      step_wall_s = std::max(step_wall_s, backward_s[r] + agg_wall_s[r]);
    }
    stats.comm_seconds = std::max(stats.comm_seconds, 0.0);
    const auto p = static_cast<double>(active.size());
    stats.mean_local_loss /= p;
    stats.encode_seconds /= p;
    stats.decode_seconds /= p;
    stats.bytes_per_worker = agg[static_cast<std::size_t>(active.front())].bytes_sent;
    history_.push_back(stats);

    if (config_.checkpoint_every > 0 && step_count_ % config_.checkpoint_every == 0) {
      last_checkpoint_ = make_checkpoint();
      has_checkpoint_ = true;
    }
    feed_controller(stats, step_wall_s);
    return stats;
  }
}

void DataParallelTrainer::feed_controller(const StepStats& stats, double step_wall_s) {
  clock_s_ += step_wall_s;
  if (!controller_) return;

  adapt::Observation o;
  o.wire_bytes = adapt::Bytes{static_cast<double>(stats.bytes_per_worker)};
  o.collective = adapt::Seconds{stats.comm_seconds};
  o.backward = adapt::Seconds{stats.backward_seconds};
  // Nominal backward time of the MODELED workload on the prior device: the
  // stretch estimate rescales the advisor's device just like the bandwidth
  // estimate rescales its network.
  const core::PerfModel model;
  core::Cluster prior = config_.adaptive.cluster;
  prior.world_size = std::max(stats.active_workers, 1);
  o.nominal_backward =
      model.compressed(active_compression_, config_.adaptive.workload, prior).compute;
  o.world_size = stats.active_workers;
  o.shape = adapt::collective_shape(active_compression_, config_.adaptive.workload.model,
                                    config_.adaptive.workload.bucket_bytes);

  const auto decision = controller_->observe(o);
  if (!decision) return;
  timeline_.add("adapt", running_label_ + ": " + decision->reason,
                adapt::Seconds{window_start_s_}, adapt::Seconds{clock_s_});
  window_start_s_ = clock_s_;
  if (decision->switched) {
    active_compression_ = decision->chosen.config;
    // Live swap between steps: fresh compressors mean fresh error-feedback /
    // warm-start state (the schemes' state spaces are incompatible), and a
    // held checkpoint's compressor blobs no longer apply to the new scheme —
    // drop them so a rewind warm-starts cleanly instead of deserializing a
    // mismatched blob.
    for (const int rank : comm_.active_ranks())
      compressors_[static_cast<std::size_t>(rank)] =
          compress::make_compressor(active_compression_);
    if (has_checkpoint_)
      for (auto& rs : last_checkpoint_.ranks) rs.compressor_state.clear();
  }
  running_label_ = controller_->current().label;
}

std::vector<adapt::Decision> DataParallelTrainer::decisions() const {
  return controller_ ? controller_->decisions() : std::vector<adapt::Decision>{};
}

void DataParallelTrainer::recover(const std::vector<int>& before) {
  const std::vector<int> after = comm_.active_ranks();
  FailureRecord record;
  record.step = step_count_;
  for (const int rank : before)
    if (std::find(after.begin(), after.end(), rank) == after.end())
      record.failed_ranks.push_back(rank);

  if (config_.recovery == RecoveryPolicy::kRestoreCheckpoint && has_checkpoint_) {
    record.action = RecoveryPolicy::kRestoreCheckpoint;
    restore(last_checkpoint_);
  } else {
    record.action = RecoveryPolicy::kShrinkContinue;
  }
  record.resumed_at_step = step_count_;
  failures_.push_back(std::move(record));
}

void DataParallelTrainer::maybe_rejoin() {
  if (config_.fault_plan.empty()) return;
  std::vector<int> joiners;
  for (const int r : config_.fault_plan.rejoining_ranks_at(static_cast<int>(step_count_)))
    // After a checkpoint rewind this step may run again with the rank
    // already re-admitted; the window fires exactly once.
    if (!comm_.is_active(r)) joiners.push_back(r);
  if (joiners.empty()) return;

  const std::vector<int> survivors = comm_.active_ranks();
  const int root = survivors.front();
  std::vector<int> participants = survivors;
  participants.insert(participants.end(), joiners.begin(), joiners.end());
  std::sort(participants.begin(), participants.end());

  const auto t0 = std::chrono::steady_clock::now();
  {
    const core::sync::LockGuard lock(shared_mu_);
    pending_resync_bytes_ = 0;
  }
  comm::run_ranks(participants, [&](int rank) {
    const bool joining = std::find(joiners.begin(), joiners.end(), rank) != joiners.end();
    if (joining) {
      comm_.rejoin(rank);
    } else {
      comm_.grow(rank, joiners);
    }
    // In-band state resync: the first survivor serializes params + optimizer
    // + shared compressor state and broadcasts it to the whole (re-expanded)
    // group; only the joiners install it.
    std::vector<std::byte> blob;
    if (rank == root) {
      blob = serialize_resync(root);
      const core::sync::LockGuard lock(shared_mu_);
      pending_resync_bytes_ = blob.size();
    }
    comm_.broadcast_bytes(rank, root, blob);
    if (joining) apply_resync(rank, blob);
  });
  const double resync_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  RejoinRecord record;
  record.step = step_count_;
  record.rejoined_ranks = joiners;
  {
    const core::sync::LockGuard lock(shared_mu_);
    record.resync_bytes = pending_resync_bytes_;
  }
  // One "rejoin" span per re-admitted rank; the group rebuild + resync
  // advances the trainer's wall clock like any other work (keeping later
  // "adapt" windows contiguous).
  for (const int r : joiners)
    timeline_.add("rejoin",
                  "rank " + std::to_string(r) + " rejoin: resync " +
                      std::to_string(record.resync_bytes) + " B",
                  adapt::Seconds{clock_s_}, adapt::Seconds{clock_s_ + resync_s});
  clock_s_ += resync_s;
  rejoins_.push_back(std::move(record));
}

std::vector<std::byte> DataParallelTrainer::serialize_resync(int root) const {
  const auto r = static_cast<std::size_t>(root);
  tensor::ByteWriter writer;
  const auto& layers = models_[r].layers();
  writer.u64(layers.size() * 2);
  for (const auto& layer : layers) {
    writer.tensor(layer.w);
    writer.tensor(layer.b);
  }
  writer.f64(optimizers_[r].current_lr());
  const auto velocity = optimizers_[r].velocity();
  writer.u64(velocity.size());
  for (const auto& [vw, vb] : velocity) {
    writer.tensor(vw);
    writer.tensor(vb);
  }
  writer.blob(compressors_[r]->serialize_shared_state());
  return writer.take();
}

void DataParallelTrainer::apply_resync(int rank, std::span<const std::byte> blob) {
  const auto r = static_cast<std::size_t>(rank);
  tensor::ByteReader reader(blob, "rejoin resync");
  auto& layers = models_[r].layers();
  const std::uint64_t n_params = reader.u64();
  if (n_params != layers.size() * 2)
    throw std::runtime_error("rejoin resync: parameter count mismatch");
  for (auto& layer : layers) {
    layer.w = reader.tensor();
    layer.b = reader.tensor();
  }
  const double lr = reader.f64();
  const std::uint64_t n_velocity = reader.u64();
  std::vector<std::pair<tensor::Tensor, tensor::Tensor>> velocity;
  velocity.reserve(n_velocity);
  for (std::uint64_t i = 0; i < n_velocity; ++i) {
    auto vw = reader.tensor();
    auto vb = reader.tensor();
    velocity.emplace_back(std::move(vw), std::move(vb));
  }
  optimizers_[r].set_state(lr, velocity);
  const auto shared = reader.blob();
  reader.expect_done();
  // Fresh compressor under the live scheme: zero error feedback (stale
  // residuals from the rank's past life must NOT be reintroduced), then the
  // shared state every rank must agree on (RandomK round counters, PowerSGD
  // warm-start Q).
  compressors_[r] = compress::make_compressor(active_compression_);
  if (!shared.empty()) compressors_[r]->restore_shared_state(shared);
}

std::vector<double> DataParallelTrainer::train(int steps) {
  std::vector<double> losses;
  losses.reserve(static_cast<std::size_t>(std::max(steps, 0)));
  const std::int64_t target = step_count_ + steps;
  while (step_count_ < target) losses.push_back(step().mean_local_loss);
  return losses;
}

double DataParallelTrainer::loss() const {
  return models_[static_cast<std::size_t>(comm_.active_ranks().front())].loss(dataset_.x,
                                                                              dataset_.y);
}

double DataParallelTrainer::accuracy() const {
  return models_[static_cast<std::size_t>(comm_.active_ranks().front())].accuracy(dataset_.x,
                                                                                  dataset_.y);
}

double DataParallelTrainer::evaluate_loss(const Dataset& data) const {
  return models_[static_cast<std::size_t>(comm_.active_ranks().front())].loss(data.x, data.y);
}

double DataParallelTrainer::evaluate_accuracy(const Dataset& data) const {
  return models_[static_cast<std::size_t>(comm_.active_ranks().front())].accuracy(data.x,
                                                                                  data.y);
}

std::size_t DataParallelTrainer::total_bytes_per_worker() const {
  std::size_t total = 0;
  for (const auto& s : history_) total += s.bytes_per_worker;
  return total;
}

double DataParallelTrainer::replica_divergence() const {
  double divergence = 0.0;
  const std::vector<int> active = comm_.active_ranks();
  const auto& reference = models_[static_cast<std::size_t>(active.front())].layers();
  for (std::size_t a = 1; a < active.size(); ++a) {
    const auto& layers = models_[static_cast<std::size_t>(active[a])].layers();
    for (std::size_t i = 0; i < layers.size(); ++i) {
      divergence = std::max(divergence, tensor::max_abs_diff(reference[i].w, layers[i].w));
      divergence = std::max(divergence, tensor::max_abs_diff(reference[i].b, layers[i].b));
    }
  }
  return divergence;
}

Checkpoint DataParallelTrainer::make_checkpoint() const {
  Checkpoint ck;
  ck.step = step_count_;
  ck.layer_dims = config_.layer_dims;
  const std::vector<int> active = comm_.active_ranks();
  const auto first = static_cast<std::size_t>(active.front());
  for (const auto& layer : models_[first].layers()) {
    ck.params.push_back(layer.w);
    ck.params.push_back(layer.b);
  }
  ck.optimizer_lr = optimizers_[first].current_lr();
  ck.velocity = optimizers_[first].velocity();
  ck.ranks.reserve(active.size());
  for (const int rank : active) {
    RankState rs;
    rs.rank = rank;
    rs.compressor_state = compressors_[static_cast<std::size_t>(rank)]->serialize_state();
    ck.ranks.push_back(std::move(rs));
  }
  return ck;
}

void DataParallelTrainer::restore(const Checkpoint& ck) {
  if (ck.layer_dims != config_.layer_dims)
    throw std::invalid_argument(
        "DataParallelTrainer: checkpoint layer_dims do not match this trainer");
  for (const int rank : comm_.active_ranks()) {
    const auto r = static_cast<std::size_t>(rank);
    auto& layers = models_[r].layers();
    if (ck.params.size() != layers.size() * 2)
      throw std::invalid_argument("DataParallelTrainer: checkpoint parameter count mismatch");
    for (std::size_t i = 0; i < layers.size(); ++i) {
      layers[i].w = ck.params[2 * i];
      layers[i].b = ck.params[2 * i + 1];
    }
    optimizers_[r].set_state(ck.optimizer_lr, ck.velocity);
    // Error feedback drifted past the checkpoint: rebuild the compressor
    // fresh (under the scheme that is live NOW — an adaptive switch after
    // the snapshot cleared the blobs), then load the blob saved for this
    // original rank. Empty blob = keep the fresh, empty state.
    compressors_[r] = compress::make_compressor(active_compression_);
    for (const auto& rs : ck.ranks)
      if (rs.rank == rank && !rs.compressor_state.empty())
        compressors_[r]->restore_state(rs.compressor_state);
  }
  // Ranks absent from the checkpoint (their replacement rejoined after the
  // snapshot, or a full restart re-spawned the whole group) still must agree
  // with the restored ranks on the SHARED compressor state — RandomK's round
  // counters, PowerSGD's warm-start Q — or the next aggregation silently
  // diverges. Resync them from the first restored rank.
  const auto in_ck = [&](int rank) {
    for (const auto& rs : ck.ranks)
      if (rs.rank == rank) return !rs.compressor_state.empty();
    return false;
  };
  int donor = -1;
  for (const int rank : comm_.active_ranks())
    if (in_ck(rank)) {
      donor = rank;
      break;
    }
  if (donor >= 0) {
    const auto shared = compressors_[static_cast<std::size_t>(donor)]->serialize_shared_state();
    if (!shared.empty())
      for (const int rank : comm_.active_ranks())
        if (!in_ck(rank))
          compressors_[static_cast<std::size_t>(rank)]->restore_shared_state(shared);
  }
  step_count_ = ck.step;
  if (history_.size() > static_cast<std::size_t>(ck.step))
    history_.resize(static_cast<std::size_t>(ck.step));
}

void DataParallelTrainer::save_checkpoint(const std::string& path) const {
  make_checkpoint().save(path);
}

void DataParallelTrainer::load_checkpoint(const std::string& path) {
  restore(Checkpoint::load(path));
}

}  // namespace gradcomp::train
