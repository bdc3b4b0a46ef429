// Untraced end-to-end run: what a user of DataParallelTrainer sees.
#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>

#include "runs.hpp"

namespace stepbench {

namespace gc = gradcomp;
using gc::train::DataParallelTrainer;

namespace {

// Set-up is timed this many times before the run and again after it;
// setup_s is the median of all of them. Back-to-back set-ups see one state
// of a shared host, which drifts over seconds; two batches half a minute
// apart see two.
constexpr int kSetups = 5;
constexpr int kWarmupSteps = 5;   // untimed; lets lazy state (velocity, PowerSGD Q) settle
// The run keeps at least this many steps, so at least 10 lie above the p90
// printed beside the metrics.
constexpr std::size_t kMinSteps = 100;
constexpr double kHardCapSeconds = 120.0;

// Restore-from-checkpoint recovery probe of the fault-free workloads, so
// recovery_ms_p50 gates every compressor's shrink/resync path. It runs twice,
// before and after the timed phase, for the same reason as the set-ups: 8
// windows each, one every 8 steps, checkpoint every 4.
constexpr ChurnShape kProbeShape{10, 8, 0, 1, 8};
constexpr int kProbeCheckpointEvery = 4;

struct StepLog {
  std::vector<double> step_ms;     // steps that absorbed no death and no rejoin
  std::vector<double> failure_ms;  // step() calls that absorbed the k-th death
  std::vector<double> rejoin_ms;   // step() calls that absorbed the k-th rejoin
  std::int64_t max_attempted = -1;  // highest step index a step() call started at
};

// One timed step() call. Returns false when it threw: the trainer's state is
// then unknown and the run stops.
bool timed_step(DataParallelTrainer& trainer, StepLog& log, Report& report) {
  const std::size_t failures = trainer.failures().size();
  const std::size_t rejoins = trainer.rejoins().size();
  log.max_attempted = std::max(log.max_attempted, trainer.steps_taken());
  ++report.attempted;
  const auto t0 = Clock::now();
  gc::train::StepStats stats;
  try {
    stats = trainer.step();
  } catch (const std::exception& e) {
    report.fail("step " + std::to_string(log.max_attempted) + " threw: " + e.what());
    return false;
  }
  const double ms = seconds_between(t0, Clock::now()) * 1e3;
  if (!std::isfinite(stats.mean_local_loss))
    report.fail("non-finite loss at step " + std::to_string(trainer.steps_taken()));
  if (trainer.failures().size() > failures)
    log.failure_ms.push_back(ms);
  else if (trainer.rejoins().size() > rejoins)
    log.rejoin_ms.push_back(ms);
  else
    log.step_ms.push_back(ms);
  return true;
}

// Recovery cost of each completed window: the step that absorbed the death
// plus the step that absorbed the rejoin.
std::vector<double> window_recovery_ms(const StepLog& log) {
  std::vector<double> out;
  for (std::size_t k = 0; k < std::min(log.failure_ms.size(), log.rejoin_ms.size()); ++k)
    out.push_back(log.failure_ms[k] + log.rejoin_ms[k]);
  return out;
}

// The trainer recorded exactly the deaths and rejoins its plan scheduled up
// to the furthest step it attempted, and its replicas agree bit for bit.
void check_trainer(const DataParallelTrainer& trainer, const gc::core::FaultPlan& plan,
                   std::int64_t max_attempted, const std::string& what, Report& report) {
  std::size_t deaths = 0;
  std::size_t rejoins = 0;
  for (const auto& w : plan.recovery_windows()) {
    if (w.death_iteration <= max_attempted) ++deaths;
    if (w.death_iteration + w.downtime <= max_attempted) ++rejoins;
  }
  if (trainer.failures().size() != deaths)
    report.fail(what + ": " + std::to_string(trainer.failures().size()) +
                " failures recorded, plan scheduled " + std::to_string(deaths));
  if (trainer.rejoins().size() != rejoins)
    report.fail(what + ": " + std::to_string(trainer.rejoins().size()) +
                " rejoins recorded, plan scheduled " + std::to_string(rejoins));
  const double divergence = trainer.replica_divergence();
  if (divergence != 0.0)
    report.fail(what + ": replica divergence " + std::to_string(divergence));
}

// Runs one recovery probe on a fresh trainer; appends its per-window
// recovery times. `salt` gives each probe its own fault plan.
void recovery_probe(const Workload& w, std::uint64_t seed, std::uint64_t salt,
                    std::vector<double>& recovery_ms, Report& report) {
  gc::train::TrainerConfig config = make_config(w, seed);
  config.fault_plan = churn_plan(kProbeShape, seed + salt);
  config.recovery = gc::train::RecoveryPolicy::kRestoreCheckpoint;
  config.checkpoint_every = kProbeCheckpointEvery;
  const gc::core::FaultPlan plan = config.fault_plan;
  const auto& windows = plan.recovery_windows();
  const std::int64_t last_rejoin = windows.back().death_iteration + windows.back().downtime;

  DataParallelTrainer trainer(std::move(config), make_dataset(w, seed));
  StepLog log;
  while (trainer.steps_taken() <= last_rejoin)
    if (!timed_step(trainer, log, report)) return;
  check_trainer(trainer, plan, log.max_attempted, "recovery probe", report);
  const std::vector<double> windows_ms = window_recovery_ms(log);
  recovery_ms.insert(recovery_ms.end(), windows_ms.begin(), windows_ms.end());
}

// Dataset generation plus trainer construction, timed.
std::unique_ptr<DataParallelTrainer> set_up(const Workload& w, std::uint64_t seed,
                                            std::vector<double>& setup_s) {
  const auto t0 = Clock::now();
  gc::train::TrainerConfig config = w.churn ? make_churn_config(w, seed) : make_config(w, seed);
  auto trainer = std::make_unique<DataParallelTrainer>(std::move(config), make_dataset(w, seed));
  setup_s.push_back(seconds_between(t0, Clock::now()));
  return trainer;
}

}  // namespace

Report run_e2e(const Workload& w, std::uint64_t seed, double seconds) {
  Report report;
  // elastic_churn takes its recovery windows from the timed phase.
  std::vector<double> recovery;
  if (!w.churn) recovery_probe(w, seed, 0, recovery, report);

  // The last trainer set up is the one timed.
  std::vector<double> setup_s;
  std::unique_ptr<DataParallelTrainer> trainer;
  for (int i = 0; i < kSetups; ++i) {
    trainer.reset();
    trainer = set_up(w, seed, setup_s);
  }
  const gc::core::FaultPlan plan =
      w.churn ? make_churn_config(w, seed).fault_plan : gc::core::FaultPlan{};
  const double initial_loss = trainer->loss();

  StepLog log;
  for (int i = 0; i < kWarmupSteps; ++i)
    if (!timed_step(*trainer, log, report)) return report;
  log.step_ms.clear();

  // Timed phase. The one full-dataset loss evaluation is paused out of it.
  const std::int64_t first_step = trainer->steps_taken();
  double final_loss = std::numeric_limits<double>::quiet_NaN();
  bool have_loss = false;
  double paused_s = 0.0;
  const auto start = Clock::now();
  const auto elapsed = [&] { return seconds_between(start, Clock::now()) - paused_s; };
  while (elapsed() < seconds || log.step_ms.size() < kMinSteps || !have_loss) {
    if (!timed_step(*trainer, log, report)) return report;
    if (!have_loss && trainer->steps_taken() == w.loss_steps) {
      const auto p0 = Clock::now();
      final_loss = trainer->loss();
      have_loss = true;
      paused_s += seconds_between(p0, Clock::now());
    }
    if (elapsed() > kHardCapSeconds) {
      report.fail("timed phase did not finish within " + std::to_string(kHardCapSeconds) + " s");
      return report;
    }
  }
  const double phase_s = elapsed();

  // Goodput: only steps on the realized trajectory count (history() is
  // truncated on a checkpoint rewind), at the group size that ran them.
  double net_samples = 0.0;
  const auto& history = trainer->history();
  for (auto s = static_cast<std::size_t>(first_step); s < history.size(); ++s)
    net_samples += static_cast<double>(history[s].active_workers * kBatchPerWorker);

  if (!(std::isfinite(final_loss) && final_loss < initial_loss))
    report.fail("final_loss " + std::to_string(final_loss) + " not finite or not below initial " +
                std::to_string(initial_loss));
  check_trainer(*trainer, plan, log.max_attempted, "timed phase", report);
  trainer.reset();

  if (w.churn)
    recovery = window_recovery_ms(log);
  else
    recovery_probe(w, seed, 1, recovery, report);
  if (recovery.empty()) report.fail("no recovery window completed");
  for (int i = 0; i < kSetups; ++i) (void)set_up(w, seed, setup_s);

  report.add("samples_per_s", net_samples / phase_s, "1/s");
  report.add("step_ms_p50", percentile(log.step_ms, 0.5), "ms");
  report.add("final_loss", final_loss, "nat");
  report.add("setup_s", percentile(setup_s, 0.5), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  report.add("recovery_ms_p50", percentile(recovery, 0.5), "ms");
  // The step tail is printed, not gated: it follows the host's CPU steal.
  const double p90 = percentile(log.step_ms, 0.9);
  report.notes.push_back("steps " + std::to_string(log.step_ms.size()) + ", step_ms_p90 " +
                         std::to_string(p90) + " ms (not gated) with " +
                         std::to_string(count_above(log.step_ms, p90)) + " above" +
                         ", recovery windows " + std::to_string(recovery.size()) +
                         ", initial_loss " + std::to_string(initial_loss) + ", set-ups " +
                         std::to_string(*std::min_element(setup_s.begin(), setup_s.end())) +
                         ".." +
                         std::to_string(*std::max_element(setup_s.begin(), setup_s.end())) + " s");
  return report;
}

}  // namespace stepbench
