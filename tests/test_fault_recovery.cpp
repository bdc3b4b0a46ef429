// Fault injection and recovery, end to end: dead ranks surface as
// RankFailure instead of hangs, survivors shrink the group and keep
// training, the group re-expands via grow()/rejoin(), and both recovery
// policies finish with a loss close to the fault-free run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <span>
#include <thread>
#include <vector>

#include "comm/thread_comm.hpp"
#include "compress/registry.hpp"
#include "core/fault_plan.hpp"
#include "train/trainer.hpp"

namespace gradcomp {
namespace {

using namespace std::chrono_literals;

// --- comm layer -------------------------------------------------------------

TEST(CommFailure, DeclaredDeathSurfacesAsRankFailure) {
  const int p = 4;
  comm::ThreadComm comm(p);
  std::atomic<int> failures{0};
  std::atomic<int> sums{0};
  comm::run_ranks(p, [&](int rank) {
    if (rank == 1) {
      comm.fail(rank);
      return;
    }
    std::vector<float> data = {1.0F};
    try {
      comm.allreduce_sum(rank, data);
      FAIL() << "rank " << rank << " should have observed the failure";
    } catch (const comm::RankFailure& e) {
      EXPECT_EQ(e.failed(), std::vector<int>{1});
      failures++;
      comm.shrink(rank);
    }
    // The group continues at p-1 with a correct sum.
    comm.allreduce_sum(rank, data);
    if (data[0] == 3.0F) sums++;
  });
  EXPECT_EQ(failures.load(), 3);
  EXPECT_EQ(sums.load(), 3);
  EXPECT_EQ(comm.world_size(), 3);
  EXPECT_EQ(comm.initial_world_size(), 4);
  EXPECT_EQ(comm.active_ranks(), (std::vector<int>{0, 2, 3}));
}

TEST(CommFailure, TimeoutBlamesNonArrivingRank) {
  const int p = 3;
  comm::ThreadComm comm(p, 200ms);
  std::atomic<int> failures{0};
  comm::run_ranks(p, [&](int rank) {
    if (rank == 2) return;  // never shows up at the barrier
    try {
      comm.barrier(rank);
      FAIL() << "expected timeout-driven RankFailure";
    } catch (const comm::RankFailure& e) {
      EXPECT_EQ(e.failed(), std::vector<int>{2});
      failures++;
      const auto removed = comm.shrink(rank);
      EXPECT_EQ(removed, std::vector<int>{2});
    }
    comm.barrier(rank);  // survivors' barrier completes immediately
  });
  EXPECT_EQ(failures.load(), 2);
  EXPECT_EQ(comm.world_size(), 2);
}

TEST(CommFailure, ShrunkGroupRunsAllCollectives) {
  const int p = 4;
  comm::ThreadComm comm(p);
  comm::run_ranks(p, [&](int rank) {
    if (rank == 0) {  // kill dense rank 0: dense re-indexing shifts
      comm.fail(rank);
      return;
    }
    std::vector<float> data = {static_cast<float>(rank)};
    try {
      comm.allreduce_sum(rank, data);
    } catch (const comm::RankFailure&) {
      comm.shrink(rank);
    }
    data = {static_cast<float>(rank)};
    comm.allreduce_sum(rank, data);
    EXPECT_FLOAT_EQ(data[0], 6.0F);  // 1 + 2 + 3
    // All-gather returns survivors in dense (ascending original) order.
    const std::byte mine[] = {static_cast<std::byte>(10 * rank)};
    const auto gathered = comm.allgather(rank, mine);
    ASSERT_EQ(gathered.size(), 3U);
    EXPECT_EQ(gathered[0], std::vector<std::byte>{std::byte{10}});
    EXPECT_EQ(gathered[1], std::vector<std::byte>{std::byte{20}});
    EXPECT_EQ(gathered[2], std::vector<std::byte>{std::byte{30}});
    // Broadcast from a surviving root.
    std::vector<std::byte> bc;
    if (rank == 2) bc = {std::byte{7}};
    comm.broadcast_bytes(rank, 2, bc);
    EXPECT_EQ(bc, std::vector<std::byte>{std::byte{7}});
  });
}

TEST(CommFailure, WorldSizeReportsActiveCountForReweighting) {
  // Mean-semantics aggregation divides by world_size(); after a shrink the
  // denominator must be the survivor count.
  const int p = 4;
  comm::ThreadComm comm(p);
  comm::run_ranks(p, [&](int rank) {
    if (rank == 3) {
      comm.fail(rank);
      return;
    }
    std::vector<float> data = {2.0F};
    try {
      comm.allreduce_sum(rank, data);
    } catch (const comm::RankFailure&) {
      comm.shrink(rank);
    }
    data = {2.0F};
    comm.allreduce_sum(rank, data);
    const float mean = data[0] / static_cast<float>(comm.world_size());
    EXPECT_FLOAT_EQ(mean, 2.0F);  // 6 / 3, not 6 / 4
  });
}

TEST(CommFailure, DeadRankCannotCallShrink) {
  comm::ThreadComm comm(1);
  comm.fail(0);
  EXPECT_THROW((void)comm.shrink(0), std::logic_error);
}

TEST(CommFailure, SecondDeathDuringShrinkReapsBothCasualties) {
  // Regression: a rank that dies while the other survivors are already
  // parked inside shrink() must wake them so the consensus re-forms without
  // it — not leave them stuck until the deadline blames everyone.
  const int p = 4;
  const auto timeout = 5000ms;
  comm::ThreadComm comm(p, timeout);
  std::atomic<int> reaped_both{0};
  const auto start = std::chrono::steady_clock::now();
  comm::run_ranks(p, [&](int rank) {
    if (rank == 1) {
      comm.fail(rank);
      return;
    }
    std::vector<float> data = {1.0F};
    try {
      comm.allreduce_sum(rank, data);
      FAIL() << "rank " << rank << " should have observed the failure";
    } catch (const comm::RankFailure&) {
    }
    if (rank == 2) {
      // Die during recovery, after the others had a chance to park in
      // shrink(); either interleaving must complete the same way.
      std::this_thread::sleep_for(50ms);
      comm.fail(rank);
      return;
    }
    const auto removed = comm.shrink(rank);
    if (removed == std::vector<int>({1, 2})) reaped_both++;
    // The group continues at p=2 with a correct sum.
    data = {1.0F};
    comm.allreduce_sum(rank, data);
    EXPECT_FLOAT_EQ(data[0], 2.0F);
  });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(reaped_both.load(), 2);
  EXPECT_EQ(comm.world_size(), 2);
  EXPECT_EQ(comm.active_ranks(), (std::vector<int>{0, 3}));
  // The double-fault resolved by consensus re-formation, not by timeout.
  EXPECT_LT(elapsed, timeout / 2);
}

// --- grow / rejoin ----------------------------------------------------------

TEST(CommGrow, GrowReadmitsRankAndRebuildsRing) {
  const int p = 4;
  comm::ThreadComm comm(p);
  std::atomic<bool> reaped{false};
  comm::run_ranks(p, [&](int rank) {
    if (rank == 1) {
      comm.fail(rank);
      while (!reaped.load()) std::this_thread::yield();
      const auto active = comm.rejoin(rank);
      EXPECT_EQ(active, (std::vector<int>{0, 1, 2, 3}));
    } else {
      std::vector<float> data = {1.0F};
      try {
        comm.allreduce_sum(rank, data);
        FAIL() << "rank " << rank << " should have observed the failure";
      } catch (const comm::RankFailure&) {
        comm.shrink(rank);
      }
      if (rank == 0) reaped.store(true);
      const int joiners[] = {1};
      const auto active = comm.grow(rank, joiners);
      EXPECT_EQ(active, (std::vector<int>{0, 1, 2, 3}));
    }
    // Every rank, including the joiner, now runs collectives at the restored
    // world size. Distinct per-rank values catch misrouting: a stale
    // dense->original table entry would drop or repeat a rank's buffer in
    // the sum, or put the joiner's payload in the wrong gather slot.
    std::vector<float> data = {static_cast<float>(rank + 1)};
    comm.allreduce_sum(rank, data);
    EXPECT_FLOAT_EQ(data[0], 10.0F);
    const std::byte mine[] = {static_cast<std::byte>(rank)};
    const auto gathered = comm.allgather(rank, mine);
    ASSERT_EQ(gathered.size(), 4U);
    for (std::size_t d = 0; d < gathered.size(); ++d)
      EXPECT_EQ(gathered[d], std::vector<std::byte>{static_cast<std::byte>(d)});
    // The resync transport: variable-length broadcast reaches the joiner.
    std::vector<std::byte> blob;
    if (rank == 0) blob = {std::byte{0xAB}, std::byte{0xCD}, std::byte{0xEF}};
    comm.broadcast_bytes(rank, 0, blob);
    ASSERT_EQ(blob.size(), 3U);
    EXPECT_EQ(blob[2], std::byte{0xEF});
  });
  EXPECT_EQ(comm.world_size(), 4);
  EXPECT_EQ(comm.active_ranks(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(CommGrow, ShrinkGrowShrinkSequence) {
  const int p = 4;
  comm::ThreadComm comm(p);
  std::atomic<bool> reaped{false};
  comm::run_ranks(p, [&](int rank) {
    // Phase 1: rank 2 dies; survivors shrink and re-admit it.
    if (rank == 2) {
      comm.fail(rank);
      while (!reaped.load()) std::this_thread::yield();
      comm.rejoin(rank);
    } else {
      std::vector<float> data = {1.0F};
      try {
        comm.allreduce_sum(rank, data);
        FAIL() << "rank " << rank << " should have observed the failure";
      } catch (const comm::RankFailure&) {
        comm.shrink(rank);
      }
      if (rank == 0) reaped.store(true);
      const int joiners[] = {2};
      comm.grow(rank, joiners);
    }
    // Phase 2: the re-expanded group agrees.
    std::vector<float> data = {1.0F};
    comm.allreduce_sum(rank, data);
    EXPECT_FLOAT_EQ(data[0], 4.0F);
    // Phase 3: a different rank dies; the group shrinks again.
    if (rank == 0) {
      comm.fail(rank);
      return;
    }
    data = {1.0F};
    try {
      comm.allreduce_sum(rank, data);
      FAIL() << "rank " << rank << " should have observed the second failure";
    } catch (const comm::RankFailure&) {
      comm.shrink(rank);
    }
    data = {1.0F};
    comm.allreduce_sum(rank, data);
    EXPECT_FLOAT_EQ(data[0], 3.0F);
  });
  EXPECT_EQ(comm.world_size(), 3);
  EXPECT_EQ(comm.active_ranks(), (std::vector<int>{1, 2, 3}));
}

TEST(CommGrow, JoinerSetMismatchAbortsEverySurvivor) {
  const int p = 4;
  comm::ThreadComm comm(p);
  std::atomic<int> aborted{0};
  comm::run_ranks(p, [&](int rank) {
    if (rank >= 2) {
      comm.fail(rank);
      return;
    }
    std::vector<float> data = {1.0F};
    try {
      comm.allreduce_sum(rank, data);
      FAIL() << "rank " << rank << " should have observed the failure";
    } catch (const comm::RankFailure&) {
      comm.shrink(rank);
    }
    // SPMD misuse: the survivors disagree on who is joining. Every caller
    // must unwind with an error instead of deadlocking on a set nobody
    // satisfies.
    const int mine[] = {rank == 0 ? 2 : 3};
    try {
      (void)comm.grow(rank, mine);
      FAIL() << "rank " << rank << " should have observed the mismatch";
    } catch (const std::logic_error&) {
      aborted++;
    }
  });
  EXPECT_EQ(aborted.load(), 2);
  EXPECT_EQ(comm.world_size(), 2);  // nobody was admitted
}

TEST(CommGrow, UnexpectedJoinerIsRefused) {
  const int p = 4;
  comm::ThreadComm comm(p);
  std::atomic<bool> reaped{false};
  std::atomic<bool> stray_parked{false};
  std::atomic<int> refused{0};
  comm::run_ranks(p, [&](int rank) {
    if (rank >= 2) {
      comm.fail(rank);
      while (!reaped.load()) std::this_thread::yield();
      if (rank == 3) {
        // Parks in rejoin() but is never named in the survivors' joiner set.
        stray_parked.store(true);
        try {
          (void)comm.rejoin(rank);
          FAIL() << "the stray joiner should have been refused";
        } catch (const std::logic_error&) {
          refused++;
        }
      } else {
        while (!stray_parked.load()) std::this_thread::yield();
        std::this_thread::sleep_for(50ms);  // let rank 3 park first
        EXPECT_EQ(comm.rejoin(rank), (std::vector<int>{0, 1, 2}));
      }
      return;
    }
    std::vector<float> data = {1.0F};
    try {
      comm.allreduce_sum(rank, data);
      FAIL() << "rank " << rank << " should have observed the failure";
    } catch (const comm::RankFailure&) {
      comm.shrink(rank);
    }
    if (rank == 0) reaped.store(true);
    const int joiners[] = {2};
    EXPECT_EQ(comm.grow(rank, joiners), (std::vector<int>{0, 1, 2}));
  });
  EXPECT_EQ(refused.load(), 1);
  EXPECT_EQ(comm.world_size(), 3);
  EXPECT_EQ(comm.active_ranks(), (std::vector<int>{0, 1, 2}));
}

TEST(CommGrow, ValidatesMisuse) {
  comm::ThreadComm comm(2);
  // An active rank cannot park in rejoin().
  EXPECT_THROW((void)comm.rejoin(0), std::logic_error);
  EXPECT_THROW((void)comm.rejoin(7), std::invalid_argument);
  // An active rank cannot be named as a joiner.
  const int active_joiner[] = {1};
  EXPECT_THROW((void)comm.grow(0, active_joiner), std::logic_error);
  comm.fail(1);
  (void)comm.shrink(0);
  // A dead rank cannot call grow(); joiner sets must be sane.
  EXPECT_THROW((void)comm.grow(1, active_joiner), std::logic_error);
  EXPECT_THROW((void)comm.grow(0, std::span<const int>{}), std::invalid_argument);
  const int out_of_range[] = {5};
  EXPECT_THROW((void)comm.grow(0, out_of_range), std::invalid_argument);
}

// --- trainer layer ----------------------------------------------------------

train::Dataset blobs() { return train::make_blobs(4, 16, 50, 0.6F, 21); }

train::TrainerConfig recovery_config(train::RecoveryPolicy policy, bool faulted) {
  train::TrainerConfig c;
  c.world_size = 4;
  c.layer_dims = {16, 32, 4};
  c.batch_per_worker = 16;
  c.optimizer.lr = 0.1;
  c.recovery = policy;
  c.checkpoint_every = 5;
  if (faulted) {
    core::FaultPlanOptions fp;
    fp.world_size = 4;
    fp.iterations = 60;
    fp.fail_rank = 2;
    fp.fail_at_iteration = 12;
    c.fault_plan = core::FaultPlan::generate(fp);
  }
  return c;
}

TEST(FaultRecovery, ShrinkAndContinueCompletesTraining) {
  train::DataParallelTrainer clean(
      recovery_config(train::RecoveryPolicy::kShrinkContinue, false), blobs());
  const double initial = clean.loss();
  clean.train(40);

  train::DataParallelTrainer faulted(
      recovery_config(train::RecoveryPolicy::kShrinkContinue, true), blobs());
  faulted.train(40);

  EXPECT_EQ(faulted.steps_taken(), 40);
  EXPECT_EQ(faulted.active_workers(), 3);
  EXPECT_EQ(faulted.active_ranks(), (std::vector<int>{0, 1, 3}));
  ASSERT_EQ(faulted.failures().size(), 1U);
  EXPECT_EQ(faulted.failures()[0].failed_ranks, std::vector<int>{2});
  EXPECT_EQ(faulted.failures()[0].step, 12);
  EXPECT_EQ(faulted.failures()[0].action, train::RecoveryPolicy::kShrinkContinue);
  EXPECT_EQ(faulted.failures()[0].resumed_at_step, 12);

  // Survivors stay in lockstep and the run still converges to a final loss
  // in the fault-free ballpark.
  EXPECT_LT(faulted.replica_divergence(), 1e-6);
  EXPECT_LT(faulted.loss(), initial * 0.5);
  EXPECT_NEAR(faulted.loss(), clean.loss(), 0.1);
  EXPECT_GT(faulted.accuracy(), 0.85);
}

TEST(FaultRecovery, CheckpointRestoreCompletesTraining) {
  train::DataParallelTrainer clean(
      recovery_config(train::RecoveryPolicy::kRestoreCheckpoint, false), blobs());
  const double initial = clean.loss();
  clean.train(40);

  train::DataParallelTrainer faulted(
      recovery_config(train::RecoveryPolicy::kRestoreCheckpoint, true), blobs());
  faulted.train(40);

  EXPECT_EQ(faulted.steps_taken(), 40);
  EXPECT_EQ(faulted.active_workers(), 3);
  ASSERT_EQ(faulted.failures().size(), 1U);
  EXPECT_EQ(faulted.failures()[0].failed_ranks, std::vector<int>{2});
  EXPECT_EQ(faulted.failures()[0].step, 12);
  EXPECT_EQ(faulted.failures()[0].action, train::RecoveryPolicy::kRestoreCheckpoint);
  // checkpoint_every = 5 and the failure hit while attempting step 12, so
  // the run rewound to the step-10 checkpoint.
  EXPECT_EQ(faulted.failures()[0].resumed_at_step, 10);

  EXPECT_LT(faulted.replica_divergence(), 1e-6);
  EXPECT_LT(faulted.loss(), initial * 0.5);
  EXPECT_NEAR(faulted.loss(), clean.loss(), 0.1);
  EXPECT_GT(faulted.accuracy(), 0.85);
}

TEST(FaultRecovery, HistoryMatchesRealizedTrajectory) {
  train::DataParallelTrainer faulted(
      recovery_config(train::RecoveryPolicy::kRestoreCheckpoint, true), blobs());
  faulted.train(20);
  // One stats entry per realized step, regardless of the rewind.
  EXPECT_EQ(faulted.history().size(), 20U);
  // Steps before the failure ran at p=4, after at p=3.
  EXPECT_EQ(faulted.history().front().active_workers, 4);
  EXPECT_EQ(faulted.history().back().active_workers, 3);
}

TEST(FaultRecovery, RestorePolicyWithoutCheckpointFallsBackToShrink) {
  auto cfg = recovery_config(train::RecoveryPolicy::kRestoreCheckpoint, true);
  cfg.checkpoint_every = 0;  // never checkpoints
  train::DataParallelTrainer faulted(cfg, blobs());
  faulted.train(20);
  ASSERT_EQ(faulted.failures().size(), 1U);
  EXPECT_EQ(faulted.failures()[0].action, train::RecoveryPolicy::kShrinkContinue);
  EXPECT_EQ(faulted.steps_taken(), 20);
}

// --- trainer rejoin ---------------------------------------------------------

// World 4; rank 2 dies at step 6 and its replacement rejoins at step 12.
train::TrainerConfig rejoin_config(compress::Method method) {
  train::TrainerConfig c;
  c.world_size = 4;
  c.layer_dims = {16, 32, 4};
  c.batch_per_worker = 16;
  c.optimizer.lr = 0.1;
  c.compression.method = method;
  core::FaultPlanOptions fp;
  fp.world_size = 4;
  fp.iterations = 40;
  fp.recovery_windows = {{2, 6, 6}};
  c.fault_plan = core::FaultPlan::generate(fp);
  c.recovery = train::RecoveryPolicy::kShrinkContinue;
  return c;
}

TEST(FaultRecovery, RejoinRestoresWorldSizeAndLockstep) {
  train::DataParallelTrainer t(rejoin_config(compress::Method::kPowerSgd), blobs());
  const double initial = t.loss();
  t.train(20);

  EXPECT_EQ(t.steps_taken(), 20);
  EXPECT_EQ(t.active_workers(), 4);
  EXPECT_EQ(t.active_ranks(), (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(t.failures().size(), 1U);
  EXPECT_EQ(t.failures()[0].failed_ranks, std::vector<int>{2});
  EXPECT_EQ(t.failures()[0].step, 6);
  ASSERT_EQ(t.rejoins().size(), 1U);
  EXPECT_EQ(t.rejoins()[0].step, 12);
  EXPECT_EQ(t.rejoins()[0].rejoined_ranks, std::vector<int>{2});
  EXPECT_GT(t.rejoins()[0].resync_bytes, 0U);

  // Steps 6..11 ran degraded, step 12 onward at the restored world size.
  EXPECT_EQ(t.history()[5].active_workers, 4);
  EXPECT_EQ(t.history()[6].active_workers, 3);
  EXPECT_EQ(t.history()[11].active_workers, 3);
  EXPECT_EQ(t.history()[12].active_workers, 4);

  // The rejoined replica is bit-identical to the survivors (divergence
  // covers ALL active ranks) and the run still converges.
  EXPECT_EQ(t.replica_divergence(), 0.0);
  EXPECT_LT(t.loss(), initial * 0.5);

  // The resync shows up as exactly one "rejoin" span on the timeline.
  EXPECT_EQ(t.timeline().spans_on("rejoin").size(), 1U);
}

TEST(FaultRecovery, ShrinkGrowShrinkEndsAtSmallerWorld) {
  // Rank 1: dies at 5, replacement rejoins at 10. Rank 3: dies at 15 for
  // good. The kShrinkContinue policy rides through both.
  auto cfg = rejoin_config(compress::Method::kTopK);
  core::FaultPlanOptions fp;
  fp.world_size = 4;
  fp.iterations = 40;
  fp.recovery_windows = {{1, 5, 5}, {3, 15, 0}};
  cfg.fault_plan = core::FaultPlan::generate(fp);
  train::DataParallelTrainer t(cfg, blobs());
  t.train(25);

  EXPECT_EQ(t.steps_taken(), 25);
  EXPECT_EQ(t.active_workers(), 3);
  EXPECT_EQ(t.active_ranks(), (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(t.failures().size(), 2U);
  EXPECT_EQ(t.failures()[0].failed_ranks, std::vector<int>{1});
  EXPECT_EQ(t.failures()[1].failed_ranks, std::vector<int>{3});
  ASSERT_EQ(t.rejoins().size(), 1U);
  EXPECT_EQ(t.rejoins()[0].step, 10);
  EXPECT_EQ(t.rejoins()[0].rejoined_ranks, std::vector<int>{1});
  EXPECT_EQ(t.replica_divergence(), 0.0);
}

TEST(FaultRecovery, CheckpointRewindAcrossRejoinUsesDonorState) {
  // The step-10 checkpoint is taken at world 3 (rank 2 dead). Rank 2
  // rejoins at 12; rank 0 dies at 13 under kRestoreCheckpoint, so the
  // rewind restores a checkpoint that has NO entry for the now-active
  // rank 2 — its compressor state must resync from a surviving donor
  // instead of silently diverging.
  auto cfg = rejoin_config(compress::Method::kTopK);
  core::FaultPlanOptions fp;
  fp.world_size = 4;
  fp.iterations = 40;
  fp.recovery_windows = {{2, 6, 6}, {0, 13, 0}};
  cfg.fault_plan = core::FaultPlan::generate(fp);
  cfg.recovery = train::RecoveryPolicy::kRestoreCheckpoint;
  cfg.checkpoint_every = 5;
  train::DataParallelTrainer t(cfg, blobs());
  t.train(25);

  EXPECT_EQ(t.steps_taken(), 25);
  EXPECT_EQ(t.active_workers(), 3);
  EXPECT_EQ(t.active_ranks(), (std::vector<int>{1, 2, 3}));
  ASSERT_EQ(t.failures().size(), 2U);
  EXPECT_EQ(t.failures()[1].failed_ranks, std::vector<int>{0});
  EXPECT_EQ(t.failures()[1].resumed_at_step, 10);
  // The rewind replays step 12; rank 2 is already active by then, so no
  // second grow runs.
  ASSERT_EQ(t.rejoins().size(), 1U);
  EXPECT_EQ(t.replica_divergence(), 0.0);
}

// Every compression method must survive a death -> downtime -> rejoin
// window: the joiner resyncs params + SHARED compressor state in-band, its
// error feedback restarts at zero (stale residuals from its past life must
// not be reintroduced), and the group returns to bit-identical lockstep.
class RejoinAcrossMethods : public ::testing::TestWithParam<compress::Method> {};

TEST_P(RejoinAcrossMethods, WorldReExpandsAndStaysInLockstep) {
  train::DataParallelTrainer t(rejoin_config(GetParam()), blobs());
  const double initial = t.loss();
  t.train(20);
  EXPECT_EQ(t.steps_taken(), 20);
  EXPECT_EQ(t.active_workers(), 4);
  ASSERT_EQ(t.rejoins().size(), 1U);
  EXPECT_EQ(t.rejoins()[0].rejoined_ranks, std::vector<int>{2});
  EXPECT_EQ(t.replica_divergence(), 0.0);
  EXPECT_TRUE(std::isfinite(t.loss()));
  EXPECT_LT(t.loss(), initial);
}

INSTANTIATE_TEST_SUITE_P(Methods, RejoinAcrossMethods,
                         ::testing::ValuesIn(compress::all_methods()));

TEST(FaultRecovery, TrainerRejectsMismatchedPlan) {
  auto cfg = recovery_config(train::RecoveryPolicy::kShrinkContinue, false);
  core::FaultPlanOptions fp;
  fp.world_size = 8;  // != trainer world 4
  fp.iterations = 10;
  fp.fail_rank = 5;
  fp.fail_at_iteration = 2;
  cfg.fault_plan = core::FaultPlan::generate(fp);
  EXPECT_THROW(train::DataParallelTrainer(cfg, blobs()), std::invalid_argument);
}

}  // namespace
}  // namespace gradcomp
