// Real in-process collectives over a group of worker threads.
//
// This is the "cluster" the end-to-end trainer and the numerical tests run
// on: p ranks, each a thread, sharing one address space. The all-reduce is
// a direct reduce-scatter + all-gather over the ranks' own buffers: each
// rank publishes its buffer, dense rank d sums slice d of every buffer in
// ascending rank order, and every rank then copies the other slices from
// their owners. Each element is therefore summed in the same order however
// the gradients are grouped into calls. The paper's cost model and
// `fabric` still price NCCL's ring and tree; this is the real path.
//
// Fault tolerance: every blocking wait carries a deadline, so a rank that
// stops participating surfaces as a RankFailure error on the survivors
// instead of hanging the group. A rank can also declare its own death
// (fail()), which aborts in-flight collectives immediately. Survivors then
// call shrink() collectively: the failed ranks are removed, the dense rank
// order is rebuilt over the survivors, and the group continues at world
// size p-1 — world_size() always reports the ACTIVE count, which is what
// gives compressor mean-reduction its p-1 reweighting for free.
//
// Elastic re-expansion: grow()/rejoin() are the inverse of shrink(). A
// replacement worker re-spawned under a previously-reaped rank id parks in
// rejoin() while every survivor calls grow() with the expected joiner set;
// when both sides meet, the joiners are re-admitted, their stale gather
// slots are cleared, and the dense rank order is rebuilt at the larger
// world size. State resync (params, optimizer, compressor state) is the
// caller's job, done in-band right after the grow via broadcast_bytes().
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sync.hpp"

namespace gradcomp::comm {

// Thrown by collectives when one or more ranks are (or are detected) dead.
// Survivors are expected to unwind to a recovery point and call shrink().
class RankFailure : public std::runtime_error {
 public:
  explicit RankFailure(std::vector<int> failed);

  // Original rank ids of the ranks considered dead, ascending.
  [[nodiscard]] const std::vector<int>& failed() const noexcept { return failed_; }

 private:
  std::vector<int> failed_;
};

class ThreadComm {
 public:
  // `timeout` bounds every blocking collective wait; it must exceed the
  // longest compute gap between two collective calls on any healthy rank.
  explicit ThreadComm(int world_size,
                      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

  ThreadComm(const ThreadComm&) = delete;
  ThreadComm& operator=(const ThreadComm&) = delete;

  // ACTIVE rank count (shrinks as ranks fail); the denominator for
  // mean-semantics aggregation.
  [[nodiscard]] int world_size() const noexcept {
    return active_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int initial_world_size() const noexcept { return initial_world_size_; }
  [[nodiscard]] bool is_active(int rank) const;
  // Active original rank ids, ascending (the dense rank order).
  [[nodiscard]] std::vector<int> active_ranks() const;
  // Ranks that died and have not been reaped by shrink() yet.
  [[nodiscard]] std::vector<int> failed_ranks() const;

  void set_timeout(std::chrono::milliseconds timeout);
  [[nodiscard]] std::chrono::milliseconds timeout() const;

  // All collectives must be entered by every ACTIVE rank (SPMD). Rank is the
  // caller's ORIGINAL identity in [0, initial_world_size); identities are
  // stable across shrinks.

  // Deadline-bounded barrier across the active ranks. Throws RankFailure if
  // a peer dies (fail()) or fails to arrive before the timeout; the
  // non-arrived ranks are marked failed.
  void barrier(int rank);

  // Declares this rank dead: it must make no further calls on the group.
  // Peers blocked in (or later entering) a collective observe RankFailure.
  void fail(int rank);

  // Collective among the survivors after a RankFailure: removes every failed
  // rank from the group, rebuilds the dense rank order, clears aborted
  // collective state, and returns the ranks that were removed (identical on
  // every caller). Throws std::runtime_error if no survivors would remain.
  // If yet another rank dies (fail()) while survivors are parked inside the
  // shrink barrier, the consensus re-forms without it: both casualties are
  // reaped in the same shrink.
  std::vector<int> shrink(int rank);

  // Collective re-admission of previously-reaped ranks. Every ACTIVE rank
  // calls grow(rank, joiners) with the SAME joiner set (ascending original
  // rank ids, all currently inactive) while each joiner calls rejoin(rank);
  // when all survivors and all expected joiners have arrived, the joiners
  // are reactivated, their stale gather slots are dropped, and the dense
  // rank order is rebuilt. Both calls return the new active rank list
  // (identical on every participant). On timeout the absent survivors are
  // blamed as failed and RankFailure is thrown; a mismatched joiner set
  // aborts the round with std::logic_error on every participant.
  std::vector<int> grow(int rank, std::span<const int> joiners);
  std::vector<int> rejoin(int rank);

  // Copies root's byte payload into every active rank's `data` (receivers
  // are resized to match; used for the rejoin state-resync blob).
  void broadcast_bytes(int rank, int root, std::vector<std::byte>& data);

  // In-place sum all-reduce. Every element is summed over the active ranks
  // in ascending dense rank order, ((x0 + x1) + x2) + ..., so the result
  // does not depend on how a caller splits or concatenates its buffers.
  // Every rank's `data` must have the same length; otherwise every rank
  // throws std::invalid_argument. Peers read `data` until the call returns.
  void allreduce_sum(int rank, std::span<float> data);

  // Gathers each active rank's byte payload; returns all payloads in dense
  // rank order. Payload sizes may differ across ranks (the TopK case).
  [[nodiscard]] std::vector<std::vector<std::byte>> allgather(int rank,
                                                              std::span<const std::byte> bytes);

  // Number of completed allreduce_sum calls (one per collective, not per
  // rank), for per-step counters.
  [[nodiscard]] std::uint64_t allreduce_count() const noexcept { return allreduce_ops_; }

 private:
  void validate_rank(int rank) const;
  // The deadline-bounded generation barrier under every collective.
  void sync(int rank);
  [[noreturn]] void throw_failure_locked() const GRADCOMP_REQUIRES(mu_);
  void rebuild_dense_locked() GRADCOMP_REQUIRES(mu_);
  // True when every live survivor has entered grow() and every expected
  // joiner is parked in rejoin().
  [[nodiscard]] bool grow_ready_locked() const GRADCOMP_REQUIRES(mu_);
  // Re-admits the expected joiners and publishes the new rank order.
  void complete_grow_locked() GRADCOMP_REQUIRES(mu_);
  // Deadline handling shared by grow() and rejoin(): blames absent
  // survivors and aborts the round.
  void abort_grow_locked() GRADCOMP_REQUIRES(mu_);
  // Thrown by grow()/rejoin() waiters observing an aborted round.
  [[noreturn]] void throw_grow_abort_locked() const GRADCOMP_REQUIRES(mu_);
  // Count of still-live survivors of the in-progress shrink.
  [[nodiscard]] int live_survivors_locked() const GRADCOMP_REQUIRES(mu_);
  // Reaps the agreed casualties and publishes the post-shrink rank order.
  void complete_shrink_locked() GRADCOMP_REQUIRES(mu_);

  const int initial_world_size_;
  std::chrono::milliseconds timeout_ GRADCOMP_GUARDED_BY(mu_);

  // Rank-ordered (core::sync): the group lock sits above the pool locks, so
  // pool workers parked in a future pool-backed collective wait acquire in
  // hierarchy order — and a collective entered while holding the trainer
  // lock trips the OrderedMutex check instead of risking a deadlock.
  mutable core::sync::OrderedMutex mu_{core::sync::LockRank::kCommGroup, "comm-group"};
  core::sync::OrderedCondVar cv_;
  // Control plane: every field below is group-membership / barrier state,
  // mutated and read only under mu_ (machine-checked by clang -Wthread-safety
  // and gradcheck --share).
  std::uint64_t epoch_ GRADCOMP_GUARDED_BY(mu_) = 0;  // completed barrier generations
  int arrived_ GRADCOMP_GUARDED_BY(mu_) = 0;
  bool aborted_ GRADCOMP_GUARDED_BY(mu_) = false;  // a failure interrupted collectives
  std::vector<char> arrived_flag_ GRADCOMP_GUARDED_BY(mu_);  // by original rank, for blame
  std::vector<char> active_ GRADCOMP_GUARDED_BY(mu_);        // by original rank
  std::vector<char> failed_ GRADCOMP_GUARDED_BY(mu_);  // dead, not yet reaped by shrink()
  std::atomic<int> active_count_;
  std::vector<char> shrink_flag_ GRADCOMP_GUARDED_BY(mu_);  // survivors inside shrink()
  int shrink_arrived_ GRADCOMP_GUARDED_BY(mu_) = 0;  // survivors entering shrink
  std::uint64_t shrink_epoch_ GRADCOMP_GUARDED_BY(mu_) = 0;
  std::vector<int> shrink_removed_ GRADCOMP_GUARDED_BY(mu_);  // in-progress shrink result

  std::vector<char> grow_flag_ GRADCOMP_GUARDED_BY(mu_);    // survivors inside grow()
  std::vector<char> rejoin_flag_ GRADCOMP_GUARDED_BY(mu_);  // joiners parked in rejoin()
  int grow_arrived_ GRADCOMP_GUARDED_BY(mu_) = 0;  // survivors that have entered grow()
  std::uint64_t grow_epoch_ GRADCOMP_GUARDED_BY(mu_) = 0;  // completed grow rounds
  bool grow_aborted_ GRADCOMP_GUARDED_BY(mu_) = false;  // round failed; waiters unwind
  std::vector<int> grow_expected_ GRADCOMP_GUARDED_BY(mu_);  // sorted in-progress joiner set
  std::vector<int> grow_result_ GRADCOMP_GUARDED_BY(mu_);  // active ranks after the grow

  // Data plane: rebuilt only while every participant is parked inside the
  // same barrier/shrink/grow generation, then read by the collectives
  // without the lock — the generation barrier's mutex orders publication.
  // Dense re-indexing of the active ranks: dense_[orig] in [0, active) or
  // -1; ranks_[dense] = orig.
  std::vector<int> dense_ GRADCOMP_SYNC_EXTERNAL("barrier-published rank order");
  std::vector<int> ranks_ GRADCOMP_SYNC_EXTERNAL("barrier-published rank order");

  // reduce_spans_[d] is dense rank d's all-reduce buffer for the call in
  // flight.
  std::vector<std::span<float>> reduce_spans_
      GRADCOMP_SYNC_EXTERNAL("slot d written by dense rank d, epoch-fenced");
  std::vector<std::vector<std::byte>> byte_slots_
      GRADCOMP_SYNC_EXTERNAL("slot r written by one peer per step, epoch-fenced");
  const std::vector<std::byte>* byte_broadcast_src_
      GRADCOMP_SYNC_EXTERNAL("root-written between barriers") = nullptr;
  std::uint64_t allreduce_ops_ GRADCOMP_SYNC_EXTERNAL("dense rank 0 writes, epoch-fenced") = 0;
};

// Runs `body(rank)` on world_size threads and joins them. Exceptions thrown
// by any rank are rethrown (first one wins) after all threads join.
void run_ranks(int world_size, const std::function<void(int)>& body);

// Same, but only for the given (original) rank ids — the surviving subset
// after a shrink.
void run_ranks(std::span<const int> ranks, const std::function<void(int)>& body);

}  // namespace gradcomp::comm
