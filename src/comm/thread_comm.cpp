#include "comm/thread_comm.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <thread>

namespace gradcomp::comm {

namespace {

// Chunk boundaries for splitting n elements into p near-equal parts.
std::vector<std::size_t> chunk_offsets(std::size_t n, int p) {
  std::vector<std::size_t> offsets(static_cast<std::size_t>(p) + 1, 0);
  const std::size_t base = n / static_cast<std::size_t>(p);
  const std::size_t rem = n % static_cast<std::size_t>(p);
  for (int c = 0; c < p; ++c) {
    const std::size_t len = base + (static_cast<std::size_t>(c) < rem ? 1 : 0);
    offsets[static_cast<std::size_t>(c) + 1] = offsets[static_cast<std::size_t>(c)] + len;
  }
  return offsets;
}

std::string failure_message(const std::vector<int>& failed) {
  std::string msg = "RankFailure: dead rank(s)";
  for (const int r : failed) msg += ' ' + std::to_string(r);
  return msg;
}

int checked_world_size(int world_size) {
  if (world_size < 1) throw std::invalid_argument("ThreadComm: world size must be >= 1");
  return world_size;
}

}  // namespace

RankFailure::RankFailure(std::vector<int> failed)
    : std::runtime_error(failure_message(failed)), failed_(std::move(failed)) {}

ThreadComm::ThreadComm(int world_size, std::chrono::milliseconds timeout)
    : initial_world_size_(checked_world_size(world_size)),
      timeout_(timeout),
      arrived_flag_(static_cast<std::size_t>(world_size), 0),
      active_(static_cast<std::size_t>(world_size), 1),
      failed_(static_cast<std::size_t>(world_size), 0),
      active_count_(world_size),
      shrink_flag_(static_cast<std::size_t>(world_size), 0),
      grow_flag_(static_cast<std::size_t>(world_size), 0),
      rejoin_flag_(static_cast<std::size_t>(world_size), 0),
      dense_(static_cast<std::size_t>(world_size)),
      ranks_(static_cast<std::size_t>(world_size)),
      reduce_spans_(static_cast<std::size_t>(world_size)),
      byte_slots_(static_cast<std::size_t>(world_size)) {
  if (timeout.count() <= 0)
    throw std::invalid_argument("ThreadComm: timeout must be positive");
  for (int r = 0; r < world_size; ++r) {
    dense_[static_cast<std::size_t>(r)] = r;
    ranks_[static_cast<std::size_t>(r)] = r;
  }
}

void ThreadComm::set_timeout(std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0)
    throw std::invalid_argument("ThreadComm: timeout must be positive");
  const core::sync::LockGuard lock(mu_);
  timeout_ = timeout;
}

std::chrono::milliseconds ThreadComm::timeout() const {
  const core::sync::LockGuard lock(mu_);
  return timeout_;
}

void ThreadComm::validate_rank(int rank) const {
  if (rank < 0 || rank >= initial_world_size_)
    throw std::invalid_argument("ThreadComm: rank out of range");
  const core::sync::LockGuard lock(mu_);
  if (!active_[static_cast<std::size_t>(rank)])
    throw std::logic_error("ThreadComm: removed rank used the group");
}

bool ThreadComm::is_active(int rank) const {
  if (rank < 0 || rank >= initial_world_size_) return false;
  const core::sync::LockGuard lock(mu_);
  return active_[static_cast<std::size_t>(rank)] != 0 &&
         failed_[static_cast<std::size_t>(rank)] == 0;
}

std::vector<int> ThreadComm::active_ranks() const {
  const core::sync::LockGuard lock(mu_);
  std::vector<int> out;
  for (int r = 0; r < initial_world_size_; ++r)
    if (active_[static_cast<std::size_t>(r)] && !failed_[static_cast<std::size_t>(r)])
      out.push_back(r);
  return out;
}

std::vector<int> ThreadComm::failed_ranks() const {
  const core::sync::LockGuard lock(mu_);
  std::vector<int> out;
  for (int r = 0; r < initial_world_size_; ++r)
    if (failed_[static_cast<std::size_t>(r)]) out.push_back(r);
  return out;
}

void ThreadComm::throw_failure_locked() const {
  std::vector<int> failed;
  for (int r = 0; r < initial_world_size_; ++r)
    if (failed_[static_cast<std::size_t>(r)]) failed.push_back(r);
  if (failed.empty()) failed.push_back(-1);  // abort without blame — should not happen
  throw RankFailure(std::move(failed));
}

void ThreadComm::sync(int rank) {
  core::sync::UniqueLock lock(mu_);
  if (aborted_) throw_failure_locked();
  const std::uint64_t my_epoch = epoch_;
  arrived_flag_[static_cast<std::size_t>(rank)] = 1;
  ++arrived_;
  if (arrived_ == active_count_.load(std::memory_order_relaxed)) {
    arrived_ = 0;
    for (const int r : ranks_) arrived_flag_[static_cast<std::size_t>(r)] = 0;
    ++epoch_;
    cv_.notify_all();
    return;
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  while (epoch_ == my_epoch) {
    if (aborted_) throw_failure_locked();
    // Predicate-form wait (gradcheck conc: cv-wait-no-predicate): spurious
    // wakeups re-check inside wait_until; a false return means the deadline
    // passed with the barrier still incomplete and nobody aborted yet.
    if (!cv_.wait_until(lock, deadline, [&] {
          mu_.assert_held();  // predicate only ever runs locked
          return epoch_ != my_epoch || aborted_;
        })) {
      // Deadline passed with the barrier incomplete: blame every active rank
      // that has not arrived — it is hung or dead — and abort the collective
      // so the survivors get an error instead of waiting forever.
      for (int r = 0; r < initial_world_size_; ++r) {
        const auto u = static_cast<std::size_t>(r);
        if (active_[u] && !failed_[u] && !arrived_flag_[u]) failed_[u] = 1;
      }
      aborted_ = true;
      cv_.notify_all();
    }
  }
  // The barrier generation completed before any abort: success.
}

void ThreadComm::fail(int rank) {
  if (rank < 0 || rank >= initial_world_size_)
    throw std::invalid_argument("ThreadComm::fail: rank out of range");
  const core::sync::LockGuard lock(mu_);
  const auto u = static_cast<std::size_t>(rank);
  if (!active_[u] || failed_[u]) return;  // already dead
  failed_[u] = 1;
  aborted_ = true;
  cv_.notify_all();
}

void ThreadComm::rebuild_dense_locked() {
  // Size for the worst case first: a grow() re-expands the group, and the
  // dense->original table must be able to hold every readmitted rank before
  // the loop assigns (it is trimmed back down below).
  ranks_.resize(static_cast<std::size_t>(initial_world_size_));
  int d = 0;
  for (int r = 0; r < initial_world_size_; ++r) {
    const auto u = static_cast<std::size_t>(r);
    if (active_[u]) {
      dense_[u] = d;
      ranks_[static_cast<std::size_t>(d)] = r;
      ++d;
    } else {
      dense_[u] = -1;
    }
  }
  ranks_.resize(static_cast<std::size_t>(d));
  active_count_.store(d, std::memory_order_relaxed);
}

int ThreadComm::live_survivors_locked() const {
  int c = 0;
  for (int r = 0; r < initial_world_size_; ++r)
    if (active_[static_cast<std::size_t>(r)] && !failed_[static_cast<std::size_t>(r)]) ++c;
  return c;
}

void ThreadComm::complete_shrink_locked() {
  shrink_removed_.clear();
  for (int r = 0; r < initial_world_size_; ++r) {
    const auto u = static_cast<std::size_t>(r);
    if (failed_[u]) {
      shrink_removed_.push_back(r);
      active_[u] = 0;
      failed_[u] = 0;
    }
  }
  rebuild_dense_locked();
  arrived_ = 0;
  std::fill(arrived_flag_.begin(), arrived_flag_.end(), 0);
  std::fill(shrink_flag_.begin(), shrink_flag_.end(), 0);
  aborted_ = false;
  shrink_arrived_ = 0;
  ++shrink_epoch_;
  cv_.notify_all();
}

std::vector<int> ThreadComm::shrink(int rank) {
  core::sync::UniqueLock lock(mu_);
  if (rank < 0 || rank >= initial_world_size_ || !active_[static_cast<std::size_t>(rank)] ||
      failed_[static_cast<std::size_t>(rank)])
    throw std::logic_error("ThreadComm::shrink: caller is not a live group member");

  const std::uint64_t my_epoch = shrink_epoch_;
  shrink_flag_[static_cast<std::size_t>(rank)] = 1;
  ++shrink_arrived_;

  if (shrink_arrived_ == live_survivors_locked()) {
    complete_shrink_locked();
    return shrink_removed_;
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  while (shrink_epoch_ == my_epoch) {
    // Predicate-form wait: besides the epoch advancing, wake when the
    // consensus condition becomes satisfiable without us doing anything —
    // a second rank dying (double fault) via fail() while we are parked
    // here removes itself from the survivor count, and fail()'s notify
    // must let a waiter re-check completion instead of hanging until the
    // deadline. A false return means the deadline passed with the shrink
    // consensus still pending for our epoch.
    if (!cv_.wait_until(lock, deadline, [&] {
          mu_.assert_held();  // predicate only ever runs locked
          return shrink_epoch_ != my_epoch || shrink_arrived_ == live_survivors_locked();
        })) {
      // A survivor died during recovery without declaring: blame the
      // missing ones and try to complete with whoever showed up.
      for (int r = 0; r < initial_world_size_; ++r) {
        const auto u = static_cast<std::size_t>(r);
        if (active_[u] && !failed_[u] && !shrink_flag_[u]) failed_[u] = 1;
      }
      if (shrink_arrived_ == live_survivors_locked()) complete_shrink_locked();
    } else if (shrink_epoch_ == my_epoch && shrink_arrived_ == live_survivors_locked()) {
      // Double fault: the newly-dead rank will never enter shrink(), so the
      // ranks that did arrive are now the whole consensus — reap both
      // casualties in this round.
      complete_shrink_locked();
    }
  }
  return shrink_removed_;
}

bool ThreadComm::grow_ready_locked() const {
  if (grow_expected_.empty() || grow_aborted_) return false;
  if (grow_arrived_ != live_survivors_locked()) return false;
  for (const int j : grow_expected_)
    if (!rejoin_flag_[static_cast<std::size_t>(j)]) return false;
  return true;
}

void ThreadComm::complete_grow_locked() {
  for (const int j : grow_expected_) {
    const auto u = static_cast<std::size_t>(j);
    active_[u] = 1;
    failed_[u] = 0;
    rejoin_flag_[u] = 0;
    // Drop the gather payload this rank id left in a past life: the joiner
    // must only ever observe data from its new generation.
    byte_slots_[u].clear();
  }
  rebuild_dense_locked();
  arrived_ = 0;
  std::fill(arrived_flag_.begin(), arrived_flag_.end(), 0);
  std::fill(grow_flag_.begin(), grow_flag_.end(), 0);
  grow_arrived_ = 0;
  grow_expected_.clear();
  // A rank that died mid-round stays blamed; otherwise the group is clean.
  bool any_failed = false;
  for (int r = 0; r < initial_world_size_; ++r)
    if (failed_[static_cast<std::size_t>(r)]) any_failed = true;
  aborted_ = any_failed;
  grow_result_.clear();
  for (const int r : ranks_) grow_result_.push_back(r);
  ++grow_epoch_;
  cv_.notify_all();
}

void ThreadComm::abort_grow_locked() {
  // The round cannot complete: the survivors that never entered grow() are
  // hung or dead — blame them so collectives surface the failure. Missing
  // joiners are simply not admitted.
  for (int r = 0; r < initial_world_size_; ++r) {
    const auto u = static_cast<std::size_t>(r);
    if (active_[u] && !failed_[u] && !grow_flag_[u]) {
      failed_[u] = 1;
      aborted_ = true;
    }
  }
  grow_aborted_ = true;
  cv_.notify_all();
}

void ThreadComm::throw_grow_abort_locked() const {
  for (int r = 0; r < initial_world_size_; ++r)
    if (failed_[static_cast<std::size_t>(r)]) throw_failure_locked();
  throw std::logic_error("ThreadComm: grow/rejoin round aborted (joiner set mismatch)");
}

std::vector<int> ThreadComm::grow(int rank, std::span<const int> joiners) {
  core::sync::UniqueLock lock(mu_);
  if (rank < 0 || rank >= initial_world_size_ || !active_[static_cast<std::size_t>(rank)] ||
      failed_[static_cast<std::size_t>(rank)])
    throw std::logic_error("ThreadComm::grow: caller is not a live group member");
  if (grow_flag_[static_cast<std::size_t>(rank)])
    throw std::logic_error("ThreadComm::grow: re-entered by the same rank");

  std::vector<int> want(joiners.begin(), joiners.end());
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  if (want.empty()) throw std::invalid_argument("ThreadComm::grow: empty joiner set");
  for (const int j : want) {
    if (j < 0 || j >= initial_world_size_)
      throw std::invalid_argument("ThreadComm::grow: joiner rank out of range");
    if (active_[static_cast<std::size_t>(j)])
      throw std::logic_error(
          "ThreadComm::grow: joiner " + std::to_string(j) +
          " is still a group member (a dead rank must be reaped by shrink() first)");
  }
  if (grow_expected_.empty()) {
    grow_expected_ = want;
    grow_aborted_ = false;  // a fresh round supersedes a past aborted one
  } else if (grow_expected_ != want) {
    // SPMD misuse: survivors disagree on who is joining. Abort the round so
    // every participant unwinds instead of deadlocking on a set nobody
    // satisfies.
    grow_aborted_ = true;
    cv_.notify_all();
    throw std::logic_error("ThreadComm::grow: joiner set mismatch across survivors");
  }
  grow_flag_[static_cast<std::size_t>(rank)] = 1;
  ++grow_arrived_;

  const std::uint64_t my_epoch = grow_epoch_;
  if (grow_ready_locked()) {
    complete_grow_locked();
    return grow_result_;
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  while (grow_epoch_ == my_epoch) {
    if (grow_aborted_) {
      grow_flag_[static_cast<std::size_t>(rank)] = 0;
      --grow_arrived_;
      if (grow_arrived_ == 0) grow_expected_.clear();
      throw_grow_abort_locked();
    }
    // Predicate-form wait: wake on round completion, abort, or the consensus
    // becoming satisfiable (e.g. a straggling survivor died via fail() while
    // we were parked — its notify must trigger a re-check, not a hang).
    if (!cv_.wait_until(lock, deadline, [&] {
          mu_.assert_held();  // predicate only ever runs locked
          return grow_epoch_ != my_epoch || grow_aborted_ || grow_ready_locked();
        })) {
      abort_grow_locked();
    } else if (grow_epoch_ == my_epoch && !grow_aborted_ && grow_ready_locked()) {
      complete_grow_locked();
    }
  }
  return grow_result_;
}

std::vector<int> ThreadComm::rejoin(int rank) {
  core::sync::UniqueLock lock(mu_);
  if (rank < 0 || rank >= initial_world_size_)
    throw std::invalid_argument("ThreadComm::rejoin: rank out of range");
  const auto u = static_cast<std::size_t>(rank);
  if (active_[u])
    throw std::logic_error("ThreadComm::rejoin: rank is still a group member");
  if (rejoin_flag_[u]) throw std::logic_error("ThreadComm::rejoin: re-entered by the same rank");
  rejoin_flag_[u] = 1;

  const std::uint64_t my_epoch = grow_epoch_;
  if (grow_ready_locked()) {
    complete_grow_locked();
    return grow_result_;
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  while (grow_epoch_ == my_epoch) {
    if (grow_aborted_) {
      rejoin_flag_[u] = 0;
      throw_grow_abort_locked();
    }
    if (!cv_.wait_until(lock, deadline, [&] {
          mu_.assert_held();  // predicate only ever runs locked
          return grow_epoch_ != my_epoch || grow_aborted_ || grow_ready_locked();
        })) {
      // The survivors never (all) called grow(): the joiner cannot be
      // admitted. Blame the absentees and unwind.
      abort_grow_locked();
    } else if (grow_epoch_ == my_epoch && !grow_aborted_ && grow_ready_locked()) {
      complete_grow_locked();
    }
  }
  if (!active_[u]) {
    // The round completed but this rank was not in the survivors' expected
    // joiner set.
    rejoin_flag_[u] = 0;
    throw std::logic_error("ThreadComm::rejoin: the group did not expect this rank");
  }
  return grow_result_;
}

void ThreadComm::barrier(int rank) {
  validate_rank(rank);
  sync(rank);
}

void ThreadComm::allreduce_sum(int rank, std::span<float> data) {
  validate_rank(rank);
  const int p = active_count_.load(std::memory_order_relaxed);
  const auto me = static_cast<std::size_t>(dense_[static_cast<std::size_t>(rank)]);
  if (p == 1) {
    ++allreduce_ops_;
    return;
  }
  const auto buffers = std::span(reduce_spans_).first(static_cast<std::size_t>(p));
  buffers[me] = data;
  sync(rank);
  // Every rank reads the same table, so either every rank throws here or
  // none does; the extra sync keeps the table intact until all have read it.
  for (const auto& peer : buffers) {
    if (peer.size() != data.size()) {
      sync(rank);
      throw std::invalid_argument("allreduce_sum: ranks passed buffers of different lengths");
    }
  }
  const auto offsets = chunk_offsets(data.size(), p);

  // Reduce-scatter: dense rank `me` sums slice `me` of every buffer in
  // ascending rank order into its own buffer. Each peer meanwhile reads and
  // writes only its own slice. The block accumulator lets the adds run
  // across elements in SIMD lanes; each element's order is unchanged.
  constexpr std::size_t kBlock = 512;
  std::array<float, kBlock> acc{};
  for (std::size_t b = offsets[me]; b < offsets[me + 1]; b += kBlock) {
    const std::size_t n = std::min(kBlock, offsets[me + 1] - b);
    std::copy_n(buffers[0].data() + b, n, acc.data());
    for (std::size_t d = 1; d < buffers.size(); ++d) {
      const float* x = buffers[d].data() + b;
      for (std::size_t i = 0; i < n; ++i) acc[i] += x[i];
    }
    std::copy_n(acc.data(), n, data.data() + b);
  }
  sync(rank);

  // All-gather: copy every other reduced slice from its owner.
  for (std::size_t d = 0; d < buffers.size(); ++d)
    if (d != me)
      std::copy_n(buffers[d].data() + offsets[d], offsets[d + 1] - offsets[d],
                  data.data() + offsets[d]);
  if (me == 0) ++allreduce_ops_;
  // No rank may return, and free or reuse its buffer, while a peer still
  // reads it.
  sync(rank);
}

std::vector<std::vector<std::byte>> ThreadComm::allgather(int rank,
                                                          std::span<const std::byte> bytes) {
  validate_rank(rank);
  const int p = active_count_.load(std::memory_order_relaxed);
  byte_slots_[static_cast<std::size_t>(rank)].assign(bytes.begin(), bytes.end());
  if (p > 1) sync(rank);
  std::vector<std::vector<std::byte>> result;
  result.reserve(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d)
    result.push_back(byte_slots_[static_cast<std::size_t>(ranks_[static_cast<std::size_t>(d)])]);
  if (p > 1) sync(rank);
  return result;
}

void ThreadComm::broadcast_bytes(int rank, int root, std::vector<std::byte>& data) {
  validate_rank(rank);
  validate_rank(root);
  if (active_count_.load(std::memory_order_relaxed) == 1) return;
  if (rank == root) byte_broadcast_src_ = &data;
  sync(rank);
  if (rank != root) data = *byte_broadcast_src_;
  sync(rank);
}

void run_ranks(int world_size, const std::function<void(int)>& body) {
  if (world_size < 1) throw std::invalid_argument("run_ranks: world size must be >= 1");
  std::vector<int> ranks(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) ranks[static_cast<std::size_t>(r)] = r;
  run_ranks(ranks, body);
}

void run_ranks(std::span<const int> ranks, const std::function<void(int)>& body) {
  if (ranks.empty()) throw std::invalid_argument("run_ranks: no ranks to run");
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(ranks.size());
  threads.reserve(ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const int r = ranks[i];
    threads.emplace_back([&, r, i] {
      try {
        body(r);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& err : errors)
    if (err) std::rethrow_exception(err);
}

}  // namespace gradcomp::comm
