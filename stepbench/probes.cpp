#include "probes.hpp"

#include <algorithm>
#include <array>
#include <latch>
#include <vector>

#include "comm/thread_comm.hpp"
#include "workload.hpp"

namespace stepbench {

namespace gc = gradcomp;

namespace {

constexpr int kControlRounds = 7;  // control-plane probes report the median round

// Wall seconds per call of `op(rank)`, run by every rank `iters` times after
// `warmup` untimed calls. The slowest rank's loop sets the time, as in a
// synchronous step.
template <typename Op>
double seconds_per_op(gc::comm::ThreadComm& comm, int warmup, int iters, const Op& op) {
  std::array<double, kWorldSize> loop_s{};
  gc::comm::run_ranks(kWorldSize, [&](int rank) {
    for (int i = 0; i < warmup; ++i) op(rank);
    comm.barrier(rank);
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) op(rank);
    loop_s[static_cast<std::size_t>(rank)] = seconds_between(t0, Clock::now());
  });
  return *std::max_element(loop_s.begin(), loop_s.end()) / iters;
}

// Milliseconds from the first rank entering `body` to the last one leaving
// it. A latch lines the rank threads up first, so thread start-up is not
// counted.
template <typename Body>
double span_ms(const Body& body) {
  std::latch start(kWorldSize);
  std::array<Clock::time_point, kWorldSize> enter{};
  std::array<Clock::time_point, kWorldSize> leave{};
  gc::comm::run_ranks(kWorldSize, [&](int rank) {
    const auto r = static_cast<std::size_t>(rank);
    start.arrive_and_wait();
    enter[r] = Clock::now();
    body(rank);
    leave[r] = Clock::now();
  });
  return seconds_between(*std::min_element(enter.begin(), enter.end()),
                         *std::max_element(leave.begin(), leave.end())) *
         1e3;
}

}  // namespace

CollectiveProbe probe_collectives() {
  gc::comm::ThreadComm comm(kWorldSize);
  std::vector<std::vector<float>> tiny(kWorldSize, std::vector<float>(1, 0.0F));
  std::vector<std::vector<float>> large(kWorldSize, std::vector<float>((4U << 20) / sizeof(float)));

  const double tiny_s = seconds_per_op(comm, 50, 1000, [&](int rank) {
    comm.allreduce_sum(rank, tiny[static_cast<std::size_t>(rank)]);
  });
  const double large_s = seconds_per_op(comm, 3, 30, [&](int rank) {
    comm.allreduce_sum(rank, large[static_cast<std::size_t>(rank)]);
  });

  constexpr double p = kWorldSize;
  CollectiveProbe probe;
  probe.alpha_us = tiny_s / (p - 1.0) * 1e6;
  // NCCL's bus bandwidth: algorithm bandwidth scaled by the 2(p-1)/p bytes a
  // ring moves per payload byte, so it is comparable across p.
  const double bytes = static_cast<double>(large.front().size() * sizeof(float));
  probe.busbw_gbps = bytes / large_s * 2.0 * (p - 1.0) / p / 1e9;
  return probe;
}

ControlPlaneProbe probe_control_plane(std::size_t blob_bytes) {
  const int victim = kWorldSize - 1;
  const std::vector<int> joiners{victim};
  std::vector<double> shrink_ms;
  std::vector<double> grow_ms;
  for (int round = 0; round < kControlRounds; ++round) {
    gc::comm::ThreadComm comm(kWorldSize);
    // The trainer's path: a peer dies, the survivors see RankFailure at
    // their next collective and shrink.
    shrink_ms.push_back(span_ms([&](int rank) {
      if (rank == victim) {
        comm.fail(rank);
        return;
      }
      try {
        comm.barrier(rank);
      } catch (const gc::comm::RankFailure&) {
      }
      (void)comm.shrink(rank);
    }));
    grow_ms.push_back(span_ms([&](int rank) {
      if (rank == victim)
        (void)comm.rejoin(rank);
      else
        (void)comm.grow(rank, joiners);
    }));
  }

  gc::comm::ThreadComm comm(kWorldSize);
  std::vector<std::vector<std::byte>> blobs(kWorldSize);
  blobs.front().assign(blob_bytes, std::byte{0x5a});
  const double broadcast_s = seconds_per_op(comm, 2, 20, [&](int rank) {
    comm.broadcast_bytes(rank, 0, blobs[static_cast<std::size_t>(rank)]);
  });

  ControlPlaneProbe probe;
  probe.shrink_ms = percentile(shrink_ms, 0.5);
  probe.grow_rejoin_ms = percentile(grow_ms, 0.5);
  probe.broadcast_ms = broadcast_s * 1e3;
  return probe;
}

}  // namespace stepbench
