#include "comm/thread_comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

namespace gradcomp::comm {
namespace {

// The all-reduce contract: element i of the result is
// ((x0[i] + x1[i]) + x2[i]) + ..., over the buffers in ascending rank order.
std::vector<float> ascending_rank_sum(std::span<const std::vector<float>> buffers) {
  std::vector<float> sum = buffers.front();
  for (const auto& b : buffers.subspan(1))
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += b[i];
  return sum;
}

// All-reduces five tensors on `ranks` (ascending original ids) once with one
// call per tensor and once as one concatenated buffer. Both results must be
// memcmp-equal to the ascending-rank sum.
void expect_independent_of_grouping(ThreadComm& comm, const std::vector<int>& ranks) {
  const std::vector<std::size_t> sizes = {7171, 129, 1000, 5, 1};
  const std::size_t total = std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
  std::vector<std::vector<float>> inputs(static_cast<std::size_t>(comm.initial_world_size()));
  std::vector<std::vector<float>> participating;
  for (const int r : ranks) {
    auto& x = inputs[static_cast<std::size_t>(r)];
    x.resize(total);
    // Non-integer values, so that a different summation order rounds
    // differently.
    for (std::size_t i = 0; i < total; ++i) {
      const std::size_t h = (i * 2654435761U + static_cast<std::size_t>(r) * 40503U) % 100003U;
      x[i] = static_cast<float>(h) / 9973.0F - 5.0F;
    }
    participating.push_back(x);
  }
  const std::vector<float> expect = ascending_rank_sum(participating);
  auto split = inputs;
  auto joined = inputs;
  run_ranks(ranks, [&](int rank) {
    std::span<float> rest(split[static_cast<std::size_t>(rank)]);
    for (const std::size_t n : sizes) {
      comm.allreduce_sum(rank, rest.first(n));
      rest = rest.subspan(n);
    }
    comm.allreduce_sum(rank, joined[static_cast<std::size_t>(rank)]);
  });
  for (const int r : ranks) {
    const auto u = static_cast<std::size_t>(r);
    EXPECT_EQ(std::memcmp(split[u].data(), expect.data(), total * sizeof(float)), 0)
        << "rank " << r << ", one call per tensor";
    EXPECT_EQ(std::memcmp(joined[u].data(), expect.data(), total * sizeof(float)), 0)
        << "rank " << r << ", one concatenated call";
  }
}

TEST(ThreadComm, RejectsInvalidWorldSize) {
  EXPECT_THROW(ThreadComm(0), std::invalid_argument);
  EXPECT_THROW(ThreadComm(-3), std::invalid_argument);
}

TEST(RunRanks, RunsEveryRankOnce) {
  std::vector<std::atomic<int>> hits(4);
  run_ranks(4, [&](int r) { hits[static_cast<std::size_t>(r)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunRanks, PropagatesException) {
  EXPECT_THROW(run_ranks(3,
                         [](int r) {
                           if (r == 1) throw std::runtime_error("boom");
                         }),
               std::runtime_error);
}

TEST(ThreadComm, AllreduceSumsAcrossRanks) {
  const int p = 4;
  ThreadComm comm(p);
  std::vector<std::vector<float>> data(p, std::vector<float>(10));
  for (int r = 0; r < p; ++r)
    for (int i = 0; i < 10; ++i)
      data[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] =
          static_cast<float>(r + i);

  run_ranks(p, [&](int rank) { comm.allreduce_sum(rank, data[static_cast<std::size_t>(rank)]); });

  // Expected per element: sum_r (r + i) = 6 + 4*i.
  for (int r = 0; r < p; ++r)
    for (int i = 0; i < 10; ++i)
      EXPECT_FLOAT_EQ(data[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                      static_cast<float>(6 + 4 * i));
}

TEST(ThreadComm, AllreduceSingleRankIsIdentity) {
  ThreadComm comm(1);
  std::vector<float> data = {1.0F, 2.0F};
  comm.allreduce_sum(0, data);
  EXPECT_FLOAT_EQ(data[0], 1.0F);
  EXPECT_FLOAT_EQ(data[1], 2.0F);
}

TEST(ThreadComm, AllreduceVectorShorterThanWorld) {
  // n < p leaves some ranks an empty slice to reduce.
  const int p = 8;
  ThreadComm comm(p);
  std::vector<std::vector<float>> data(p, std::vector<float>(3, 1.0F));
  run_ranks(p, [&](int rank) { comm.allreduce_sum(rank, data[static_cast<std::size_t>(rank)]); });
  for (const auto& v : data)
    for (float x : v) EXPECT_FLOAT_EQ(x, 8.0F);
}

TEST(ThreadComm, AllreduceUnevenChunks) {
  // n not divisible by p.
  const int p = 3;
  ThreadComm comm(p);
  std::vector<std::vector<float>> data(p, std::vector<float>(7));
  for (int r = 0; r < p; ++r)
    std::iota(data[static_cast<std::size_t>(r)].begin(), data[static_cast<std::size_t>(r)].end(),
              static_cast<float>(r));
  run_ranks(p, [&](int rank) { comm.allreduce_sum(rank, data[static_cast<std::size_t>(rank)]); });
  for (int i = 0; i < 7; ++i)
    EXPECT_FLOAT_EQ(data[0][static_cast<std::size_t>(i)], static_cast<float>(3 * i + 3));
}

TEST(ThreadComm, AllreduceCountsOperations) {
  const int p = 2;
  ThreadComm comm(p);
  std::vector<std::vector<float>> data(p, std::vector<float>(4, 1.0F));
  EXPECT_EQ(comm.allreduce_count(), 0U);
  run_ranks(p, [&](int rank) {
    comm.allreduce_sum(rank, data[static_cast<std::size_t>(rank)]);
    comm.allreduce_sum(rank, data[static_cast<std::size_t>(rank)]);
  });
  EXPECT_EQ(comm.allreduce_count(), 2U);
}

TEST(ThreadComm, AllreduceRankValidation) {
  ThreadComm comm(2);
  std::vector<float> data(4);
  EXPECT_THROW(comm.allreduce_sum(2, data), std::invalid_argument);
  EXPECT_THROW(comm.allreduce_sum(-1, data), std::invalid_argument);
}

TEST(ThreadComm, AllreduceIsIndependentOfGrouping) {
  for (const int p : {3, 4}) {
    ThreadComm comm(p);
    std::vector<int> ranks(static_cast<std::size_t>(p));
    std::iota(ranks.begin(), ranks.end(), 0);
    expect_independent_of_grouping(comm, ranks);
  }
  // After rank 0 is removed, original rank 1 is first in the sum.
  ThreadComm comm(4);
  run_ranks(4, [&](int rank) {
    if (rank == 0) {
      comm.fail(rank);
      return;
    }
    std::vector<float> data(3);
    try {
      comm.allreduce_sum(rank, data);
      ADD_FAILURE() << "rank " << rank << " should have observed the failure";
    } catch (const RankFailure&) {
      comm.shrink(rank);
    }
  });
  expect_independent_of_grouping(comm, {1, 2, 3});
}

TEST(ThreadComm, AllreduceLengthMismatchThrowsOnEveryRank) {
  const int p = 4;
  const auto timeout = std::chrono::milliseconds(5000);
  ThreadComm comm(p, timeout);
  std::vector<std::vector<float>> data(p, std::vector<float>(8, 1.0F));
  data[2].resize(9, 1.0F);
  const auto start = std::chrono::steady_clock::now();
  run_ranks(p, [&](int rank) {
    EXPECT_THROW(comm.allreduce_sum(rank, data[static_cast<std::size_t>(rank)]),
                 std::invalid_argument);
  });
  EXPECT_LT(std::chrono::steady_clock::now() - start, timeout / 10);
  // Nobody was blamed, and the group still reduces.
  EXPECT_TRUE(comm.failed_ranks().empty());
  data[2].resize(8);
  run_ranks(p, [&](int rank) { comm.allreduce_sum(rank, data[static_cast<std::size_t>(rank)]); });
  for (const auto& v : data)
    for (float x : v) EXPECT_EQ(x, 4.0F);
}

TEST(ThreadComm, AllgatherVariableSizes) {
  const int p = 3;
  ThreadComm comm(p);
  std::vector<std::vector<std::vector<std::byte>>> results(p);
  run_ranks(p, [&](int rank) {
    // Rank r sends r+1 bytes of value r.
    std::vector<std::byte> payload(static_cast<std::size_t>(rank + 1),
                                   static_cast<std::byte>(rank));
    results[static_cast<std::size_t>(rank)] = comm.allgather(rank, payload);
  });
  for (int r = 0; r < p; ++r) {
    const auto& gathered = results[static_cast<std::size_t>(r)];
    ASSERT_EQ(gathered.size(), 3U);
    for (int s = 0; s < p; ++s) {
      EXPECT_EQ(gathered[static_cast<std::size_t>(s)].size(), static_cast<std::size_t>(s + 1));
      for (auto b : gathered[static_cast<std::size_t>(s)])
        EXPECT_EQ(b, static_cast<std::byte>(s));
    }
  }
}

TEST(ThreadComm, AllgatherEmptyPayload) {
  const int p = 2;
  ThreadComm comm(p);
  run_ranks(p, [&](int rank) {
    const auto gathered = comm.allgather(rank, {});
    ASSERT_EQ(gathered.size(), 2U);
    EXPECT_TRUE(gathered[0].empty());
    EXPECT_TRUE(gathered[1].empty());
  });
}

TEST(ThreadComm, BroadcastCopiesRootData) {
  const int p = 4;
  ThreadComm comm(p);
  const std::vector<std::byte> root_data = {std::byte{1}, std::byte{2}, std::byte{3},
                                            std::byte{4}, std::byte{5}};
  // Receivers start with a different length; broadcast_bytes resizes them.
  std::vector<std::vector<std::byte>> data(p, std::vector<std::byte>(2));
  data[2] = root_data;
  run_ranks(p, [&](int rank) {
    comm.broadcast_bytes(rank, 2, data[static_cast<std::size_t>(rank)]);
  });
  for (const auto& v : data) EXPECT_EQ(v, root_data);
}

TEST(ThreadComm, RepeatedCollectivesStayConsistent) {
  // Many back-to-back collectives must not deadlock or corrupt slots.
  const int p = 4;
  ThreadComm comm(p);
  std::vector<std::vector<float>> data(p, std::vector<float>(33, 1.0F));
  run_ranks(p, [&](int rank) {
    for (int iter = 0; iter < 50; ++iter)
      comm.allreduce_sum(rank, data[static_cast<std::size_t>(rank)]);
  });
  // Each all-reduce multiplies every entry by p: expect p^50.
  const double expect = std::pow(4.0, 50.0);
  for (const auto& v : data)
    for (float x : v) EXPECT_NEAR(static_cast<double>(x) / expect, 1.0, 1e-3);
}

TEST(ThreadComm, ReportsMembershipAndTimeout) {
  ThreadComm comm(3, std::chrono::milliseconds(1234));
  EXPECT_EQ(comm.timeout().count(), 1234);
  comm.set_timeout(std::chrono::milliseconds(500));
  EXPECT_EQ(comm.timeout().count(), 500);
  EXPECT_EQ(comm.world_size(), 3);
  EXPECT_EQ(comm.initial_world_size(), 3);
  EXPECT_TRUE(comm.is_active(2));
  EXPECT_EQ(comm.active_ranks(), (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(comm.failed_ranks().empty());
}

TEST(ThreadComm, BarrierSeparatesPhases) {
  const int p = 4;
  ThreadComm comm(p);
  std::atomic<int> phase_one{0};
  std::atomic<bool> order_violated{false};
  run_ranks(p, [&](int rank) {
    phase_one++;
    comm.barrier(rank);
    // After the barrier every rank must observe all p phase-one increments.
    if (phase_one.load() != p) order_violated.store(true);
    comm.barrier(rank);
  });
  EXPECT_FALSE(order_violated.load());
}

TEST(RunRanks, SubsetOverloadRunsOnlyGivenRanks) {
  std::vector<std::atomic<int>> hits(4);
  const std::vector<int> subset = {0, 2, 3};
  run_ranks(std::span<const int>(subset), [&](int r) { hits[static_cast<std::size_t>(r)]++; });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 0);
  EXPECT_EQ(hits[2].load(), 1);
  EXPECT_EQ(hits[3].load(), 1);
}

// Property sweep: for many world sizes and vector lengths the all-reduce
// equals, bit for bit, the float sum taken in ascending rank order.
class RingSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RingSweep, MatchesDirectSum) {
  const auto [p, n] = GetParam();
  ThreadComm comm(p);
  std::vector<std::vector<float>> data(static_cast<std::size_t>(p),
                                       std::vector<float>(static_cast<std::size_t>(n)));
  for (int r = 0; r < p; ++r)
    for (int i = 0; i < n; ++i)
      data[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] =
          static_cast<float>((r * 31 + i * 7) % 13 - 6) / 7.0F;
  const std::vector<float> expect = ascending_rank_sum(data);
  run_ranks(p, [&](int rank) { comm.allreduce_sum(rank, data[static_cast<std::size_t>(rank)]); });
  for (int r = 0; r < p; ++r)
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(data[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                expect[static_cast<std::size_t>(i)]);
}

INSTANTIATE_TEST_SUITE_P(WorldAndLength, RingSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                                            ::testing::Values(1, 4, 17, 64, 1000)));

}  // namespace
}  // namespace gradcomp::comm
