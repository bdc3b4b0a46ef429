#include "comm/cost_model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace gradcomp::comm {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

TEST(Network, FromGbpsConvertsToBytesPerSecond) {
  const Network net = Network::from_gbps(10.0);
  EXPECT_DOUBLE_EQ(net.bandwidth.bytes_per_second(), 10e9 / 8.0);
  EXPECT_NEAR(net.gbps(), 10.0, 1e-9);
}

TEST(RingAllreduce, SingleWorkerIsFree) {
  EXPECT_DOUBLE_EQ(
      ring_allreduce_seconds(gradcomp::core::units::Bytes{100 * kMB}, 1, Network::from_gbps(10))
          .value(),
      0.0);
}

TEST(RingAllreduce, MatchesEquationOne) {
  // Eq. 1: alpha*(p-1) + 2*b*(p-1)/(p*BW).
  const Network net = Network::from_gbps(10, gradcomp::core::units::Seconds{15e-6});
  const double bytes = 100 * kMB;
  const int p = 8;
  const double expected = 15e-6 * 7 + 2.0 * bytes * 7 / (8 * net.bandwidth.bytes_per_second());
  EXPECT_NEAR(ring_allreduce_seconds(gradcomp::core::units::Bytes{bytes}, p, net).value(), expected, 1e-12);
}

TEST(RingAllreduce, BandwidthTermApproachesTwiceSize) {
  // As p grows, per-rank traffic approaches 2n bytes.
  const Network net = Network::from_gbps(10, gradcomp::core::units::Seconds{0.0});
  const double bytes = 50 * kMB;
  const double t1000 = ring_allreduce_seconds(gradcomp::core::units::Bytes{bytes}, 1000, net).value();
  EXPECT_NEAR(t1000, 2.0 * bytes / net.bandwidth.bytes_per_second(), 2.0 * bytes / net.bandwidth.bytes_per_second() * 0.01);
}

TEST(RingAllreduce, MonotonicInBytes) {
  const Network net = Network::from_gbps(10);
  EXPECT_LT(ring_allreduce_seconds(gradcomp::core::units::Bytes{kMB}, 8, net).value(), ring_allreduce_seconds(gradcomp::core::units::Bytes{2 * kMB}, 8, net).value());
}

TEST(RingAllreduce, LatencyGrowsLinearlyInWorkers) {
  const Network net = Network::from_gbps(100000.0, gradcomp::core::units::Seconds{1e-3});  // latency dominated
  const double t4 = ring_allreduce_seconds(gradcomp::core::units::Bytes{1.0}, 4, net).value();
  const double t16 = ring_allreduce_seconds(gradcomp::core::units::Bytes{1.0}, 16, net).value();
  EXPECT_NEAR(t16 / t4, 15.0 / 3.0, 1e-6);
}

TEST(TreeAllreduce, LatencyGrowsLogarithmically) {
  const Network net = Network::from_gbps(100000.0, gradcomp::core::units::Seconds{1e-3});
  const double t4 = tree_allreduce_seconds(gradcomp::core::units::Bytes{1.0}, 4, net).value();
  const double t16 = tree_allreduce_seconds(gradcomp::core::units::Bytes{1.0}, 16, net).value();
  EXPECT_NEAR(t16 / t4, 2.0, 1e-6);  // log2(16)/log2(4)
}

TEST(TreeAllreduce, BeatsRingAtScaleOnLatency) {
  const Network net = Network::from_gbps(10, gradcomp::core::units::Seconds{15e-6});
  // Same bandwidth term, smaller latency term at 96 workers.
  EXPECT_LT(tree_allreduce_seconds(gradcomp::core::units::Bytes{kMB}, 96, net).value(), ring_allreduce_seconds(gradcomp::core::units::Bytes{kMB}, 96, net).value());
}

TEST(TreeAndRing, SameBandwidthTerm) {
  const Network net = Network::from_gbps(10, gradcomp::core::units::Seconds{0.0});  // no latency
  EXPECT_NEAR(tree_allreduce_seconds(gradcomp::core::units::Bytes{10 * kMB}, 32, net).value(),
              ring_allreduce_seconds(gradcomp::core::units::Bytes{10 * kMB}, 32, net).value(), 1e-12);
}

TEST(Allgather, TrafficGrowsLinearlyInWorkers) {
  // The paper's scalability story: all-gather traffic is bytes*(p-1).
  const Network net = Network::from_gbps(10, gradcomp::core::units::Seconds{0.0});
  const double t8 = allgather_seconds(gradcomp::core::units::Bytes{kMB}, 8, net).value();
  const double t64 = allgather_seconds(gradcomp::core::units::Bytes{kMB}, 64, net).value();
  EXPECT_NEAR(t64 / t8, 63.0 / 7.0, 1e-9);
}

TEST(Allgather, SingleWorkerIsFree) {
  EXPECT_DOUBLE_EQ(
      allgather_seconds(gradcomp::core::units::Bytes{kMB}, 1, Network::from_gbps(10)).value(),
      0.0);
}

TEST(Allgather, IncastPenaltyDegrades) {
  Network clean = Network::from_gbps(10, gradcomp::core::units::Seconds{15e-6}, 0.0);
  Network congested = Network::from_gbps(10, gradcomp::core::units::Seconds{15e-6}, 0.1);
  EXPECT_GT(allgather_seconds(gradcomp::core::units::Bytes{kMB}, 32, congested).value(), allgather_seconds(gradcomp::core::units::Bytes{kMB}, 32, clean).value());
  // Penalty factor is (1 + 0.1*log2(32)) = 1.5 on the bandwidth term.
  Network no_alpha_clean = Network::from_gbps(10, gradcomp::core::units::Seconds{0.0}, 0.0);
  Network no_alpha_cong = Network::from_gbps(10, gradcomp::core::units::Seconds{0.0}, 0.1);
  EXPECT_NEAR(allgather_seconds(gradcomp::core::units::Bytes{kMB}, 32, no_alpha_cong).value() /
                  allgather_seconds(gradcomp::core::units::Bytes{kMB}, 32, no_alpha_clean).value(),
              1.5, 1e-9);
}

TEST(Broadcast, LogarithmicHops) {
  const Network net = Network::from_gbps(10, gradcomp::core::units::Seconds{1e-4});
  const double t2 = broadcast_seconds(gradcomp::core::units::Bytes{kMB}, 2, net).value();
  const double t8 = broadcast_seconds(gradcomp::core::units::Bytes{kMB}, 8, net).value();
  EXPECT_NEAR(t8 / t2, 3.0, 1e-9);
}

TEST(ParameterServer, SingleServerIngestsEverything) {
  // One server, p workers: server link moves 2*p*bytes.
  const Network net = Network::from_gbps(8, gradcomp::core::units::Seconds{0.0});  // 1 GB/s, no latency
  EXPECT_NEAR(parameter_server_seconds(gradcomp::core::units::Bytes{1e9}, 4, 1, net).value(), 8.0, 1e-9);
}

TEST(ParameterServer, ShardingDividesServerLoad) {
  const Network net = Network::from_gbps(10, gradcomp::core::units::Seconds{0.0});
  EXPECT_NEAR(parameter_server_seconds(gradcomp::core::units::Bytes{kMB}, 16, 4, net).value() * 4.0,
              parameter_server_seconds(gradcomp::core::units::Bytes{kMB}, 16, 1, net).value(), 1e-12);
}

TEST(ParameterServer, LosesToRingAtScale) {
  // Why the community moved to all-reduce: PS per-iteration traffic grows
  // with p even with several servers, while ring stays ~2n.
  const Network net = Network::from_gbps(10, gradcomp::core::units::Seconds{15e-6});
  EXPECT_GT(parameter_server_seconds(gradcomp::core::units::Bytes{100 * kMB}, 64, 4, net).value(),
            ring_allreduce_seconds(gradcomp::core::units::Bytes{100 * kMB}, 64, net).value());
  // And the PS disadvantage grows with p (ring is ~flat, PS ~linear).
  const double ps_ratio = parameter_server_seconds(gradcomp::core::units::Bytes{100 * kMB}, 64, 4, net).value() /
                          parameter_server_seconds(gradcomp::core::units::Bytes{100 * kMB}, 8, 4, net).value();
  const double ring_ratio = ring_allreduce_seconds(gradcomp::core::units::Bytes{100 * kMB}, 64, net).value() /
                            ring_allreduce_seconds(gradcomp::core::units::Bytes{100 * kMB}, 8, net).value();
  EXPECT_GT(ps_ratio, 6.0);
  EXPECT_LT(ring_ratio, 1.3);
}

TEST(ParameterServer, ValidatesServers) {
  const Network net = Network::from_gbps(10);
  EXPECT_THROW(parameter_server_seconds(gradcomp::core::units::Bytes{kMB}, 4, 0, net).value(), std::invalid_argument);
  EXPECT_DOUBLE_EQ(parameter_server_seconds(gradcomp::core::units::Bytes{kMB}, 1, 2, net).value(), 0.0);
}

TEST(Send, AlphaPlusBytesOverBandwidth) {
  const Network net = Network::from_gbps(8, gradcomp::core::units::Seconds{1e-5});  // 1 GB/s
  EXPECT_NEAR(send_seconds(gradcomp::core::units::Bytes{1e9}, net).value(), 1.0 + 1e-5, 1e-9);
}

TEST(CostModel, RejectsInvalidArguments) {
  const Network net = Network::from_gbps(10);
  EXPECT_THROW(ring_allreduce_seconds(gradcomp::core::units::Bytes{-1.0}, 4, net).value(), std::invalid_argument);
  EXPECT_THROW(ring_allreduce_seconds(gradcomp::core::units::Bytes{1.0}, 0, net).value(), std::invalid_argument);
  Network bad = net;
  bad.bandwidth = gradcomp::core::units::BitsPerSecond::from_bytes_per_second(0.0);
  EXPECT_THROW(ring_allreduce_seconds(gradcomp::core::units::Bytes{1.0}, 4, bad).value(), std::invalid_argument);
  EXPECT_THROW(allgather_seconds(gradcomp::core::units::Bytes{-1.0}, 4, net).value(), std::invalid_argument);
  EXPECT_THROW(broadcast_seconds(gradcomp::core::units::Bytes{1.0}, -1, net).value(), std::invalid_argument);
}

// Property: all-reduce-compatible aggregation stays ~flat in p while
// all-gather grows ~linearly — the crossing the paper's Figures 5-6 show.
class ScalingContrast : public ::testing::TestWithParam<int> {};

TEST_P(ScalingContrast, AllgatherOvertakesRing) {
  const int p = GetParam();
  const Network net = Network::from_gbps(10, gradcomp::core::units::Seconds{15e-6});
  const double compressed = kMB;         // 1 MB compressed payload
  const double full = 32.0 * kMB;        // 32x larger uncompressed gradient
  const double gather = allgather_seconds(gradcomp::core::units::Bytes{compressed}, p, net).value();
  const double ring = ring_allreduce_seconds(gradcomp::core::units::Bytes{full}, p, net).value();
  if (p >= 64) {
    // At scale, gathering even a 32x-compressed gradient costs more than
    // ring-reducing the full one.
    EXPECT_GT(gather, ring * 0.9);
  } else if (p <= 4) {
    EXPECT_LT(gather, ring);
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, ScalingContrast, ::testing::Values(2, 4, 8, 64, 96, 128));

}  // namespace
}  // namespace gradcomp::comm
