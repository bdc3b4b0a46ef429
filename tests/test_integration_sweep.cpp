// Cross-module integration sweeps: every method x every model profile
// through the performance model and the simulator, checking the global
// invariants that hold regardless of method or workload.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>

#include "core/perf_model.hpp"
#include "sim/ddp_sim.hpp"

namespace gradcomp {
namespace {

// gtest prints a parameter that has no printer as its raw bytes, and ctest
// names each test after that print. The one-byte method is followed by
// explicit zero bytes instead of padding, so the names never carry
// uninitialised memory.
struct Case {
  compress::Method method;
  std::array<std::uint8_t, 7> zero_fill{};
  std::string model_name;
};

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (auto method : compress::all_methods())
    for (const auto& model : models::all_models()) cases.push_back({method, {}, model.name});
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return compress::method_name(info.param.method) + "_" + info.param.model_name + "_" +
         std::to_string(info.index);
}

class MethodModelSweep : public ::testing::TestWithParam<Case> {
 protected:
  [[nodiscard]] core::Workload workload() const {
    core::Workload w;
    w.model = models::model_by_name(GetParam().model_name);
    w.batch_size = w.model.name.rfind("bert", 0) == 0 ? 10 : 64;
    return w;
  }
  [[nodiscard]] static core::Cluster cluster(int p) {
    core::Cluster c;
    c.world_size = p;
    c.network = comm::Network::from_gbps(10.0);
    return c;
  }
  [[nodiscard]] compress::CompressorConfig config() const {
    compress::CompressorConfig c;
    c.method = GetParam().method;
    c.fraction = 0.01;
    c.rank = 4;
    return c;
  }
};

TEST_P(MethodModelSweep, ModelBreakdownInvariants) {
  core::PerfModel model;
  const auto b = model.compressed(config(), workload(), cluster(32));
  EXPECT_TRUE(std::isfinite(b.total.value()));
  EXPECT_GT(b.total.value(), 0.0);
  EXPECT_GE(b.total.value() + 1e-12, b.compute.value());
  EXPECT_GE(b.encode.value(), 0.0);
  EXPECT_GE(b.decode.value(), 0.0);
  EXPECT_GE(b.comm.value(), 0.0);
  // No method can beat the pure-compute floor.
  EXPECT_GE(b.total.value() + 1e-12, model.ideal_seconds(workload(), cluster(32)).value());
}

TEST_P(MethodModelSweep, WireBytesNeverExceedRaw) {
  core::PerfModel model;
  const double raw = static_cast<double>(workload().model.total_bytes());
  const double wire = model.wire_bytes(config(), workload().model).value();
  EXPECT_GT(wire, 0.0);
  EXPECT_LE(wire, raw * 1.001);
}

TEST_P(MethodModelSweep, SimulatorAgreesWithinBounds) {
  // Simulator (clean network, no jitter) and analytical model must agree
  // within the documented serialization gap for every method/model pair.
  core::PerfModel model;
  sim::SimOptions opts;
  opts.jitter_frac = 0.0;
  opts.incast_penalty = 0.0;  // remove the deliberate asymmetry
  opts.validate_timeline = true;
  const auto c = cluster(32);
  sim::ClusterSim sim(c, opts);
  const double predicted = model.compressed(config(), workload(), c).total.value();
  const double simulated = sim.run_compressed(config(), workload()).iteration_time.value();
  EXPECT_NEAR(predicted, simulated, simulated * 0.12)
      << compress::method_name(GetParam().method) << " on " << GetParam().model_name;
}

TEST_P(MethodModelSweep, MoreWorkersNeverFreeForGatherMethods) {
  core::PerfModel model;
  const auto traits = compress::make_compressor(config())->traits();
  const double t8 = model.compressed(config(), workload(), cluster(8)).total.value();
  const double t96 = model.compressed(config(), workload(), cluster(96)).total.value();
  EXPECT_GE(t96 + 1e-9, t8 * 0.999);
  if (!traits.allreduce_compatible) {
    // All-gather methods degrade noticeably from 8 to 96 workers.
    EXPECT_GT(t96, t8 * 1.05);
  } else {
    // All-reduce methods stay within ~35% across the same range.
    EXPECT_LT(t96, t8 * 1.35);
  }
}

TEST_P(MethodModelSweep, BandwidthMonotonicity) {
  core::PerfModel model;
  core::Cluster slow = cluster(32);
  slow.network = comm::Network::from_gbps(1.0);
  core::Cluster fast = cluster(32);
  fast.network = comm::Network::from_gbps(100.0);
  EXPECT_GE(model.compressed(config(), workload(), slow).total.value() + 1e-12,
            model.compressed(config(), workload(), fast).total.value());
}

INSTANTIATE_TEST_SUITE_P(AllPairs, MethodModelSweep, ::testing::ValuesIn(all_cases()),
                         case_name);

}  // namespace
}  // namespace gradcomp
