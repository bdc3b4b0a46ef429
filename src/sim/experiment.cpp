#include "sim/experiment.hpp"

#include <stdexcept>

#include "core/parallel.hpp"

namespace gradcomp::sim {

Measurement measure(const core::Cluster& cluster, const SimOptions& options,
                    const compress::CompressorConfig& config, const core::Workload& workload,
                    const MeasurementProtocol& protocol) {
  if (protocol.iterations <= protocol.warmup)
    throw std::invalid_argument("measure: iterations must exceed warmup");

  ClusterSim sim(cluster, options);
  stats::Summary total(static_cast<std::size_t>(protocol.warmup));
  stats::Summary encode(static_cast<std::size_t>(protocol.warmup));
  stats::Summary decode(static_cast<std::size_t>(protocol.warmup));
  stats::Summary comm(static_cast<std::size_t>(protocol.warmup));
  for (int i = 0; i < protocol.iterations; ++i) {
    const SimResult r = sim.run_compressed(config, workload);
    total.add(r.iteration_time.value());
    encode.add(r.encode.value());
    decode.add(r.decode.value());
    comm.add(r.comm.value());
  }
  return Measurement{Seconds{total.mean()}, Seconds{total.stddev()}, Seconds{encode.mean()},
                     Seconds{decode.mean()}, Seconds{comm.mean()}};
}

std::vector<ScalingPoint> weak_scaling(core::Cluster cluster, const SimOptions& options,
                                       const compress::CompressorConfig& config,
                                       const core::Workload& workload,
                                       const std::vector<int>& worker_counts,
                                       const MeasurementProtocol& protocol) {
  const auto npoints = static_cast<std::int64_t>(worker_counts.size());
  std::vector<ScalingPoint> points(worker_counts.size());
  const compress::CompressorConfig baseline{};  // syncSGD
  for (std::size_t i = 0; i < points.size(); ++i) points[i].workers = worker_counts[i];

  // Each (worker count, config) measurement owns a freshly seeded ClusterSim,
  // so the points are independent: dispatching them onto the pool yields
  // bit-exact agreement with the serial order at any --jobs value. The task
  // space is 2 tasks per point (sync / compressed) for load balance; each
  // task writes only its own field of the point.
  core::global_pool().parallel_for(0, 2 * npoints, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t t = lo; t < hi; ++t) {
      const auto i = static_cast<std::size_t>(t / 2);
      core::Cluster c = cluster;
      c.world_size = worker_counts[i];
      if (t % 2 == 0)
        points[i].sync = measure(c, options, baseline, workload, protocol);
      else
        points[i].compressed = measure(c, options, config, workload, protocol);
    }
  });
  return points;
}

}  // namespace gradcomp::sim
