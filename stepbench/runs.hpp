// The two runs of one workload.
#pragma once

#include <cstdint>
#include <string>

#include "workload.hpp"

namespace stepbench {

// Untraced closed loop: one driver thread calls DataParallelTrainer::step()
// back to back for `seconds`, then checks the run. Reports every end-to-end
// metric.
[[nodiscard]] Report run_e2e(const Workload& w, std::uint64_t seed, double seconds);

// Traced run: an untraced reference trainer, then a stamped replica of its
// step over the same steps, then standalone comm, control-plane and
// checkpoint probes. Reports every per-layer metric and writes the replica's
// spans as Chrome trace JSON into `trace_dir`.
[[nodiscard]] Report run_traced(const Workload& w, std::uint64_t seed, double seconds,
                                const std::string& trace_dir);

}  // namespace stepbench
