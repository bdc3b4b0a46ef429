// Standalone probes of comm::ThreadComm at p = kWorldSize, timed by wall
// clock from outside the library.
#pragma once

#include <cstddef>

namespace stepbench {

struct CollectiveProbe {
  double alpha_us = 0.0;    // 1-float ring all-reduce / (p - 1)
  double busbw_gbps = 0.0;  // 4 MiB ring all-reduce bus bandwidth
};
[[nodiscard]] CollectiveProbe probe_collectives();

struct ControlPlaneProbe {
  double shrink_ms = 0.0;       // one rank fail()s, the survivors shrink()
  double grow_rejoin_ms = 0.0;  // the survivors grow() while the joiner rejoin()s
  double broadcast_ms = 0.0;    // broadcast_bytes of a `blob_bytes` payload
};
[[nodiscard]] ControlPlaneProbe probe_control_plane(std::size_t blob_bytes);

}  // namespace stepbench
