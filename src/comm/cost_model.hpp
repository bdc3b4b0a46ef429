// Alpha-beta cost models for the collectives used in data-parallel training.
//
// The paper models the cost of moving a vector as alpha + beta*n
// (Section 2.2, citing [51]) and analyzes ring all-reduce:
//
//     T_ring(b, p, BW) = alpha*(p-1) + 2*b*(p-1) / (p*BW)        (Eq. 1)
//
// Non-all-reducible compressors must fall back to all-gather, whose payload
// grows linearly with p — the paper's third finding. Double-tree all-reduce
// (NCCL's large-scale algorithm) is also modeled for the ablation benches.
//
// All byte counts, durations, and link rates cross this boundary as
// core::units strong types: a raw double does not compile, so bytes-vs-bits
// and bps-vs-Gbps mistakes are caught by the compiler instead of showing up
// as quietly wrong benchmark JSON.
#pragma once

#include "core/units.hpp"

namespace gradcomp::comm {

using core::units::BitsPerSecond;
using core::units::Bytes;
using core::units::Seconds;

// Physical network description. `incast_penalty` models the degradation the
// paper attributes to the all-to-one traffic pattern of all-gather
// (Section 4.3: SignSGD predictions off by 14.2% "due to issues like
// incast"): effective all-gather bandwidth is divided by
// (1 + incast_penalty * log2(p)). Zero (the default) reproduces the paper's
// analytical model; the cluster simulator turns it on to play the role of
// the real testbed.
struct Network {
  BitsPerSecond bandwidth = BitsPerSecond::from_gbps(10.0);  // paper testbed default
  Seconds alpha{15e-6};  // per-hop latency
  double incast_penalty = 0.0;

  [[nodiscard]] static Network from_gbps(double gbps, Seconds alpha = Seconds{15e-6},
                                         double incast_penalty = 0.0) {
    return Network{BitsPerSecond::from_gbps(gbps), alpha, incast_penalty};
  }
  [[nodiscard]] double gbps() const { return bandwidth.gbps(); }
};

// Ring all-reduce (Eq. 1): latency 2*alpha*(p-1) in the paper's background
// text, alpha*(p-1) in Eq. 1; we follow Eq. 1, which is what the validated
// model uses. Each worker sends/receives 2n(p-1)/p bytes.
[[nodiscard]] Seconds ring_allreduce_seconds(Bytes bytes, int p, const Network& net);

// Double-tree all-reduce: same bandwidth term, latency alpha*log2(p).
[[nodiscard]] Seconds tree_allreduce_seconds(Bytes bytes, int p, const Network& net);

// All-gather of `bytes` per rank: every rank ends with p*bytes. The paper
// models the compressed-gradient gather as T = g_hat*(p-1)/BW (Section 4.2).
// Latency alpha*(p-1); incast penalty applies here.
[[nodiscard]] Seconds allgather_seconds(Bytes bytes_per_rank, int p, const Network& net);

// Binomial-tree broadcast of `bytes` from one root.
[[nodiscard]] Seconds broadcast_seconds(Bytes bytes, int p, const Network& net);

// Point-to-point send of `bytes`.
[[nodiscard]] Seconds send_seconds(Bytes bytes, const Network& net);

// Parameter-server aggregation of `bytes` per worker across `servers`
// stateless shards: each server ingests p * bytes/servers and egresses the
// same, so T = 2*p*bytes/(servers*BW) + 2*alpha. This is the topology the
// community moved AWAY from (Section 2.2: every DawnBench submission uses
// all-reduce); modeled here for the ablation bench that shows why.
[[nodiscard]] Seconds parameter_server_seconds(Bytes bytes, int p, int servers,
                                               const Network& net);

}  // namespace gradcomp::comm
