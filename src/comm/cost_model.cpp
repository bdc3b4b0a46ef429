#include "comm/cost_model.hpp"

#include <cmath>
#include <stdexcept>

namespace gradcomp::comm {

namespace {

void require_valid(Bytes bytes, int p, const Network& net) {
  if (bytes.value() < 0) throw std::invalid_argument("collective cost: negative byte count");
  if (p < 1) throw std::invalid_argument("collective cost: world size must be >= 1");
  if (net.bandwidth.value() <= 0)
    throw std::invalid_argument("collective cost: bandwidth <= 0");
}

double log2_clamped(int p) { return p > 1 ? std::log2(static_cast<double>(p)) : 0.0; }

// The formulas below unwrap to raw doubles so each expression keeps the
// exact shape (and bit-exact result) of the validated model; the strong
// types guard the call boundary.

}  // namespace

Seconds ring_allreduce_seconds(Bytes bytes, int p, const Network& net) {
  require_valid(bytes, p, net);
  if (p == 1) return Seconds{};
  const double latency = net.alpha.value() * static_cast<double>(p - 1);
  const double transfer = 2.0 * bytes.value() * static_cast<double>(p - 1) /
                          (static_cast<double>(p) * net.bandwidth.bytes_per_second());
  return Seconds{latency + transfer};
}

Seconds tree_allreduce_seconds(Bytes bytes, int p, const Network& net) {
  require_valid(bytes, p, net);
  if (p == 1) return Seconds{};
  const double latency = net.alpha.value() * log2_clamped(p);
  const double transfer = 2.0 * bytes.value() * static_cast<double>(p - 1) /
                          (static_cast<double>(p) * net.bandwidth.bytes_per_second());
  return Seconds{latency + transfer};
}

Seconds allgather_seconds(Bytes bytes_per_rank, int p, const Network& net) {
  require_valid(bytes_per_rank, p, net);
  if (p == 1) return Seconds{};
  const double latency = net.alpha.value() * static_cast<double>(p - 1);
  const double incast = 1.0 + net.incast_penalty * log2_clamped(p);
  const double transfer = bytes_per_rank.value() * static_cast<double>(p - 1) /
                          net.bandwidth.bytes_per_second() * incast;
  return Seconds{latency + transfer};
}

Seconds broadcast_seconds(Bytes bytes, int p, const Network& net) {
  require_valid(bytes, p, net);
  if (p == 1) return Seconds{};
  const double hops = std::ceil(log2_clamped(p));
  return Seconds{hops * (net.alpha.value() + bytes.value() / net.bandwidth.bytes_per_second())};
}

Seconds send_seconds(Bytes bytes, const Network& net) {
  require_valid(bytes, 1, net);
  return Seconds{net.alpha.value() + bytes.value() / net.bandwidth.bytes_per_second()};
}

Seconds parameter_server_seconds(Bytes bytes, int p, int servers, const Network& net) {
  require_valid(bytes, p, net);
  if (servers < 1) throw std::invalid_argument("parameter_server_seconds: servers must be >= 1");
  if (p == 1) return Seconds{};
  const double per_server_bytes =
      static_cast<double>(p) * bytes.value() / static_cast<double>(servers);
  const double incast = 1.0 + net.incast_penalty * log2_clamped(p);
  return Seconds{2.0 * net.alpha.value() +
                 2.0 * per_server_bytes / net.bandwidth.bytes_per_second() * incast};
}

}  // namespace gradcomp::comm
