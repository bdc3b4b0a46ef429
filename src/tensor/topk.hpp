// Top-k-by-magnitude selection, the kernel of TOP-K sparsification.
//
// Selection is the dominant encode cost the paper measures for TOP-K
// (Table 2: 240-295 ms on ResNet-50) — it requires a pass over the full
// gradient regardless of how small k is, which is why TopK-1% is barely
// cheaper than TopK-20%.
//
// The order: an element's rank key is |x|, with a NaN ranked as +inf, and
// equal keys are broken by lower index. A NaN or ±Inf therefore wins the
// selection, and so is sent and propagates rather than lingering unsent.
//
// Two implementations share one result contract — the k first elements of
// that order, returned in ascending index order:
//   * `top_k_abs_exact` — iota + nth_element over an index vector, the
//     reference semantics;
//   * `top_k_abs` — a one-pass sampled-threshold fast path. A threshold t
//     is read off a spread strided sample; one pass over the vector records,
//     per fixed chunk, the indices whose key is >= t. The k-th largest key v
//     among those candidates is found by nth_element over their keys as
//     plain floats, and one ordered pass keeps every key > v plus the
//     lowest-index candidates with key == v. Whenever the candidates number
//     at least k, every element of the true top-k is among them, so the
//     result is IDENTICAL to the exact path; with fewer than k it falls back
//     to the exact path. Small inputs go straight to the exact path.
//
// `top_k_abs_accumulate_into` is error feedback's entry point: the filter
// pass first accumulates data[i] = add[i] + data[i] in place, so the sum is
// streamed once.
//
// Passing a `Workspace` keeps the scratch vectors (and the result's own
// index/value storage via the *_into overloads) alive across calls, so the
// steady state of a training loop performs no per-call allocation.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace gradcomp::tensor {

struct TopKResult {
  std::vector<std::int64_t> indices;  // positions of the k largest |values|
  std::vector<float> values;          // original (signed) values at those positions
};

// Reusable scratch for top_k_abs / top_k_abs_exact. Plain buffers; safe to
// share across layers of one (single-threaded) compressor, not across
// threads. The fast path's buffers only ever grow.
struct Workspace {
  std::vector<std::int64_t> idx;  // exact path: full index vector
  std::vector<float> sample;      // fast path: sampled rank keys
  // Fast path: survivors' offsets in their chunk, one slice per chunk. Left
  // unzeroed, so only the pages the filter writes become resident.
  std::unique_ptr<std::uint16_t[]> hits;
  std::int64_t hits_size = 0;
  std::vector<std::int64_t> hit_count;  // fast path: survivors per chunk
  std::vector<float> keys;              // fast path: survivors' rank keys
};

// Returns the k elements of `data` largest in absolute value. k is clamped
// to data.size(). Indices are returned in ascending order (deterministic,
// and friendlier to the decoder's scatter). Ties broken by lower index.
[[nodiscard]] TopKResult top_k_abs(std::span<const float> data, std::int64_t k,
                                   Workspace* ws = nullptr);

// Reference implementation (full nth_element); bit-identical contract.
[[nodiscard]] TopKResult top_k_abs_exact(std::span<const float> data, std::int64_t k,
                                         Workspace* ws = nullptr);

// Allocation-free variants: reuse `out`'s storage across calls.
void top_k_abs_into(std::span<const float> data, std::int64_t k, TopKResult& out,
                    Workspace* ws = nullptr);
void top_k_abs_exact_into(std::span<const float> data, std::int64_t k, TopKResult& out,
                          Workspace* ws = nullptr);

// Sets data[i] = add[i] + data[i] for every i, then selects from the sums
// exactly as top_k_abs_into does. Throws std::invalid_argument if the sizes
// differ.
void top_k_abs_accumulate_into(std::span<const float> add, std::span<float> data,
                               std::int64_t k, TopKResult& out, Workspace* ws = nullptr);

// Scatters values back into a zeroed dense vector of length n.
[[nodiscard]] std::vector<float> scatter(const TopKResult& sparse, std::int64_t n);

// In-place scatter into caller memory: zero-fills `dense`, then writes
// values at their indices. RandomK's decode and the sparse compressors'
// roundtrip use it — no per-call allocation.
void scatter(const TopKResult& sparse, std::span<float> dense);
void scatter(std::span<const std::int64_t> indices, std::span<const float> values,
             std::span<float> dense);

}  // namespace gradcomp::tensor
