#include "tensor/topk.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/parallel.hpp"
#include "tensor/simd.hpp"

namespace gradcomp::tensor {

namespace {

// Below this size the sampled-threshold machinery costs more than the scan
// it saves.
constexpr std::int64_t kFastPathMinN = 1 << 13;
// Fixed filter chunk: boundaries independent of thread count, so the
// candidate order (ascending index) is deterministic at any --jobs value.
// A chunk's survivors are stored as 16-bit offsets from its start.
constexpr std::int64_t kFilterGrain = 1 << 15;
static_assert(kFilterGrain <= 1 << 16, "chunk offsets must fit in 16 bits");
// Strided-sample size used to estimate the selection threshold.
constexpr std::int64_t kSampleSize = 2048;
static_assert(kSampleSize <= kFastPathMinN, "the fast path samples without replacement");
// Odd multiplier that moves each sample's offset around inside its stride,
// so a row-major matrix whose width divides the stride is not sampled in
// the same few columns only.
constexpr std::int64_t kSampleSpread = 40503;

// The rank key: |x|, with a NaN ranked as +inf, so keys are totally ordered.
float rank_key(float x) {
  return std::isnan(x) ? std::numeric_limits<float>::infinity() : std::abs(x);
}

struct KeyGreater {
  std::span<const float> data;
  bool operator()(std::int64_t a, std::int64_t b) const {
    const float ka = rank_key(data[static_cast<std::size_t>(a)]);
    const float kb = rank_key(data[static_cast<std::size_t>(b)]);
    if (ka != kb) return ka > kb;
    return a < b;  // deterministic tie-break
  }
};

// Grows scratch to at least n elements and returns its storage. It never
// shrinks, so layers of mixed sizes sharing one workspace neither
// reallocate it nor zero it again.
template <typename T>
T* at_least(std::vector<T>& scratch, std::int64_t n) {
  if (scratch.size() < static_cast<std::size_t>(n)) scratch.resize(static_cast<std::size_t>(n));
  return scratch.data();
}

// The body of top_k_abs_into and top_k_abs_accumulate_into. `data` is the
// vector selected from. With `add` non-null, `acc` is data's writable
// storage and every acc[i] = add[i] + acc[i] is stored before selection
// reads it.
void select_into(std::span<const float> data, const float* add, float* acc, std::int64_t k,
                 TopKResult& out, Workspace* ws) {
  if (k < 0) throw std::invalid_argument("top_k_abs: k must be non-negative");
  const auto n = static_cast<std::int64_t>(data.size());
  k = std::min(k, n);

  // Small input, or k so large the filter cannot prune much: exact path.
  if (n < kFastPathMinN || k == 0 || k * 4 >= n) {
    if (add != nullptr)
      for (std::int64_t i = 0; i < n; ++i) acc[i] = add[i] + acc[i];
    top_k_abs_exact_into(data, k, out, ws);
    return;
  }

  Workspace local;
  Workspace& w = ws ? *ws : local;

  // Estimate a conservative threshold t from a strided sample of rank keys.
  // Picking the sample order statistic at ~3x the selection fraction (plus
  // slack) makes t a lower bound of the true k-th key with high
  // probability; correctness never depends on it (see the m < k check).
  const std::int64_t s = kSampleSize;
  const std::int64_t stride = n / s;
  w.sample.resize(static_cast<std::size_t>(s));
  for (std::int64_t i = 0; i < s; ++i) {
    const auto j = static_cast<std::size_t>(i * stride + (i * kSampleSpread) % stride);
    w.sample[static_cast<std::size_t>(i)] = rank_key(add != nullptr ? add[j] + data[j] : data[j]);
  }
  const double frac = static_cast<double>(k) / static_cast<double>(n);
  const std::int64_t pos = std::min<std::int64_t>(
      s - 1, static_cast<std::int64_t>(3.0 * frac * static_cast<double>(s)) + 16);
  std::nth_element(w.sample.begin(), w.sample.begin() + pos, w.sample.end(),
                   std::greater<float>());
  const float t = w.sample[static_cast<std::size_t>(pos)];

  // One pass: each fixed chunk lists its survivors (key >= t; a NaN always
  // survives) in its own slice of `hits`. Read in chunk order, they are the
  // candidates in ascending index order at any pool size.
  const std::int64_t nchunks = (n + kFilterGrain - 1) / kFilterGrain;
  if (w.hits_size < n) {
    w.hits = std::make_unique_for_overwrite<std::uint16_t[]>(static_cast<std::size_t>(n));
    w.hits_size = n;
  }
  struct Pass {
    const float* add;
    float* acc;
    const float* data;
    float t;
    std::uint16_t* hits;
    std::int64_t* count;
  } pass{add, acc, data.data(), t, w.hits.get(), at_least(w.hit_count, nchunks)};
  // A single capture keeps the std::function's target inline: no allocation.
  core::global_pool().parallel_for(0, n, kFilterGrain, [&pass](std::int64_t lo, std::int64_t hi) {
    pass.count[lo / kFilterGrain] =
        pass.add != nullptr
            ? simd::accumulate_filter_abs_ge(pass.add + lo, pass.acc + lo, hi - lo, pass.t,
                                             pass.hits + lo)
            : simd::filter_abs_ge(pass.data + lo, hi - lo, pass.t, pass.hits + lo);
  });
  const std::int64_t m = std::accumulate(pass.count, pass.count + nchunks, std::int64_t{0});

  // The candidates cover the top-k iff m >= k: every element whose key is
  // at least the true k-th key then has a key >= t. m < k means the
  // sampled threshold was too aggressive: fall back.
  if (m < k) {
    top_k_abs_exact_into(data, k, out, ws);
    return;
  }

  // v = the k-th largest candidate key, which is the k-th largest overall.
  float* keys = at_least(w.keys, m);
  std::int64_t at = 0;
  for (std::int64_t c = 0; c < nchunks; ++c) {
    const std::int64_t lo = c * kFilterGrain;
    for (std::int64_t j = 0; j < pass.count[c]; ++j)
      keys[at++] = rank_key(data[static_cast<std::size_t>(lo + pass.hits[lo + j])]);
  }
  std::nth_element(keys, keys + (k - 1), keys + m, std::greater<float>());
  const float v = keys[k - 1];
  // The keys before position k - 1 are >= v. Those equal to v, and v
  // itself, share the remaining `ties` slots, lowest index first.
  std::int64_t ties = k - std::count_if(keys, keys + (k - 1), [v](float key) { return key > v; });

  // One ordered pass over the candidates keeps every key > v and the first
  // `ties` keys == v: the exact path's set, tie rule and order.
  out.indices.resize(static_cast<std::size_t>(k));
  out.values.resize(static_cast<std::size_t>(k));
  std::int64_t kept = 0;
  for (std::int64_t c = 0; c < nchunks && kept < k; ++c) {
    const std::int64_t lo = c * kFilterGrain;
    for (std::int64_t j = 0; j < pass.count[c] && kept < k; ++j) {
      const std::int64_t i = lo + pass.hits[lo + j];
      const float x = data[static_cast<std::size_t>(i)];
      const float key = rank_key(x);
      const bool tie = key == v && ties > 0;
      ties -= tie ? 1 : 0;
      out.indices[static_cast<std::size_t>(kept)] = i;
      out.values[static_cast<std::size_t>(kept)] = x;
      kept += (key > v || tie) ? 1 : 0;
    }
  }
}

}  // namespace

void top_k_abs_exact_into(std::span<const float> data, std::int64_t k, TopKResult& out,
                          Workspace* ws) {
  if (k < 0) throw std::invalid_argument("top_k_abs: k must be non-negative");
  const auto n = static_cast<std::int64_t>(data.size());
  k = std::min(k, n);

  out.indices.clear();
  out.values.clear();
  if (k == 0) return;

  Workspace local;
  Workspace& w = ws ? *ws : local;
  w.idx.resize(static_cast<std::size_t>(n));
  std::iota(w.idx.begin(), w.idx.end(), 0);
  std::nth_element(w.idx.begin(), w.idx.begin() + (k - 1), w.idx.end(), KeyGreater{data});
  w.idx.resize(static_cast<std::size_t>(k));
  std::sort(w.idx.begin(), w.idx.end());

  out.indices.assign(w.idx.begin(), w.idx.end());
  out.values.reserve(static_cast<std::size_t>(k));
  for (auto i : w.idx) out.values.push_back(data[static_cast<std::size_t>(i)]);
}

void top_k_abs_into(std::span<const float> data, std::int64_t k, TopKResult& out,
                    Workspace* ws) {
  select_into(data, nullptr, nullptr, k, out, ws);
}

void top_k_abs_accumulate_into(std::span<const float> add, std::span<float> data,
                               std::int64_t k, TopKResult& out, Workspace* ws) {
  if (add.size() != data.size())
    throw std::invalid_argument("top_k_abs_accumulate_into: size mismatch");
  select_into(data, add.data(), data.data(), k, out, ws);
}

TopKResult top_k_abs(std::span<const float> data, std::int64_t k, Workspace* ws) {
  TopKResult out;
  top_k_abs_into(data, k, out, ws);
  return out;
}

TopKResult top_k_abs_exact(std::span<const float> data, std::int64_t k, Workspace* ws) {
  TopKResult out;
  top_k_abs_exact_into(data, k, out, ws);
  return out;
}

void scatter(std::span<const std::int64_t> indices, std::span<const float> values,
             std::span<float> dense) {
  if (indices.size() != values.size())
    throw std::invalid_argument("scatter: indices/values size mismatch");
  const auto n = static_cast<std::int64_t>(dense.size());
  std::fill(dense.begin(), dense.end(), 0.0F);
  for (std::size_t j = 0; j < indices.size(); ++j) {
    const std::int64_t i = indices[j];
    if (i < 0 || i >= n) throw std::out_of_range("scatter: index out of range");
    dense[static_cast<std::size_t>(i)] = values[j];
  }
}

void scatter(const TopKResult& sparse, std::span<float> dense) {
  scatter(sparse.indices, sparse.values, dense);
}

std::vector<float> scatter(const TopKResult& sparse, std::int64_t n) {
  std::vector<float> dense(static_cast<std::size_t>(n), 0.0F);
  scatter(sparse, std::span<float>(dense));
  return dense;
}

}  // namespace gradcomp::tensor
