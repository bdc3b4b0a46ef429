// Test helper: pins the global pool's size for one scope.
#pragma once

#include "core/parallel.hpp"

namespace gradcomp::testing {

// Sets the global pool size for one scope and restores the default after.
class ScopedPool {
 public:
  explicit ScopedPool(int threads) { core::set_global_pool_threads(threads); }
  ~ScopedPool() { core::set_global_pool_threads(0); }
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;
};

}  // namespace gradcomp::testing
