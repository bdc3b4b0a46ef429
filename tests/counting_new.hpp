// Test helper: replaces the global operator new so that every heap
// allocation in the binary is counted, and a test can assert that a call
// makes none. It defines the replaceable allocation functions, so include
// it from exactly one source file per test binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace gradcomp::testing {
inline std::atomic<std::int64_t> g_allocations{0};
}  // namespace gradcomp::testing

// Kept out of line: inlined into callers, GCC mistakes the malloc/free
// pair for a new/free mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  gradcomp::testing::g_allocations.fetch_add(1);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
