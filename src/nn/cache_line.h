#pragma once
// cache_line.h — vectors that own whole cache lines.
//
// A buffer a hot loop writes on every call (a thread's GEMM or attention
// scratch) must not share a cache line with anyone else's heap data: a
// small malloc chunk sits next to whatever the allocator placed beside it,
// often objects another thread writes or frees, so the two threads would
// bounce the line between cores, and how badly depends on the heap layout
// of the process. CacheLineVector starts its storage on a line and rounds
// its size up to whole lines, so the buffer's lines are its own and its
// alignment is the same in every process.

#include <cstddef>
#include <new>
#include <vector>

namespace ascend::nn {

inline constexpr std::size_t kCacheLine = 64;

template <class T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = (n * sizeof(T) + kCacheLine - 1) / kCacheLine * kCacheLine;
    return static_cast<T*>(::operator new(bytes, std::align_val_t{kCacheLine}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLine});
  }

  template <class U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }
};

template <class T>
using CacheLineVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace ascend::nn
