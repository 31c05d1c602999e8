#pragma once
// frozen_slot.h — serving state built once, then read lock-free.
//
// What the serving path derives from parameters that stay fixed while it
// serves (a Linear's multiplied weight matrix and its GEMM panels, the GELU
// code cuts, BatchNorm's scale/shift fold) lives in a FrozenSlot. The first
// reader builds the value under the slot's mutex — double-checked, so
// concurrent first reads race safely — and publishes it with a release store
// of the key it was built under; every later reader asking for that key
// finds it with one acquire load. A reader asking for another key rebuilds.
//
// thaw() drops the value. Thawing, and rebuilding under another key, must
// not run concurrently with readers of the old value: the same
// single-writer contract as the whole const infer path.

#include <atomic>
#include <mutex>

namespace ascend::nn {

template <class T>
class FrozenSlot {
 public:
  /// key() of a slot that holds nothing; get() needs a key other than this.
  static constexpr unsigned kThawed = 0;

  FrozenSlot() = default;
  /// Copies and moves (no move members: a move copies) start thawed, and
  /// assignment thaws the destination: two owners sharing one mutable value
  /// would race, and each rebuilds identical bits from its own state.
  FrozenSlot(const FrozenSlot&) noexcept {}
  FrozenSlot& operator=(const FrozenSlot& other) noexcept {
    if (this != &other) thaw();
    return *this;
  }

  /// The value built under `key`; `build()` runs under the mutex when the
  /// slot is thawed or was built under another key, and replaces the value.
  template <class Build>
  const T& get(unsigned key, Build&& build) const {
    if (key_.load(std::memory_order_acquire) == key) return value_;
    std::lock_guard<std::mutex> lock(mu_);
    if (key_.load(std::memory_order_relaxed) != key) {
      value_ = build();
      key_.store(key, std::memory_order_release);
    }
    return value_;
  }

  /// The key the live value was built under; kThawed when there is none.
  unsigned key() const { return key_.load(std::memory_order_acquire); }

  void thaw() {
    if (key() == kThawed) return;
    std::lock_guard<std::mutex> lock(mu_);
    key_.store(kThawed, std::memory_order_release);
    value_ = T();
  }

 private:
  mutable std::mutex mu_;
  mutable std::atomic<unsigned> key_{kThawed};
  mutable T value_{};
};

}  // namespace ascend::nn
