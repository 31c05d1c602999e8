#pragma once
// float_key.h — an order-preserving map between non-NaN floats and integers
// (-0 and +0 share key 0), so bisection can walk the float line.

#include <cstdint>
#include <cstring>

namespace ascend::nn {

inline std::int64_t float_key(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof b);
  return (b >> 31) ? -static_cast<std::int64_t>(b & 0x7fffffffu) : static_cast<std::int64_t>(b);
}

inline float key_float(std::int64_t k) {
  const std::uint32_t b = k < 0 ? 0x80000000u | static_cast<std::uint32_t>(-k)
                                : static_cast<std::uint32_t>(k);
  float f;
  std::memcpy(&f, &b, sizeof f);
  return f;
}

}  // namespace ascend::nn
