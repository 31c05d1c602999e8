#include "sc/therm_stream.h"

#include <stdexcept>

namespace ascend::sc {

void throw_bad_encode_args(int length) {
  if (length <= 0) throw std::invalid_argument("ThermValue::encode: length must be positive");
  throw std::invalid_argument("ThermValue::encode: alpha must be positive");
}

ThermStream ThermStream::from_value(const ThermValue& v) {
  if (v.ones < 0 || v.ones > v.length) throw std::invalid_argument("ThermStream: bad ones count");
  ThermStream s;
  s.alpha = v.alpha;
  s.bits = BitVec(static_cast<std::size_t>(v.length));
  for (int i = 0; i < v.ones; ++i) s.bits.set(static_cast<std::size_t>(i), true);
  return s;
}

ThermStream ThermStream::encode(double x, int length, double alpha) {
  return from_value(ThermValue::encode(x, length, alpha));
}

}  // namespace ascend::sc
