#include "util/rng.hpp"

namespace dominosyn {

BiasedBits::BiasedBits(double p) noexcept {
  if (p <= 0.0) return;
  if (p >= 1.0) {
    fill_ = ~0ULL;
    return;
  }
  double rem = p;
  while (num_digits_ < 16) {
    rem *= 2.0;
    if (rem >= 1.0) {
      digits_ |= 1u << num_digits_;
      rem -= 1.0;
    }
    ++num_digits_;
    if (rem == 0.0) break;
  }
}

}  // namespace dominosyn
