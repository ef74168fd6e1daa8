/// \file bits.hpp
/// Bit counting for the 64-lane simulator words and bitsets.

#pragma once

#include <cstdint>

namespace dominosyn {

/// Number of set bits in `x`.  Branch-free SWAR, so it stays inline on the
/// x86-64 baseline: without `-mpopcnt`, GCC compiles its popcount builtin
/// (and `std::popcount`) to a call into libgcc's table-driven
/// `__popcountdi2`.
[[nodiscard]] constexpr std::uint32_t popcount64(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<std::uint32_t>((x * 0x0101010101010101ULL) >> 56);
}

}  // namespace dominosyn
