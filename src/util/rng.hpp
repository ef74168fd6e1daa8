/// \file rng.hpp
/// Deterministic pseudo-random number generation for reproducible experiments.
///
/// Every stochastic component in dominosyn (benchmark generation, input-vector
/// generation, annealing schedules) draws from a seeded Xoshiro256** stream so
/// that any experiment in the paper reproduction can be re-run bit-identically.

#pragma once

#include <cstdint>
#include <limits>

namespace dominosyn {

/// SplitMix64 step: used to expand a single 64-bit seed into the 256-bit
/// Xoshiro state.  Also useful as a cheap integer mixer for hashing.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Xoshiro256** generator (Blackman & Vigna).  Satisfies the essential parts
/// of UniformRandomBitGenerator so it can drive `<random>` distributions, but
/// we mostly use the purpose-built helpers below to keep results independent
/// of standard-library implementation details.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit constexpr Rng(std::uint64_t seed = 0x1badb002ULL) noexcept { reseed(seed); }

  constexpr void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept { return next(); }

  /// Next raw 64 random bits.
  constexpr std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift reduction.
  /// bound must be nonzero.
  [[nodiscard]] constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    // 128-bit multiply keeps the distribution unbiased enough for our use
    // (bias < 2^-64 relative) without a rejection loop.
    const auto wide = static_cast<unsigned __int128>(next()) * bound;
    return static_cast<std::uint64_t>(wide >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  [[nodiscard]] constexpr std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] constexpr double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw: true with probability p (clamped to [0,1]).
  [[nodiscard]] constexpr bool bernoulli(double p) noexcept { return uniform() < p; }

  /// 64 independent Bernoulli(p) bits packed into one word: each bit
  /// position is an independent sample, enabling 64-way parallel logic
  /// simulation.  A stream of words for one p should hold a BiasedBits.
  [[nodiscard]] std::uint64_t biased_bits(double p) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

/// The leading 16 binary digits of a probability p (resolution 2^-16, ample
/// for signal-probability targets like 0.5 or 0.9), decoded once.  draw()
/// returns what Rng::biased_bits(p) returns, from the same Rng calls; the
/// statistical vector generator holds one per primary input so that it does
/// not decode p again for every word.
class BiasedBits {
 public:
  /// p <= 0 draws 0 and p >= 1 draws ~0, consuming no Rng words.
  explicit BiasedBits(double p) noexcept;

  /// Classic biased-bit construction, digits consumed least-significant
  /// first.  If r currently has per-bit probability q, then with a fresh
  /// uniform word R:
  ///   digit 1:  r |= R  gives q' = 1/2 + q/2
  ///   digit 0:  r &= R  gives q' = q/2
  /// so after processing b_n..b_1 the probability is exactly 0.b1..bn.
  [[nodiscard]] std::uint64_t draw(Rng& rng) const noexcept {
    std::uint64_t r = fill_;
    for (std::uint32_t i = num_digits_; i-- > 0;) {
      const std::uint64_t rnd = rng.next();
      r = ((digits_ >> i) & 1) != 0 ? (r | rnd) : (r & rnd);
    }
    return r;
  }

 private:
  std::uint64_t fill_ = 0;        ///< ~0 when p >= 1, else 0
  std::uint32_t digits_ = 0;      ///< bit i holds binary digit b_{i+1} of p
  std::uint32_t num_digits_ = 0;  ///< 0 when p <= 0 or p >= 1
};

inline std::uint64_t Rng::biased_bits(double p) noexcept {
  return BiasedBits(p).draw(*this);
}

}  // namespace dominosyn
