/// Tests for the deterministic RNG, hashing and bit-counting utilities.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/bits.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace dominosyn {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng rng(7);
  const auto first = rng.next();
  rng.next();
  rng.reseed(7);
  EXPECT_EQ(rng.next(), first);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(5);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(6);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three values appear
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(8);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

class BiasedBitsTest : public ::testing::TestWithParam<double> {};

TEST_P(BiasedBitsTest, EmpiricalProbabilityMatchesTarget) {
  const double p = GetParam();
  Rng rng(42);
  std::uint64_t ones = 0;
  constexpr int kWords = 4000;
  for (int i = 0; i < kWords; ++i)
    ones += static_cast<std::uint64_t>(__builtin_popcountll(rng.biased_bits(p)));
  const double observed = static_cast<double>(ones) / (64.0 * kWords);
  // ~256k samples: 4-sigma band is well under 0.01 for all p.
  EXPECT_NEAR(observed, p, 0.01) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BiasedBitsTest,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0,
                                           0.3, 0.7, 0.05, 0.95));

TEST(BiasedBits, ExtremesAreExact) {
  Rng rng(1);
  EXPECT_EQ(rng.biased_bits(0.0), 0ULL);
  EXPECT_EQ(rng.biased_bits(1.0), ~0ULL);
  EXPECT_EQ(rng.biased_bits(-0.5), 0ULL);
  EXPECT_EQ(rng.biased_bits(1.5), ~0ULL);
}

TEST(BiasedBits, BitsWithinWordAreIndependent) {
  // Correlation between adjacent bit positions should be near zero.
  Rng rng(11);
  int both = 0, first = 0, second = 0;
  constexpr int kWords = 8000;
  for (int i = 0; i < kWords; ++i) {
    const auto w = rng.biased_bits(0.5);
    for (int bit = 0; bit + 1 < 64; bit += 2) {
      const bool a = (w >> bit) & 1, b = (w >> (bit + 1)) & 1;
      first += a;
      second += b;
      both += a && b;
    }
  }
  const double n = 32.0 * kWords;
  const double pa = first / n, pb = second / n, pab = both / n;
  EXPECT_NEAR(pab, pa * pb, 0.01);
}

TEST(Hash, Mix64IsInjectiveOnSmallRange) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Hash, CombineOrderMatters) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_NE(hash3(1, 2, 3), hash3(3, 2, 1));
}

TEST(Bits, Popcount64MatchesBitByBitCount) {
  const auto reference = [](std::uint64_t x) {
    std::uint32_t count = 0;
    for (int bit = 0; bit < 64; ++bit) count += (x >> bit) & 1;
    return count;
  };
  std::vector<std::uint64_t> words = {0, ~0ULL};
  for (int bit = 0; bit < 64; ++bit) words.push_back(1ULL << bit);
  Rng rng(2024);
  for (int i = 0; i < 10000; ++i) words.push_back(rng.next());
  for (const std::uint64_t word : words)
    ASSERT_EQ(popcount64(word), reference(word)) << std::hex << word;
  static_assert(popcount64(~0ULL) == 64);
}

TEST(SplitMix, KnownGolden) {
  // Pin the generator so accidental algorithm changes are caught.
  std::uint64_t state = 0;
  const auto v1 = splitmix64(state);
  const auto v2 = splitmix64(state);
  EXPECT_NE(v1, v2);
  EXPECT_EQ(state, 2 * 0x9e3779b97f4a7c15ULL);
}

}  // namespace
}  // namespace dominosyn
