/// Tests for the deterministic fault-injection registry (util/fault.hpp):
/// spec parsing, trigger semantics, determinism, counters, latency
/// injection, and the DOMINOSYN_NO_FAULTS compile-out contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/fault.hpp"

namespace dominosyn {
namespace {

/// Every test starts and ends disarmed, so a DOMINOSYN_FAULT_SPEC exported
/// by a chaos CI job cannot leak into these assertions (and vice versa).
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (fault::kFaultsCompiledOut) GTEST_SKIP() << "built with DOMINOSYN_NO_FAULTS";
    fault::clear();
  }
  void TearDown() override { fault::clear(); }
};

std::vector<bool> evaluate(const char* site, int times) {
  std::vector<bool> fired;
  fired.reserve(static_cast<std::size_t>(times));
  for (int i = 0; i < times; ++i) fired.push_back(fault::point(site));
  return fired;
}

TEST_F(FaultTest, InertByDefault) {
  EXPECT_FALSE(fault::active());
  EXPECT_FALSE(fault::point("some.site"));
  EXPECT_EQ(fault::total_injected(), 0u);
}

TEST_F(FaultTest, AlwaysFires) {
  fault::configure("client.send.fail=always");
  EXPECT_TRUE(fault::active());
  EXPECT_EQ(evaluate("client.send.fail", 3), (std::vector<bool>{true, true, true}));
  EXPECT_FALSE(fault::point("client.recv.fail"));  // unarmed sites stay inert
}

TEST_F(FaultTest, NthFiresExactlyOnce) {
  fault::configure("client.send.fail=nth:3");
  EXPECT_EQ(evaluate("client.send.fail", 5),
            (std::vector<bool>{false, false, true, false, false}));
  EXPECT_EQ(fault::injected("client.send.fail"), 1u);
}

TEST_F(FaultTest, EveryFiresPeriodically) {
  fault::configure("client.send.fail=every:2");
  EXPECT_EQ(evaluate("client.send.fail", 5),
            (std::vector<bool>{false, true, false, true, false}));
}

TEST_F(FaultTest, FirstFiresPrefix) {
  fault::configure("client.send.fail=first:2");
  EXPECT_EQ(evaluate("client.send.fail", 4), (std::vector<bool>{true, true, false, false}));
}

TEST_F(FaultTest, ProbIsDeterministicPerSeed) {
  fault::configure("client.send.fail=prob:0.5,seed:42");
  const std::vector<bool> run1 = evaluate("client.send.fail", 64);
  fault::configure("client.send.fail=prob:0.5,seed:42");
  const std::vector<bool> run2 = evaluate("client.send.fail", 64);
  EXPECT_EQ(run1, run2);
  int fired = 0;
  for (const bool b : run1) fired += b ? 1 : 0;
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
}

TEST_F(FaultTest, OffMasksEarlierClause) {
  fault::configure("client.send.fail=always;client.send.fail=off");
  EXPECT_FALSE(fault::point("client.send.fail"));
}

TEST_F(FaultTest, DelayAloneArmsAsAlways) {
  fault::configure("client.send.fail=delay_ms:20");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(fault::point("client.send.fail"));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 15);
}

TEST_F(FaultTest, CountersTrackEvaluationsAndInjections) {
  fault::configure("client.send.fail=every:2;transport.recv.fail=always");
  (void)evaluate("client.send.fail", 4);
  (void)fault::point("transport.recv.fail");
  const auto counters = fault::counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "client.send.fail");
  EXPECT_EQ(counters[0].second.evaluated, 4u);
  EXPECT_EQ(counters[0].second.injected, 2u);
  EXPECT_EQ(counters[1].first, "transport.recv.fail");
  EXPECT_EQ(counters[1].second.injected, 1u);
  EXPECT_EQ(fault::total_injected(), 3u);
}

TEST_F(FaultTest, ClearDisarms) {
  fault::configure("client.send.fail=always");
  ASSERT_TRUE(fault::point("client.send.fail"));
  fault::clear();
  EXPECT_FALSE(fault::active());
  EXPECT_FALSE(fault::point("client.send.fail"));
  EXPECT_EQ(fault::total_injected(), 0u);
  EXPECT_EQ(fault::spec(), "");
}

TEST_F(FaultTest, ConfigureReplacesWholesale) {
  fault::configure("client.send.fail=always");
  fault::configure("transport.recv.fail=always");
  EXPECT_FALSE(fault::point("client.send.fail"));
  EXPECT_TRUE(fault::point("transport.recv.fail"));
  EXPECT_EQ(fault::spec(), "transport.recv.fail=always");
}

TEST_F(FaultTest, MalformedSpecsThrow) {
  EXPECT_THROW(fault::configure("nosite"), std::invalid_argument);
  EXPECT_THROW(fault::configure("client.send.fail=bogus"), std::invalid_argument);
  EXPECT_THROW(fault::configure("client.send.fail=nth:"), std::invalid_argument);
  EXPECT_THROW(fault::configure("client.send.fail=nth:zero"), std::invalid_argument);
  EXPECT_THROW(fault::configure("client.send.fail=every:0"), std::invalid_argument);
  EXPECT_THROW(fault::configure("client.send.fail=prob:2.0"), std::invalid_argument);
  EXPECT_THROW(fault::configure("client.send.fail=seed:1"), std::invalid_argument)
      << "seed without a trigger is an empty policy";
  EXPECT_THROW(fault::configure("=always"), std::invalid_argument);
  // Numbers are whole tokens that fit: a count past 2^64 must not wrap to
  // 1, a delay past 2^32 ms must not truncate, and nan is no probability.
  for (const char* spec : {"client.send.fail=nth:18446744073709551617",
                           "client.send.fail=seed:18446744073709551616,always",
                           "client.send.fail=delay_ms:4294967297",
                           "client.send.fail=prob:nan",
                           "client.send.fail=prob:0.5x",
                           "client.send.fail=every:+2"})
    EXPECT_THROW(fault::configure(spec), std::invalid_argument) << spec;
  EXPECT_NO_THROW(fault::configure(
      "client.send.fail=every:18446744073709551615,delay_ms:4294967295"));
  // A failed configure must not leave a half-armed registry.
  fault::configure("client.send.fail=always");
  EXPECT_THROW(fault::configure("broken"), std::invalid_argument);
  EXPECT_TRUE(fault::point("client.send.fail"));
}

TEST_F(FaultTest, SitesEnumeratesCatalogueSorted) {
  const std::vector<std::string> sites = fault::sites();
  EXPECT_FALSE(sites.empty());
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  // The PR 10 durability sites are catalogued.
  EXPECT_NE(std::find(sites.begin(), sites.end(), "journal.write_fail"),
            sites.end());
  EXPECT_NE(std::find(sites.begin(), sites.end(), "journal.torn_tail"),
            sites.end());
  // Every catalogued site must be accepted by the spec parser.
  for (const std::string& site : sites) fault::configure(site + "=nth:1");
  fault::clear();
}

TEST_F(FaultTest, UnknownSitesAreRejected) {
  EXPECT_THROW(fault::configure("transport.recv.shortread=always"),
               std::invalid_argument)
      << "a typo'd site must fail loudly, not arm nothing";
  EXPECT_THROW(fault::configure("no.such.site=nth:1"), std::invalid_argument);
  // A rejected spec leaves the previous one armed.
  fault::configure("client.send.fail=always");
  EXPECT_THROW(fault::configure("typo.site=always"), std::invalid_argument);
  EXPECT_TRUE(fault::point("client.send.fail"));
}

TEST_F(FaultTest, SpecToleratesWhitespace) {
  fault::configure(" client.send.fail = every:2 ; transport.recv.fail = always ");
  EXPECT_TRUE(fault::point("transport.recv.fail"));
  EXPECT_FALSE(fault::point("client.send.fail"));
  EXPECT_TRUE(fault::point("client.send.fail"));
}

TEST(FaultCompiledOut, PointIsConstexprFalse) {
  if (!fault::kFaultsCompiledOut) GTEST_SKIP() << "faults compiled in";
  static_assert(!fault::kFaultsCompiledOut || !fault::point("x"),
                "compiled-out point() must be constexpr false");
  EXPECT_FALSE(fault::point("anything"));
  EXPECT_FALSE(fault::active());
}

}  // namespace
}  // namespace dominosyn
