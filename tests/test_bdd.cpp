/// Tests for the ROBDD package: canonicity, operations vs truth-table
/// enumeration, cofactors, GC, the work budget.

#include <gtest/gtest.h>

#include <cmath>

#include "bdd/bdd.hpp"
#include "util/rng.hpp"

namespace dominosyn {
namespace {

/// Evaluates a BDD on a full assignment by walking the graph.
bool eval_bdd(const BddManager& mgr, const Bdd& f, std::uint32_t assignment) {
  BddIndex n = f.index();
  while (!BddManager::is_terminal(n)) {
    const bool bit = (assignment >> mgr.node_var(n)) & 1u;
    n = bit ? mgr.node_high(n) : mgr.node_low(n);
  }
  return n == kBddTrue;
}

TEST(Bdd, TerminalsAndVars) {
  BddManager mgr(3);
  EXPECT_TRUE(mgr.bdd_true().is_true());
  EXPECT_TRUE(mgr.bdd_false().is_false());
  const Bdd x0 = mgr.var(0);
  EXPECT_FALSE(x0.is_constant());
  EXPECT_TRUE(eval_bdd(mgr, x0, 0b001));
  EXPECT_FALSE(eval_bdd(mgr, x0, 0b110));
  const Bdd nx1 = mgr.nvar(1);
  EXPECT_TRUE(eval_bdd(mgr, nx1, 0b001));
  EXPECT_FALSE(eval_bdd(mgr, nx1, 0b010));
  EXPECT_THROW((void)mgr.var(3), std::runtime_error);
}

TEST(Bdd, CanonicityMakesEqualityStructural) {
  BddManager mgr(4);
  const Bdd a = mgr.var(0), b = mgr.var(1);
  const Bdd f1 = (a & b) | ((!a) & b);
  const Bdd f2 = b;
  EXPECT_EQ(f1, f2);  // same index by hash consing
  const Bdd g1 = a ^ b;
  const Bdd g2 = (a & !b) | ((!a) & b);
  EXPECT_EQ(g1, g2);
}

TEST(Bdd, DeMorgan) {
  BddManager mgr(2);
  const Bdd a = mgr.var(0), b = mgr.var(1);
  EXPECT_EQ(!(a & b), (!a) | (!b));
  EXPECT_EQ(!(a | b), (!a) & (!b));
}

TEST(Bdd, IteBasics) {
  BddManager mgr(3);
  const Bdd f = mgr.var(0), g = mgr.var(1), h = mgr.var(2);
  const Bdd r = mgr.ite(f, g, h);
  for (std::uint32_t v = 0; v < 8; ++v) {
    const bool expect = (v & 1) ? ((v >> 1) & 1) : ((v >> 2) & 1);
    EXPECT_EQ(eval_bdd(mgr, r, v), expect) << v;
  }
  EXPECT_EQ(mgr.ite(mgr.bdd_true(), g, h), g);
  EXPECT_EQ(mgr.ite(mgr.bdd_false(), g, h), h);
  EXPECT_EQ(mgr.ite(f, mgr.bdd_true(), mgr.bdd_false()), f);
}

/// Exhaustive correctness over *all* 2-variable function pairs.
TEST(Bdd, AllTwoVarFunctionPairs) {
  BddManager mgr(2);
  // Build all 16 functions of 2 vars from their truth tables.
  std::vector<Bdd> funcs;
  for (unsigned tt = 0; tt < 16; ++tt) {
    Bdd f = mgr.bdd_false();
    for (unsigned row = 0; row < 4; ++row) {
      if (!((tt >> row) & 1u)) continue;
      const Bdd minterm = ((row & 1u) ? mgr.var(0) : mgr.nvar(0)) &
                          ((row & 2u) ? mgr.var(1) : mgr.nvar(1));
      f = f | minterm;
    }
    funcs.push_back(f);
  }
  for (unsigned i = 0; i < 16; ++i)
    for (unsigned j = 0; j < 16; ++j) {
      const Bdd fand = funcs[i] & funcs[j];
      const Bdd forr = funcs[i] | funcs[j];
      const Bdd fxor = funcs[i] ^ funcs[j];
      for (unsigned row = 0; row < 4; ++row) {
        const bool vi = (i >> row) & 1u, vj = (j >> row) & 1u;
        EXPECT_EQ(eval_bdd(mgr, fand, row), vi && vj);
        EXPECT_EQ(eval_bdd(mgr, forr, row), vi || vj);
        EXPECT_EQ(eval_bdd(mgr, fxor, row), vi != vj);
      }
    }
}

class BddRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BddRandomOps, RandomExpressionsMatchTruthTables) {
  constexpr std::uint32_t kVars = 6;
  BddManager mgr(kVars);
  Rng rng(GetParam());

  // Random expression forest over 6 vars, checked against 64-row tables.
  std::vector<Bdd> pool;
  std::vector<std::uint64_t> truth;
  for (std::uint32_t v = 0; v < kVars; ++v) {
    pool.push_back(mgr.var(v));
    std::uint64_t tt = 0;
    for (unsigned row = 0; row < 64; ++row)
      if ((row >> v) & 1u) tt |= 1ULL << row;
    truth.push_back(tt);
  }
  for (int step = 0; step < 40; ++step) {
    const std::size_t i = rng.below(pool.size());
    const std::size_t j = rng.below(pool.size());
    switch (rng.below(4)) {
      case 0:
        pool.push_back(pool[i] & pool[j]);
        truth.push_back(truth[i] & truth[j]);
        break;
      case 1:
        pool.push_back(pool[i] | pool[j]);
        truth.push_back(truth[i] | truth[j]);
        break;
      case 2:
        pool.push_back(pool[i] ^ pool[j]);
        truth.push_back(truth[i] ^ truth[j]);
        break;
      default:
        pool.push_back(!pool[i]);
        truth.push_back(~truth[i]);
        break;
    }
  }
  for (std::size_t k = 0; k < pool.size(); ++k)
    for (unsigned row = 0; row < 64; ++row)
      ASSERT_EQ(eval_bdd(mgr, pool[k], row), ((truth[k] >> row) & 1ULL) != 0)
          << "expr " << k << " row " << row;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomOps, ::testing::Range<std::uint64_t>(1, 9));

TEST(Bdd, RestrictCofactors) {
  BddManager mgr(3);
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  const Bdd f = (a & b) | ((!a) & c);
  EXPECT_EQ(mgr.restrict_var(f, 0, true), b);
  EXPECT_EQ(mgr.restrict_var(f, 0, false), c);
  // Shannon: f = ite(x, f|x=1, f|x=0).
  EXPECT_EQ(mgr.ite(a, mgr.restrict_var(f, 0, true), mgr.restrict_var(f, 0, false)), f);
}

TEST(Bdd, SupportFindsDependentVars) {
  BddManager mgr(4);
  const Bdd f = (mgr.var(0) & mgr.var(2)) | mgr.var(0);
  const auto support = mgr.support(f);
  EXPECT_EQ(support, (std::vector<std::uint32_t>{0}));  // absorbs to var(0)
  const Bdd g = mgr.var(1) ^ mgr.var(3);
  EXPECT_EQ(mgr.support(g), (std::vector<std::uint32_t>{1, 3}));
}

TEST(Bdd, SatCount) {
  BddManager mgr(4);
  const Bdd f = mgr.var(0) & mgr.var(1);  // 4 of 16 assignments
  EXPECT_NEAR(mgr.sat_count(f), 4.0, 1e-9);
  EXPECT_NEAR(mgr.sat_count(mgr.bdd_true()), 16.0, 1e-9);
  EXPECT_NEAR(mgr.sat_count(mgr.bdd_false()), 0.0, 1e-9);
}

TEST(Bdd, DagSizeCountsDistinctNodes) {
  BddManager mgr(3);
  const Bdd f = mgr.var(0) & mgr.var(1) & mgr.var(2);
  EXPECT_EQ(mgr.dag_size(f), 3u);  // chain
  const Bdd fs[] = {f, mgr.var(2)};
  // var(2) node (2,0,1) is shared with the chain's bottom node.
  EXPECT_EQ(mgr.dag_size_shared(fs), 3u);
}

TEST(Bdd, GcReclaimsDroppedFunctions) {
  BddManager mgr(16);
  std::size_t live_before;
  {
    std::vector<Bdd> garbage;
    Bdd acc = mgr.bdd_false();
    for (std::uint32_t v = 0; v < 16; ++v) {
      acc = acc ^ mgr.var(v);
      garbage.push_back(acc);
    }
    live_before = mgr.live_nodes();
    EXPECT_GT(live_before, 16u);
  }  // all handles die here
  const std::size_t reclaimed = mgr.gc();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(mgr.live_nodes(), 2u);  // terminals only
  // The manager still works after GC.
  const Bdd f = mgr.var(3) & mgr.var(5);
  EXPECT_EQ(mgr.dag_size(f), 2u);
}

TEST(Bdd, GcKeepsLiveHandlesValid) {
  BddManager mgr(8);
  const Bdd keep = (mgr.var(0) | mgr.var(1)) & mgr.var(2);
  {
    Bdd tmp = keep ^ mgr.var(3);
    (void)tmp;
  }
  mgr.gc();
  // keep must still evaluate correctly.
  EXPECT_TRUE(eval_bdd(mgr, keep, 0b0101));
  EXPECT_FALSE(eval_bdd(mgr, keep, 0b0011));
  // Nodes can be rebuilt and re-dedup against survivors.
  const Bdd again = (mgr.var(0) | mgr.var(1)) & mgr.var(2);
  EXPECT_EQ(again, keep);
}

/// A fixed operation sequence wide enough to need many ITE steps.
Bdd parity_mix(BddManager& mgr) {
  Bdd acc = mgr.bdd_false();
  for (std::uint32_t v = 0; v < 24; ++v) {
    acc = acc ^ mgr.var(v);
    acc = acc | (mgr.var(v) & mgr.var((v + 7) % 24) & mgr.var((v + 3) % 24));
  }
  return acc;
}

TEST(Bdd, WorkBudgetThrows) {
  BddManager mgr(24, /*budget=*/64);
  EXPECT_THROW((void)parity_mix(mgr), BddLimitExceeded);
  EXPECT_EQ(mgr.steps(), 65u);  // the step that exceeds the budget throws
}

TEST(Bdd, BudgetIsExactStepThreshold) {
  // A budget of exactly the steps a build needs lets it finish; one step
  // less trips on the last step.
  BddManager probe(24);
  (void)parity_mix(probe);
  const std::uint64_t needed = probe.steps();

  BddManager exact(24, needed);
  EXPECT_NO_THROW((void)parity_mix(exact));
  EXPECT_EQ(exact.steps(), needed);

  BddManager short_by_one(24, needed - 1);
  EXPECT_THROW((void)parity_mix(short_by_one), BddLimitExceeded);
}

TEST(Bdd, BudgetAlsoCapsAllocatedNodes) {
  // Terminals take two slots, so a budget of 4 leaves room for two
  // variables; the third allocation throws although no ITE step ran.
  BddManager mgr(8, /*budget=*/4);
  const Bdd x0 = mgr.var(0);
  const Bdd x1 = mgr.var(1);
  EXPECT_THROW((void)mgr.var(2), BddLimitExceeded);
  EXPECT_EQ(mgr.steps(), 0u);
  EXPECT_EQ(mgr.allocated_nodes(), 4u);
}

TEST(Bdd, MixedManagerOperandsRejected) {
  BddManager m1(2), m2(2);
  const Bdd a = m1.var(0);
  const Bdd b = m2.var(0);
  EXPECT_THROW((void)m1.bdd_and(a, b), std::runtime_error);
}

TEST(Bdd, HandleCopyAndMoveSemantics) {
  BddManager mgr(2);
  Bdd a = mgr.var(0);
  Bdd copy = a;
  EXPECT_EQ(copy, a);
  Bdd moved = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): asserting state
  EXPECT_TRUE(moved.valid());
  copy = copy;  // self-assignment safe
  EXPECT_TRUE(copy.valid());
  moved = std::move(moved);  // self-move safe
  EXPECT_TRUE(moved.valid());
}

}  // namespace
}  // namespace dominosyn
