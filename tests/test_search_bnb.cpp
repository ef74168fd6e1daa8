/// Tests for the branch-and-bound exhaustive search (docs/search.md):
///  * bit-identical (cost, assignment, tie-break) results vs the unpruned
///    Gray-code reference walk on randomized circuits, for both min-power
///    and min-area, across every power-model variant and thread counts
///    {1, 2, 8},
///  * the partial EvalState contract the prefix costs rely on (monotone
///    lower bound, order-independent bit-exact full cost),
///  * admissibility of the precomputed per-output bounds,
///  * the ExhaustiveBudgetError / budget-fallback paths in the search and
///    in the flow's auto-select,
///  * branch-and-bound telemetry sanity (nodes expanded, subtrees pruned,
///    bound tightness).

#include <gtest/gtest.h>

#include <algorithm>

#include "bdd/netbdd.hpp"
#include "benchgen/benchgen.hpp"
#include "flow/flow.hpp"
#include "phase/eval.hpp"
#include "phase/search.hpp"
#include "util/rng.hpp"

namespace dominosyn {
namespace {

AssignmentEvaluator make_evaluator(const Network& net, PowerModelConfig config,
                                   double pi_prob = 0.5) {
  const std::vector<double> pi_probs(net.num_pis(), pi_prob);
  return AssignmentEvaluator(net, signal_probabilities(net, pi_probs), config);
}

void expect_cost_identical(const AssignmentCost& a, const AssignmentCost& b) {
  EXPECT_EQ(a.power.domino_block, b.power.domino_block);
  EXPECT_EQ(a.power.input_inverters, b.power.input_inverters);
  EXPECT_EQ(a.power.output_inverters, b.power.output_inverters);
  EXPECT_EQ(a.power.clock_load, b.power.clock_load);
  EXPECT_EQ(a.domino_gates, b.domino_gates);
  EXPECT_EQ(a.duplicated_gates, b.duplicated_gates);
  EXPECT_EQ(a.input_inverters, b.input_inverters);
  EXPECT_EQ(a.output_inverters, b.output_inverters);
}

std::vector<PowerModelConfig> model_variants() {
  PowerModelConfig plain;
  PowerModelConfig loaded;
  loaded.load_aware = true;
  PowerModelConfig full;
  full.load_aware = true;
  full.clock_cap_per_gate = 0.5;
  full.domino_driven_inverter_edges = 1.0;
  full.penalty.or_mult = 1.1;
  full.penalty.and_add = 0.02;
  return {plain, loaded, full};
}

Network random_circuit(std::uint64_t seed, std::size_t pos,
                       std::size_t gates, std::size_t latches = 0) {
  BenchSpec spec;
  spec.name = "bnb" + std::to_string(seed);
  spec.num_pis = 8 + seed % 5;
  spec.num_pos = pos;
  spec.num_latches = latches;
  spec.gate_target = gates;
  spec.seed = seed;
  return generate_benchmark(spec);
}

TEST(SearchBnb, BitIdenticalToGrayWalkOnRandomCircuits) {
  // The load-bearing contract: for every circuit, metric, model and thread
  // count, branch-and-bound returns the Gray walk's exact (cost, assignment,
  // tie-break) — pruning must be invisible in the result.
  struct Case {
    std::uint64_t seed;
    std::size_t pos;
    std::size_t gates;
    std::size_t latches;
  };
  const Case cases[] = {
      {11, 5, 60, 0}, {12, 8, 90, 0}, {13, 10, 120, 3}, {14, 13, 150, 0}};
  for (const Case& c : cases) {
    const Network net = random_circuit(c.seed, c.pos, c.gates, c.latches);
    for (const PowerModelConfig& model : model_variants()) {
      const AssignmentEvaluator evaluator = make_evaluator(net, model, 0.6);
      for (const bool by_power : {true, false}) {
        const SearchResult reference =
            exhaustive_gray_walk(evaluator, by_power, ExhaustiveOptions{});
        EXPECT_EQ(reference.counters.evaluations, 1ULL << net.num_pos());

        for (const unsigned threads : {1u, 2u, 8u}) {
          ExhaustiveOptions bnb;
          bnb.num_threads = threads;
          const SearchResult pruned =
              by_power ? exhaustive_min_power(evaluator, bnb)
                       : exhaustive_min_area(evaluator, bnb);
          EXPECT_EQ(pruned.assignment, reference.assignment)
              << "seed=" << c.seed << " power=" << by_power
              << " threads=" << threads;
          expect_cost_identical(pruned.cost, reference.cost);
        }
      }
    }
  }
}

TEST(SearchBnb, BitIdenticalAcrossThreads) {
  // Sharding must be invisible in the result: every thread count returns
  // exactly the single-threaded search's (cost, assignment, tie-break).
  const Network net = random_circuit(31, 9, 100, 2);
  for (const PowerModelConfig& model : model_variants()) {
    const AssignmentEvaluator evaluator = make_evaluator(net, model, 0.6);
    for (const bool by_power : {true, false}) {
      const ExhaustiveOptions sequential;
      const SearchResult reference =
          by_power ? exhaustive_min_power(evaluator, sequential)
                   : exhaustive_min_area(evaluator, sequential);

      for (const unsigned threads : {2u, 3u, 8u}) {
        ExhaustiveOptions threaded;
        threaded.num_threads = threads;
        const SearchResult got =
            by_power ? exhaustive_min_power(evaluator, threaded)
                     : exhaustive_min_area(evaluator, threaded);
        EXPECT_EQ(got.assignment, reference.assignment)
            << "power=" << by_power << " threads=" << threads;
        expect_cost_identical(got.cost, reference.cost);
      }
    }
  }
}

TEST(SearchBnb, PartialStateIsMonotoneLowerBoundAndExactWhenComplete) {
  const Network net = random_circuit(21, 9, 110, 2);
  PowerModelConfig model;
  model.load_aware = true;
  model.clock_cap_per_gate = 0.3;
  const AssignmentEvaluator evaluator = make_evaluator(net, model);

  Rng rng(5);
  for (int round = 0; round < 20; ++round) {
    PhaseAssignment phases(net.num_pos(), Phase::kPositive);
    for (auto& phase : phases)
      phase = rng.bernoulli(0.5) ? Phase::kNegative : Phase::kPositive;
    std::vector<std::size_t> order(net.num_pos());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);

    // Assigning outputs one by one (in any order) must grow the cost
    // monotonically and land bit-identically on the full evaluation.
    EvalState partial(evaluator.context(), EvalState::AllUnassigned{});
    EXPECT_EQ(partial.unassigned_outputs(), net.num_pos());
    const AssignmentCost full = evaluator.evaluate(phases);
    double previous = partial.power_total();
    std::size_t previous_area = partial.area_cells();
    EXPECT_LE(previous, full.power.total());
    for (const std::size_t output : order) {
      partial.assign_output(output, phases[output]);
      EXPECT_TRUE(partial.output_assigned(output));
      EXPECT_GE(partial.power_total(), previous);
      EXPECT_GE(partial.area_cells(), previous_area);
      EXPECT_LE(partial.power_total(), full.power.total());
      EXPECT_LE(partial.area_cells(), full.area_cells());
      previous = partial.power_total();
      previous_area = partial.area_cells();
    }
    EXPECT_EQ(partial.unassigned_outputs(), 0u);
    expect_cost_identical(partial.cost(), full);

    // Withdrawing everything returns to the latch-only base exactly.
    for (const std::size_t output : order) partial.withdraw_output(output);
    EvalState base(evaluator.context(), EvalState::AllUnassigned{});
    expect_cost_identical(partial.cost(), base.cost());
  }
}

TEST(SearchBnb, PartialStateGuardsMisuse) {
  const Network net = random_circuit(31, 4, 40);
  const AssignmentEvaluator evaluator = make_evaluator(net, {});
  EvalState partial(evaluator.context(), EvalState::AllUnassigned{});
  EXPECT_THROW(partial.apply_flip(0), std::runtime_error);
  EXPECT_THROW(partial.withdraw_output(0), std::runtime_error);
  partial.assign_output(0, Phase::kNegative);
  EXPECT_THROW(partial.assign_output(0, Phase::kPositive), std::runtime_error);
  EXPECT_NO_THROW(partial.apply_flip(0));
  // set_assignment on a partial state assigns the remaining outputs.
  partial.set_assignment(all_positive(net));
  EXPECT_EQ(partial.unassigned_outputs(), 0u);
  expect_cost_identical(partial.cost(), evaluator.evaluate(all_positive(net)));
}

TEST(SearchBnb, ExclusiveBoundsAreAdmissible) {
  // The per-output exclusive bound promises: assigning output i the given
  // phase costs at least that much more than leaving it unassigned, no
  // matter what the other outputs do.  Check against random contexts.
  for (const std::uint64_t seed : {41ULL, 42ULL, 43ULL}) {
    const Network net = random_circuit(seed, 7, 90, seed % 3);
    for (const PowerModelConfig& model : model_variants()) {
      const AssignmentEvaluator evaluator = make_evaluator(net, model, 0.55);
      const EvalContext& ctx = *evaluator.context();
      Rng rng(seed);
      for (int round = 0; round < 10; ++round) {
        EvalState state(evaluator.context(), EvalState::AllUnassigned{});
        // Random subset of the *other* outputs, random phases.
        const std::size_t target = rng.below(net.num_pos());
        for (std::size_t i = 0; i < net.num_pos(); ++i) {
          if (i == target || rng.bernoulli(0.4)) continue;
          state.assign_output(
              i, rng.bernoulli(0.5) ? Phase::kNegative : Phase::kPositive);
        }
        for (const bool negative : {false, true}) {
          const double power_before = state.power_total();
          const std::size_t area_before = state.area_cells();
          state.assign_output(
              target, negative ? Phase::kNegative : Phase::kPositive);
          const double power_delta = state.power_total() - power_before;
          const std::size_t area_delta = state.area_cells() - area_before;
          state.withdraw_output(target);
          const double bound = ctx.exclusive_power_bound(target, negative);
          EXPECT_LE(bound, power_delta + 1e-9 * (1.0 + power_delta))
              << "seed=" << seed << " target=" << target << " neg=" << negative;
          EXPECT_LE(ctx.exclusive_area_bound(target, negative), area_delta);
        }
      }
    }
  }
}

TEST(SearchBnb, DegenerateModelFallsBackToFullEnumeration) {
  // A negative penalty coefficient lets a realized gate *lower* the cost:
  // demand is no longer monotone, so no admissible bound exists and the
  // pruned search must quietly become the full walk — exactness over speed.
  const Network net = random_circuit(91, 6, 70);
  PowerModelConfig degenerate;
  degenerate.penalty.and_add = -0.1;
  const AssignmentEvaluator evaluator = make_evaluator(net, degenerate);
  EXPECT_FALSE(evaluator.context()->bounds_admissible());

  const SearchResult pruned = exhaustive_min_power(evaluator);
  EXPECT_EQ(pruned.counters.nodes_expanded, 0u);  // no tree was built
  EXPECT_EQ(pruned.counters.evaluations, 1ULL << net.num_pos());

  const SearchResult reference =
      exhaustive_gray_walk(evaluator, /*by_power=*/true, ExhaustiveOptions{});
  EXPECT_EQ(pruned.assignment, reference.assignment);
  expect_cost_identical(pruned.cost, reference.cost);

  // Well-formed models advertise admissible bounds.
  EXPECT_TRUE(
      make_evaluator(net, PowerModelConfig{}).context()->bounds_admissible());
}

TEST(SearchBnb, TelemetryIsSaneAndSequentiallyReproducible) {
  const Network net = random_circuit(51, 12, 140);
  const AssignmentEvaluator evaluator = make_evaluator(net, {}, 0.6);

  ExhaustiveOptions sequential;
  sequential.num_threads = 1;
  const SearchResult first = exhaustive_min_power(evaluator, sequential);
  const SearchResult second = exhaustive_min_power(evaluator, sequential);
  // Single-threaded runs see no incumbent races: every counter reproduces.
  EXPECT_EQ(first.counters.nodes_expanded, second.counters.nodes_expanded);
  EXPECT_EQ(first.counters.subtrees_pruned, second.counters.subtrees_pruned);
  EXPECT_EQ(first.counters.evaluations, second.counters.evaluations);
  EXPECT_EQ(first.counters.bound_tightness, second.counters.bound_tightness);

  EXPECT_GT(first.counters.nodes_expanded, 0u);
  // The prefix tree holds 2^(P+1) - 2 internal+leaf nodes; expansions can
  // never exceed it.
  EXPECT_LT(first.counters.nodes_expanded, 1ULL << (net.num_pos() + 1));
  EXPECT_GT(first.counters.bound_tightness, 0.0);
  EXPECT_LE(first.counters.bound_tightness, 1.0 + 1e-9);
  // Leaves reached plus seeding evaluations; far fewer than the full walk
  // whenever anything pruned.
  EXPECT_GT(first.counters.evaluations, 0u);
  EXPECT_GT(first.counters.subtrees_pruned, 0u);
  EXPECT_LT(first.counters.evaluations, 1ULL << net.num_pos());
}

TEST(SearchBnb, BudgetTripsAndCarriesContext) {
  const Network net = random_circuit(61, 10, 120);
  const AssignmentEvaluator evaluator = make_evaluator(net, {}, 0.6);

  ExhaustiveOptions tiny;
  tiny.node_budget = 4;  // trips immediately on any non-trivial circuit
  try {
    (void)exhaustive_min_power(evaluator, tiny);
    FAIL() << "expected ExhaustiveBudgetError";
  } catch (const ExhaustiveBudgetError& error) {
    EXPECT_EQ(error.budget(), 4u);
    EXPECT_GT(error.nodes_expanded(), 4u);
  }

  // The Gray walk's budget is a deterministic up-front refusal.
  ExhaustiveOptions gray;
  gray.node_budget = 8;
  EXPECT_THROW((void)exhaustive_gray_walk(evaluator, /*by_power=*/true, gray),
               ExhaustiveBudgetError);

  // A generous budget changes nothing.
  ExhaustiveOptions roomy;
  roomy.node_budget = 1ULL << 22;
  const SearchResult bounded = exhaustive_min_power(evaluator, roomy);
  const SearchResult unbounded = exhaustive_min_power(evaluator);
  EXPECT_EQ(bounded.assignment, unbounded.assignment);
}

TEST(SearchBnb, MinAreaFallsBackToAnnealingOnBudgetTrip) {
  const Network net = random_circuit(71, 11, 130);
  const AssignmentEvaluator evaluator = make_evaluator(net, {});

  MinAreaOptions tripped;
  tripped.node_budget = 2;  // exact search cannot finish: annealing takes over
  const SearchResult fallback = min_area_assignment(evaluator, tripped);

  MinAreaOptions annealed = tripped;
  annealed.exhaustive_limit = 0;  // force annealing directly
  const SearchResult reference = min_area_assignment(evaluator, annealed);
  EXPECT_EQ(fallback.assignment, reference.assignment);
  expect_cost_identical(fallback.cost, reference.cost);
  EXPECT_EQ(fallback.counters.evaluations, reference.counters.evaluations);

  // With the default budget the same circuit is solved exactly.
  const SearchResult exact = min_area_assignment(evaluator, MinAreaOptions{});
  EXPECT_GT(exact.counters.nodes_expanded, 0u);
  EXPECT_LE(exact.cost.area_cells(), reference.cost.area_cells());
}

TEST(SearchBnb, FlowMinPowerFallsBackToHeuristicOnBudgetTrip) {
  // 11 POs, auto-exhaustive enabled at the flow level, but with a one-node
  // budget: the assign stage must quietly take the §4.1 heuristic path and
  // report the heuristic's telemetry (commits > 0, no pruning counters).
  BenchSpec spec;
  spec.name = "flow-budget";
  spec.num_pis = 10;
  spec.num_pos = 11;
  spec.gate_target = 110;
  spec.seed = 81;
  const Network net = generate_benchmark(spec);

  FlowOptions options;
  options.sim.steps = 100;
  options.sim.warmup = 4;
  options.mode = PhaseMode::kMinPower;
  options.exhaustive_pos_limit = 16;
  options.exhaustive_node_budget = 1;
  const FlowReport tripped = run_flow(net, options);
  EXPECT_EQ(tripped.search.nodes_expanded, 0u);

  FlowOptions heuristic = options;
  heuristic.exhaustive_pos_limit = 4;  // below #POs: heuristic from the start
  heuristic.exhaustive_node_budget = kDefaultExhaustiveNodeBudget;
  const FlowReport reference = run_flow(net, heuristic);
  EXPECT_EQ(tripped.assignment, reference.assignment);
  EXPECT_EQ(tripped.est_power, reference.est_power);
  EXPECT_EQ(tripped.search.commits, reference.search.commits);

  // With a real budget the exact search runs and its telemetry reaches the
  // report.
  FlowOptions exact = options;
  exact.exhaustive_node_budget = 0;
  const FlowReport solved = run_flow(net, exact);
  EXPECT_GT(solved.search.nodes_expanded, 0u);
  EXPECT_GT(solved.search.bound_tightness, 0.0);
  EXPECT_LE(solved.est_power, reference.est_power + 1e-9);
}

}  // namespace
}  // namespace dominosyn
