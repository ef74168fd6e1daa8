/// Tests for the incremental phase-evaluation engine (phase/eval.hpp) and the
/// deterministic parallel searches built on it:
///  * bit-exact equivalence of EvalState flip sequences vs the full
///    AssignmentEvaluator::evaluate() across random networks and all power
///    model variants (the engine's core contract),
///  * undo/set_assignment state restoration,
///  * deferred power sums: one read after a long unread run of flips, undos,
///    jumps and partial-state assigns lands on the full evaluation exactly,
///    for copies taken mid-run too,
///  * refcount-derived demand vs the independent stack-walk demand,
///  * thread-count independence of exhaustive / min-area / min-power search,
///  * the ExhaustiveLimitError contract.

#include <gtest/gtest.h>

#include <optional>

#include "bdd/netbdd.hpp"
#include "benchgen/benchgen.hpp"
#include "flow/flow.hpp"
#include "phase/eval.hpp"
#include "phase/search.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dominosyn {
namespace {

AssignmentEvaluator make_evaluator(const Network& net, PowerModelConfig config,
                                   double pi_prob = 0.5) {
  const std::vector<double> pi_probs(net.num_pis(), pi_prob);
  return AssignmentEvaluator(net, signal_probabilities(net, pi_probs), config);
}

/// All comparisons are *exact*: the incremental engine must agree with the
/// full evaluator bit-for-bit, not approximately.
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

/// The power-model variants the engine must track exactly: the paper's plain
/// C_i = 1 setting, the structural load model, clock/penalty terms, and all
/// of them combined.
std::vector<PowerModelConfig> model_variants() {
  PowerModelConfig plain;
  PowerModelConfig loaded;
  loaded.load_aware = true;
  PowerModelConfig clocked;
  clocked.clock_cap_per_gate = 0.35;
  clocked.penalty.and_mult = 1.25;
  clocked.penalty.or_add = 0.05;
  PowerModelConfig full;
  full.load_aware = true;
  full.clock_cap_per_gate = 0.5;
  full.domino_driven_inverter_edges = 1.0;
  full.penalty.or_mult = 1.1;
  full.penalty.and_add = 0.02;
  return {plain, loaded, clocked, full};
}

class IncrementalEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalEquivalence, RandomFlipSequencesMatchFullEvaluate) {
  const std::uint64_t seed = GetParam();
  BenchSpec spec;
  spec.name = "inc";
  spec.num_pis = 9;
  spec.num_pos = 7;
  spec.num_latches = seed % 2 == 0 ? 3 : 0;
  spec.gate_target = 80;
  spec.seed = seed * 17 + 1;
  const Network net = generate_benchmark(spec);

  for (const PowerModelConfig& config : model_variants()) {
    const AssignmentEvaluator evaluator =
        make_evaluator(net, config, seed % 3 == 0 ? 0.8 : 0.5);

    Rng rng(seed);
    PhaseAssignment initial(net.num_pos());
    for (auto& p : initial)
      p = rng.bernoulli(0.5) ? Phase::kNegative : Phase::kPositive;

    EvalState state(evaluator.context(), initial);
    expect_cost_identical(state.cost(), evaluator.evaluate(initial));

    for (int flip = 0; flip < 60; ++flip) {
      state.apply_flip(rng.below(net.num_pos()));
      const AssignmentCost full = evaluator.evaluate(state.assignment());
      expect_cost_identical(state.cost(), full);
      EXPECT_EQ(state.area_cells(), full.area_cells());
      EXPECT_EQ(state.power_total(), full.power.total());
    }
  }
}

TEST_P(IncrementalEquivalence, DeferredPowerSumsCatchUpExactly) {
  // Min-area searches flip thousands of times without reading power, so the
  // summation tree can hold many dirty leaves when a read finally comes.
  // That one read must land on the full evaluation bit for bit, and so must
  // a copy taken while the work is still pending.
  const std::uint64_t seed = GetParam();
  BenchSpec spec;
  spec.name = "lazy";
  spec.num_pis = 9;
  spec.num_pos = 7;
  spec.num_latches = seed % 2 == 0 ? 3 : 0;
  spec.gate_target = 80;
  spec.seed = seed * 17 + 1;
  const Network net = generate_benchmark(spec);
  const std::size_t num_pos = net.num_pos();

  for (const bool load_aware : {false, true}) {
    PowerModelConfig config;
    config.load_aware = load_aware;
    const AssignmentEvaluator evaluator =
        make_evaluator(net, config, seed % 3 == 0 ? 0.8 : 0.5);
    Rng rng(seed + 1000);
    const auto random_phase = [&rng] {
      return rng.bernoulli(0.5) ? Phase::kNegative : Phase::kPositive;
    };
    const auto random_assignment = [&] {
      PhaseAssignment phases(num_pos);
      for (auto& p : phases) p = random_phase();
      return phases;
    };

    // Full state: flips, undos and jumps, with no power read in between.
    EvalState state(evaluator.context(), random_assignment());
    std::optional<EvalState> midway;
    for (int step = 0; step < 1200; ++step) {
      const std::uint64_t op = rng.below(10);
      if (op < 6) {
        state.apply_flip(rng.below(num_pos));
      } else if (op < 9) {
        if (state.history_depth() > 0) state.undo();
      } else {
        state.set_assignment(random_assignment());
      }
      if (step == 600) midway.emplace(state);
    }
    EvalState copy = state;  // taken while the work is pending
    const AssignmentCost full = evaluator.evaluate(state.assignment());
    expect_cost_identical(copy.cost(), full);
    expect_cost_identical(state.cost(), full);
    expect_cost_identical(state.cost(), full);  // a second read, no change
    EXPECT_EQ(state.power_total(), full.power.total());
    expect_cost_identical(midway->cost(),
                          evaluator.evaluate(midway->assignment()));

    // Partial state: assign, withdraw and flip outputs, again unread.
    EvalState partial(evaluator.context(), EvalState::AllUnassigned{});
    for (int step = 0; step < 1200; ++step) {
      const std::size_t output = rng.below(num_pos);
      if (!partial.output_assigned(output)) {
        partial.assign_output(output, random_phase());
      } else if (rng.bernoulli(0.5)) {
        partial.withdraw_output(output);
      } else {
        partial.apply_flip(output);
      }
    }
    // A fresh partial state with the same outputs assigned has the same
    // demand, so it must cost the same bits.
    EvalState fresh(evaluator.context(), EvalState::AllUnassigned{});
    for (std::size_t i = 0; i < num_pos; ++i)
      if (partial.output_assigned(i))
        fresh.assign_output(i, partial.assignment()[i]);
    expect_cost_identical(partial.cost(), fresh.cost());
    for (std::size_t i = 0; i < num_pos; ++i)
      if (!partial.output_assigned(i)) partial.assign_output(i, random_phase());
    expect_cost_identical(partial.cost(),
                          evaluator.evaluate(partial.assignment()));
  }
}

TEST_P(IncrementalEquivalence, RefcountDemandMatchesWalkDemand) {
  const std::uint64_t seed = GetParam();
  BenchSpec spec;
  spec.name = "dem";
  spec.num_pis = 8;
  spec.num_pos = 6;
  spec.num_latches = seed % 3 == 0 ? 2 : 0;
  spec.gate_target = 70;
  spec.seed = seed + 100;
  const Network net = generate_benchmark(spec);
  const AssignmentEvaluator evaluator = make_evaluator(net, {});

  Rng rng(seed);
  PhaseAssignment phases(net.num_pos(), Phase::kPositive);
  EvalState state(evaluator.context(), phases);
  for (int flip = 0; flip < 20; ++flip) {
    state.apply_flip(rng.below(net.num_pos()));
    // polarity_demand() is the seed's independent stack-walk
    // implementation; the engine derives the same bits from its reference
    // counts.
    EXPECT_EQ(state.demand().bits, polarity_demand(net, state.assignment()).bits);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalence,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Incremental, SourceResolvedAndConstantOutputs) {
  // The boundary folding cases: direct-wire POs, shared input inverters,
  // constant drivers, NOT chains — everything polarity_demand()/evaluate()
  // special-cases must stay exact under flips.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId g = net.add_and(a, b);
  net.add_po("wire", a);
  net.add_po("inv", net.add_not(a));
  net.add_po("const", Network::const0());
  net.add_po("notconst", net.add_not(Network::const1()));
  net.add_po("f", g);
  net.add_po("nf", net.add_not(net.add_not(net.add_not(g))));

  for (const PowerModelConfig& config : model_variants()) {
    const AssignmentEvaluator evaluator = make_evaluator(net, config, 0.7);
    // Walk all 64 assignments in Gray order: one flip each.
    EvalState state(evaluator.context(), all_positive(net));
    expect_cost_identical(state.cost(), evaluator.evaluate(state.assignment()));
    for (std::uint64_t code = 1; code < (1ULL << net.num_pos()); ++code) {
      state.apply_flip(static_cast<std::size_t>(std::countr_zero(code)));
      expect_cost_identical(state.cost(), evaluator.evaluate(state.assignment()));
      EXPECT_EQ(state.demand().bits, polarity_demand(net, state.assignment()).bits);
    }
  }
}

TEST(Incremental, UndoRestoresExactState) {
  BenchSpec spec;
  spec.name = "undo";
  spec.num_pis = 9;
  spec.num_pos = 6;
  spec.gate_target = 70;
  spec.seed = 11;
  const Network net = generate_benchmark(spec);
  PowerModelConfig config;
  config.load_aware = true;
  const AssignmentEvaluator evaluator = make_evaluator(net, config);

  EvalState state(evaluator.context(), all_positive(net));
  const AssignmentCost before = state.cost();

  Rng rng(7);
  const int depth = 17;
  for (int i = 0; i < depth; ++i) state.apply_flip(rng.below(net.num_pos()));
  EXPECT_EQ(state.history_depth(), static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) state.undo();
  EXPECT_EQ(state.history_depth(), 0u);
  EXPECT_EQ(state.assignment(), all_positive(net));
  expect_cost_identical(state.cost(), before);
  EXPECT_THROW(state.undo(), std::runtime_error);
}

TEST(Incremental, SetAssignmentJumpsAndCopiesAreIndependent) {
  BenchSpec spec;
  spec.name = "jump";
  spec.num_pis = 8;
  spec.num_pos = 5;
  spec.gate_target = 60;
  spec.seed = 23;
  const Network net = generate_benchmark(spec);
  const AssignmentEvaluator evaluator = make_evaluator(net, {});

  Rng rng(3);
  PhaseAssignment target(net.num_pos());
  for (auto& p : target)
    p = rng.bernoulli(0.5) ? Phase::kNegative : Phase::kPositive;

  EvalState state(evaluator.context(), all_positive(net));
  EvalState copy = state;
  state.set_assignment(target);
  EXPECT_EQ(state.assignment(), target);
  EXPECT_EQ(state.history_depth(), 0u);
  expect_cost_identical(state.cost(), evaluator.evaluate(target));
  // The copy still scores the original assignment.
  expect_cost_identical(copy.cost(), evaluator.evaluate(all_positive(net)));
}

TEST_P(IncrementalEquivalence, ConeAveragesMatchFromScratchWalk) {
  // The commit-path contract: EvalState::cone_average_probs() must stay
  // bit-exact with the from-scratch AssignmentEvaluator walk through any
  // apply_flip / undo / set_assignment history.
  const std::uint64_t seed = GetParam();
  BenchSpec spec;
  spec.name = "avg";
  spec.num_pis = 9;
  spec.num_pos = 8;
  spec.num_latches = seed % 2 == 0 ? 2 : 0;
  spec.gate_target = 90;
  spec.seed = seed * 31 + 5;
  const Network net = generate_benchmark(spec);
  const AssignmentEvaluator evaluator =
      make_evaluator(net, {}, seed % 3 == 0 ? 0.75 : 0.5);

  Rng rng(seed + 7);
  EvalState state(evaluator.context(), all_positive(net));
  for (int step = 0; step < 80; ++step) {
    const std::size_t roll = rng.below(10);
    if (roll < 6) {
      state.apply_flip(rng.below(net.num_pos()));
    } else if (roll < 8 && state.history_depth() > 0) {
      state.undo();
    } else {
      PhaseAssignment jump(net.num_pos());
      for (auto& p : jump)
        p = rng.bernoulli(0.5) ? Phase::kNegative : Phase::kPositive;
      state.set_assignment(jump);
    }
    const std::vector<double> reference =
        evaluator.cone_average_probs(state.assignment());
    const std::vector<double> maintained = state.cone_average_probs();
    ASSERT_EQ(maintained.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_EQ(maintained[i], reference[i]) << "output " << i;
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_EQ(state.cone_average(i), reference[i]);
  }
}

TEST(ConeAverages, InvertedConeIndexMatchesOverlapCones) {
  // EvalContext::cone_outputs must agree with the independently computed
  // ConeOverlap cone sets: node n is in cone(i) iff i is in cone_outputs(n).
  BenchSpec spec;
  spec.name = "inv";
  spec.num_pis = 8;
  spec.num_pos = 7;
  spec.gate_target = 80;
  spec.seed = 13;
  const Network net = generate_benchmark(spec);
  const AssignmentEvaluator evaluator = make_evaluator(net, {});
  const EvalContext& ctx = *evaluator.context();
  const ConeOverlap overlap(net);

  std::size_t total_memberships = 0;
  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    for (const NodeId node : overlap.cone(i)) {
      if (net.kind(node) == NodeKind::kNot) continue;  // absorbed into edges
      const auto outputs = ctx.cone_outputs(node);
      EXPECT_TRUE(std::find(outputs.begin(), outputs.end(), i) != outputs.end())
          << "node " << node << " missing output " << i;
      ++total_memberships;
    }
  }
  std::size_t index_memberships = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const auto outputs = ctx.cone_outputs(id);
    EXPECT_TRUE(std::is_sorted(outputs.begin(), outputs.end()));
    index_memberships += outputs.size();
  }
  EXPECT_EQ(index_memberships, total_memberships);
}

TEST(ConeAverages, GateFreeConesPinNeutralHalf) {
  // The documented convention (assignment.hpp): outputs whose cone realizes
  // no AND/OR instance — wires, buffer/NOT-only chains, constants — report
  // A_i = 0.5 in both phases, from the walk and the maintained state alike.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId g = net.add_and(a, b);
  net.add_po("wire", a);                                  // direct PI wire
  net.add_po("inv", net.add_not(a));                      // NOT-only cone
  net.add_po("buf", net.add_not(net.add_not(a)));         // buffer chain
  net.add_po("const", Network::const0());                 // constant driver
  net.add_po("f", g);                                     // one real gate

  const AssignmentEvaluator evaluator = make_evaluator(net, {}, 0.3);
  EvalState state(evaluator.context(), all_positive(net));
  // Walk all 32 assignments in Gray order; the gate-free outputs must pin
  // 0.5 under every phase combination.
  for (std::uint64_t code = 0;; ++code) {
    const std::vector<double> reference =
        evaluator.cone_average_probs(state.assignment());
    const std::vector<double> maintained = state.cone_average_probs();
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(reference[i], 0.5) << "output " << i;
      EXPECT_EQ(maintained[i], 0.5) << "output " << i;
    }
    // The real gate's cone averages the AND's probability (p = 0.09) in the
    // positive phase and its Property 4.1 dual in the negative phase.
    const double p_and = 0.3 * 0.3;
    EXPECT_EQ(reference[4],
              state.assignment()[4] == Phase::kPositive ? p_and : 1.0 - p_and);
    EXPECT_EQ(maintained[4], reference[4]);
    if (code + 1 >= (1ULL << net.num_pos())) break;
    state.apply_flip(static_cast<std::size_t>(std::countr_zero(code + 1)));
  }
}

namespace reference_seed {

/// Verbatim copy of the pre-incremental-commit-path min_power_assignment
/// (§4.1 loop with from-scratch A refreshes, full sorted-queue rebuilds on
/// commit, and the O(candidates) linear candidate scans), kept as the
/// bit-identity oracle for the delta-updated K-queue implementation.
MinPowerResult min_power(const AssignmentEvaluator& evaluator,
                         const ConeOverlap& overlap,
                         const MinPowerOptions& options) {
  constexpr double kImprovementEps = 1e-12;
  const Network& net = evaluator.network();
  const std::size_t num_pos = net.num_pos();

  MinPowerResult result;
  result.assignment = options.initial.empty() ? all_positive(net) : options.initial;
  EvalState state(evaluator.context(), result.assignment);
  result.cost = state.cost();
  result.initial_power = result.cost.power.total();
  result.final_power = result.initial_power;

  const auto measure_flips = [&state](std::size_t i, bool flip_i, std::size_t j,
                                      bool flip_j) {
    unsigned applied = 0;
    if (flip_i) { state.apply_flip(i); ++applied; }
    if (flip_j) { state.apply_flip(j); ++applied; }
    const AssignmentCost cost = state.cost();
    while (applied-- > 0) state.undo();
    return cost;
  };
  const auto commit = [&](const AssignmentCost& cost) {
    result.assignment = state.assignment();
    result.cost = cost;
    result.final_power = cost.power.total();
    ++result.counters.commits;
  };

  if (num_pos < 2) return result;

  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  for (std::size_t i = 0; i < num_pos; ++i)
    for (std::size_t j = i + 1; j < num_pos; ++j) candidates.emplace_back(i, j);

  std::vector<double> cone_size(num_pos);
  for (std::size_t i = 0; i < num_pos; ++i)
    cone_size[i] = static_cast<double>(overlap.cone_size(i));
  std::vector<double> avg = evaluator.cone_average_probs(result.assignment);

  struct Scored {
    double k = 0.0;
    bool flip_i = false;
    bool flip_j = false;
  };
  const auto score_pair = [&](std::size_t i, std::size_t j) {
    Scored best;
    best.k = std::numeric_limits<double>::infinity();
    const double o = overlap.overlap(i, j);
    for (const bool fi : {false, true}) {
      const double ai = fi ? 1.0 - avg[i] : avg[i];
      for (const bool fj : {false, true}) {
        const double aj = fj ? 1.0 - avg[j] : avg[j];
        const double k =
            cone_size[i] * ai + cone_size[j] * aj + 0.5 * o * (ai + aj);
        if (k < best.k) best = Scored{k, fi, fj};
      }
    }
    return best;
  };

  std::vector<std::pair<double, std::size_t>> queue;
  std::vector<bool> consumed(candidates.size(), false);
  const auto rebuild_queue = [&] {
    queue.clear();
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (consumed[c]) continue;
      queue.emplace_back(score_pair(candidates[c].first, candidates[c].second).k,
                         c);
    }
    std::sort(queue.begin(), queue.end());
  };

  Rng rng(options.seed);
  if (options.guidance == GuidanceMode::kCostFunction) rebuild_queue();
  std::size_t queue_head = 0;
  std::size_t remaining = candidates.size();

  while (remaining > 0) {
    std::size_t pick = 0;
    bool flip_i = false;
    bool flip_j = false;

    switch (options.guidance) {
      case GuidanceMode::kCostFunction: {
        while (queue_head < queue.size() && consumed[queue[queue_head].second])
          ++queue_head;
        if (queue_head >= queue.size()) {
          rebuild_queue();
          queue_head = 0;
        }
        pick = queue[queue_head].second;
        const auto [i, j] = candidates[pick];
        const Scored scored = score_pair(i, j);
        flip_i = scored.flip_i;
        flip_j = scored.flip_j;
        break;
      }
      case GuidanceMode::kRandom: {
        std::size_t nth = rng.below(remaining);
        for (pick = 0; pick < candidates.size(); ++pick) {
          if (consumed[pick]) continue;
          if (nth-- == 0) break;
        }
        flip_i = rng.bernoulli(0.5);
        flip_j = rng.bernoulli(0.5);
        break;
      }
      case GuidanceMode::kMeasureAll: {
        for (pick = 0; consumed[pick]; ++pick) {
        }
        double best_power = std::numeric_limits<double>::infinity();
        const auto [i, j] = candidates[pick];
        for (const bool fi : {false, true})
          for (const bool fj : {false, true}) {
            const double power = measure_flips(i, fi, j, fj).power.total();
            ++result.counters.evaluations;
            if (power < best_power) {
              best_power = power;
              flip_i = fi;
              flip_j = fj;
            }
          }
        break;
      }
    }

    const auto [i, j] = candidates[pick];
    unsigned applied = 0;
    if (flip_i) { state.apply_flip(i); ++applied; }
    if (flip_j) { state.apply_flip(j); ++applied; }
    const AssignmentCost trial_cost = state.cost();
    ++result.counters.evaluations;
    consumed[pick] = true;
    --remaining;
    if (trial_cost.power.total() < result.final_power - kImprovementEps) {
      commit(trial_cost);
      avg = evaluator.cone_average_probs(result.assignment);
      if (options.guidance == GuidanceMode::kCostFunction) {
        rebuild_queue();
        queue_head = 0;
      }
    } else {
      while (applied-- > 0) state.undo();
    }
  }

  if (options.polish_descent) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (std::size_t i = 0; i < num_pos; ++i) {
        state.apply_flip(i);
        const AssignmentCost trial_cost = state.cost();
        ++result.counters.evaluations;
        if (trial_cost.power.total() < result.final_power - kImprovementEps) {
          commit(trial_cost);
          improved = true;
        } else {
          state.undo();
        }
      }
    }
  }
  return result;
}

}  // namespace reference_seed

TEST(MinPower, DeltaQueueMatchesSeedReferenceLoop) {
  // The incremental commit path must reproduce the seed loop's trajectory —
  // assignment, power, trials, commits — bit for bit, for every guidance
  // mode, with and without the polish descent.
  for (const std::uint64_t circuit_seed : {3u, 27u}) {
    BenchSpec spec;
    spec.name = "seedref";
    spec.num_pis = 11;
    spec.num_pos = 13;
    spec.gate_target = 130;
    spec.seed = circuit_seed;
    const Network net = generate_benchmark(spec);
    const AssignmentEvaluator evaluator = make_evaluator(net, {}, 0.55);
    const ConeOverlap overlap(net);

    for (const GuidanceMode mode :
         {GuidanceMode::kCostFunction, GuidanceMode::kMeasureAll,
          GuidanceMode::kRandom}) {
      for (const bool polish : {false, true}) {
        MinPowerOptions options;
        options.guidance = mode;
        options.polish_descent = polish;
        options.seed = 5 + circuit_seed;
        const MinPowerResult expected =
            reference_seed::min_power(evaluator, overlap, options);
        const MinPowerResult actual =
            min_power_assignment(evaluator, overlap, options);
        EXPECT_EQ(actual.assignment, expected.assignment)
            << "mode " << static_cast<int>(mode) << " polish " << polish;
        EXPECT_EQ(actual.final_power, expected.final_power);
        EXPECT_EQ(actual.initial_power, expected.initial_power);
        EXPECT_EQ(actual.counters.evaluations, expected.counters.evaluations);
        EXPECT_EQ(actual.counters.commits, expected.counters.commits);
        expect_cost_identical(actual.cost, expected.cost);
      }
    }
  }
}

TEST(MinPower, CommitsRescoreOnlyPairsTouchingFlippedOutputs) {
  // The counter proof that commits no longer trigger full rebuilds: a commit
  // flips at most two outputs, and the pairs whose K depends on them number
  // at most 2·(P-1)-1 — far below the full candidate set the seed re-scored
  // and re-sorted on every commit.
  BenchSpec spec;
  spec.name = "rescore";
  spec.num_pis = 11;
  spec.num_pos = 14;
  spec.gate_target = 140;
  spec.seed = 8;
  const Network net = generate_benchmark(spec);
  const AssignmentEvaluator evaluator = make_evaluator(net, {}, 0.6);
  const ConeOverlap overlap(net);
  const std::size_t num_pos = net.num_pos();
  const std::size_t all_pairs = num_pos * (num_pos - 1) / 2;

  MinPowerOptions options;
  const MinPowerResult result =
      min_power_assignment(evaluator, overlap, options);
  ASSERT_GT(result.counters.commits, 0u);

  // Per commit: at most 2 outputs flip; each touches P-1 pairs, minus the
  // consumed pair itself and the double-counted (i, j) pair.
  const std::size_t per_commit_bound = 2 * (num_pos - 1) - 1;
  EXPECT_GT(result.counters.commit_rescore_pairs, 0u);
  EXPECT_LE(result.counters.commit_rescore_pairs,
            result.counters.commits * per_commit_bound);
  // A full rebuild would have re-scored ~all surviving pairs per commit.
  EXPECT_LT(result.counters.commit_rescore_pairs,
            result.counters.commits * all_pairs / 2);

  // A_i refreshes cover only the flipped outputs' cones.
  std::size_t max_cone = 0;
  for (std::size_t i = 0; i < num_pos; ++i)
    max_cone = std::max(max_cone,
                        evaluator.context()->cone_gate_count(i));
  EXPECT_GT(result.counters.avg_update_nodes, 0u);
  EXPECT_LE(result.counters.avg_update_nodes,
            result.counters.commits * 2 * max_cone);

  // Non-cost-function guidance never re-scores pairs.
  options.guidance = GuidanceMode::kRandom;
  const MinPowerResult random =
      min_power_assignment(evaluator, overlap, options);
  EXPECT_EQ(random.counters.commit_rescore_pairs, 0u);
}

TEST(Search, ExhaustiveMatchesReferenceScan) {
  BenchSpec spec;
  spec.name = "ref";
  spec.num_pis = 8;
  spec.num_pos = 7;
  spec.gate_target = 70;
  spec.seed = 4;
  const Network net = generate_benchmark(spec);
  const AssignmentEvaluator evaluator = make_evaluator(net, {}, 0.6);

  // Reference: the seed's binary-order scan with full evaluation, keeping
  // the first strict minimum (= lowest assignment code among ties).
  double best_power = 0.0;
  std::size_t best_area = 0;
  PhaseAssignment best_power_phases, best_area_phases;
  PhaseAssignment phases(net.num_pos(), Phase::kPositive);
  for (std::uint64_t code = 0; code < (1ULL << net.num_pos()); ++code) {
    for (std::size_t i = 0; i < net.num_pos(); ++i)
      phases[i] = ((code >> i) & 1ULL) != 0 ? Phase::kNegative : Phase::kPositive;
    const AssignmentCost cost = evaluator.evaluate(phases);
    if (code == 0 || cost.power.total() < best_power) {
      best_power = cost.power.total();
      best_power_phases = phases;
    }
    if (code == 0 || cost.area_cells() < best_area) {
      best_area = cost.area_cells();
      best_area_phases = phases;
    }
  }

  // Default algorithm: branch-and-bound, bit-identical to the scan but
  // proving optimality with fewer exact evaluations.
  const SearchResult power = exhaustive_min_power(evaluator);
  EXPECT_EQ(power.cost.power.total(), best_power);
  EXPECT_EQ(power.assignment, best_power_phases);  // seed tie-break order
  EXPECT_LE(power.counters.evaluations, 1ULL << net.num_pos());
  EXPECT_GT(power.counters.nodes_expanded, 0u);
  expect_cost_identical(power.cost, evaluator.evaluate(power.assignment));

  const SearchResult area = exhaustive_min_area(evaluator);
  EXPECT_EQ(area.cost.area_cells(), best_area);
  // Area metrics are small integers, so ties are common — the pruned
  // search must still return the seed scan's first winner.
  EXPECT_EQ(area.assignment, best_area_phases);

  // The reference Gray walk visits every candidate exactly once.
  const SearchResult gray_power =
      exhaustive_gray_walk(evaluator, /*by_power=*/true, ExhaustiveOptions{});
  EXPECT_EQ(gray_power.assignment, best_power_phases);
  EXPECT_EQ(gray_power.counters.evaluations, 1ULL << net.num_pos());
  expect_cost_identical(gray_power.cost, power.cost);
}

TEST(Search, ParallelExhaustiveIsThreadCountIndependent) {
  BenchSpec spec;
  spec.name = "shard";
  spec.num_pis = 10;
  spec.num_pos = 10;
  spec.gate_target = 90;
  spec.seed = 9;
  const Network net = generate_benchmark(spec);
  const AssignmentEvaluator evaluator = make_evaluator(net, {}, 0.7);

  // Branch-and-bound: the (cost, assignment) result is thread-count
  // invariant by contract; the work counters are not (pruning depends on
  // when workers observe the shared incumbent), so only the result is
  // compared.
  ExhaustiveOptions sequential;
  sequential.num_threads = 1;
  const SearchResult base = exhaustive_min_power(evaluator, sequential);
  for (const unsigned threads : {2u, 3u, 5u, 8u}) {
    ExhaustiveOptions parallel;
    parallel.num_threads = threads;
    const SearchResult result = exhaustive_min_power(evaluator, parallel);
    EXPECT_EQ(result.assignment, base.assignment) << threads;
    expect_cost_identical(result.cost, base.cost);
  }

  // The Gray walk visits a fixed candidate set, so even its counter is
  // identical for every thread count.
  ExhaustiveOptions gray_sequential;
  gray_sequential.num_threads = 1;
  const SearchResult gray_base =
      exhaustive_gray_walk(evaluator, /*by_power=*/true, gray_sequential);
  EXPECT_EQ(gray_base.assignment, base.assignment);
  for (const unsigned threads : {2u, 5u}) {
    ExhaustiveOptions parallel = gray_sequential;
    parallel.num_threads = threads;
    const SearchResult result =
        exhaustive_gray_walk(evaluator, /*by_power=*/true, parallel);
    EXPECT_EQ(result.assignment, gray_base.assignment) << threads;
    expect_cost_identical(result.cost, gray_base.cost);
    EXPECT_EQ(result.counters.evaluations, gray_base.counters.evaluations);
  }
}

TEST(Search, ParallelMinAreaAnnealingIsThreadCountIndependent) {
  BenchSpec spec;
  spec.name = "par-ma";
  spec.num_pis = 10;
  spec.num_pos = 9;
  spec.gate_target = 80;
  spec.seed = 6;
  const Network net = generate_benchmark(spec);
  const AssignmentEvaluator evaluator = make_evaluator(net, {});

  MinAreaOptions sequential;
  sequential.exhaustive_limit = 0;  // force the annealing path
  sequential.restarts = 3;
  sequential.num_threads = 1;
  const SearchResult base = min_area_assignment(evaluator, sequential);
  for (const unsigned threads : {2u, 4u}) {
    MinAreaOptions parallel = sequential;
    parallel.num_threads = threads;
    const SearchResult result = min_area_assignment(evaluator, parallel);
    EXPECT_EQ(result.assignment, base.assignment) << threads;
    expect_cost_identical(result.cost, base.cost);
    EXPECT_EQ(result.counters.evaluations, base.counters.evaluations);
  }
}

TEST(Search, ExhaustiveLimitErrorCarriesContext) {
  BenchSpec spec;
  spec.name = "big";
  spec.num_pis = 8;
  spec.num_pos = 25;
  spec.gate_target = 60;
  spec.seed = 2;
  const Network net = generate_benchmark(spec);
  const AssignmentEvaluator evaluator = make_evaluator(net, {});

  try {
    (void)exhaustive_min_power(evaluator);
    FAIL() << "expected ExhaustiveLimitError";
  } catch (const ExhaustiveLimitError& error) {
    EXPECT_EQ(error.num_outputs(), 25u);
    EXPECT_EQ(error.limit(), kDefaultPrunedExhaustiveLimit);
    EXPECT_NE(std::string(error.what()).find("25"), std::string::npos);
  }
}

TEST(Flow, ExhaustiveLimitIsConsistentBetweenFlowAndSearch) {
  // Seed bug class: flow.cpp's auto-exhaustive threshold and search.hpp's
  // hard limit could silently disagree.  Now the threshold *is* the limit:
  // below it the flow brute-forces, above it the flow falls back to the
  // heuristic instead of throwing.
  BenchSpec spec;
  spec.name = "limit";
  spec.num_pis = 9;
  spec.num_pos = 6;
  spec.gate_target = 70;
  spec.seed = 21;
  const Network net = generate_benchmark(spec);

  FlowOptions options;
  options.sim.steps = 200;
  options.sim.warmup = 4;
  options.mode = PhaseMode::kMinPower;
  options.exhaustive_pos_limit = 4;  // below #POs: heuristic path, no throw
  EXPECT_NO_THROW((void)run_flow(net, options));
  options.exhaustive_pos_limit = 6;  // exactly #POs: exhaustive path works
  EXPECT_NO_THROW((void)run_flow(net, options));

  // Explicit brute-force mode on an intractable output count fails fast
  // with the typed error instead of enumerating forever.
  BenchSpec wide = spec;
  wide.name = "wide";
  wide.num_pos = 25;
  const Network wide_net = generate_benchmark(wide);
  options.mode = PhaseMode::kExhaustivePower;
  EXPECT_THROW((void)run_flow(wide_net, options), ExhaustiveLimitError);
}

TEST(Flow, NumThreadsProducesIdenticalReports) {
  BenchSpec spec;
  spec.name = "par-flow";
  spec.num_pis = 10;
  spec.num_pos = 12;  // above the default exhaustive threshold
  spec.gate_target = 100;
  spec.seed = 31;
  const Network net = generate_benchmark(spec);

  FlowOptions options;
  options.sim.steps = 200;
  options.sim.warmup = 4;
  options.mode = PhaseMode::kMinPower;
  options.num_threads = 1;
  const FlowReport base = run_flow(net, options);
  options.num_threads = 4;
  const FlowReport parallel = run_flow(net, options);
  EXPECT_EQ(parallel.assignment, base.assignment);
  EXPECT_EQ(parallel.est_power, base.est_power);
  EXPECT_EQ(parallel.sim_power, base.sim_power);
  EXPECT_EQ(parallel.search.evaluations, base.search.evaluations);
}

TEST(Util, ThreadPoolRunsAllIndicesAndPropagatesErrors) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (const int hit : hits) EXPECT_EQ(hit, 1);

  EXPECT_THROW(
      pool.parallel_for(8,
                        [](std::size_t i) {
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives an exception and stays usable.
  int sum = 0;
  std::mutex mutex;
  pool.parallel_for(10, [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(mutex);
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
}

}  // namespace
}  // namespace dominosyn
