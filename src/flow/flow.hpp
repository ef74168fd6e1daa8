/// \file flow.hpp
/// End-to-end synthesis flow, mirroring §5:
///   (1) technology-independent synthesis (standard_synthesis)
///   (2) phase assignment — min-area [15] or min-power (§4.1)
///   (3) technology mapping to the domino cell library
///   (3b) optional timing-driven resizing (Table 2)
///   (4) power measurement with the statistical simulator (PowerMill stand-in)

#pragma once

#include <string>

#include "dist/options.hpp"
#include "mapping/mapper.hpp"
#include "network/network.hpp"
#include "phase/search.hpp"
#include "sgraph/partition.hpp"
#include "sim/sim.hpp"
#include "timing/timing.hpp"

namespace dominosyn {

enum class PhaseMode : std::uint8_t {
  kAllPositive,      ///< no search (baseline of baselines)
  kMinArea,          ///< ref [15]: minimize duplication / cell count
  kMinPower,         ///< this paper's §4.1 heuristic
  kExhaustivePower,  ///< brute force 2^P (small circuits only)
};

[[nodiscard]] std::string_view to_string(PhaseMode mode) noexcept;

/// Default flow estimator model: the paper's switching formula with the
/// structural load model enabled (C_i = estimated output load), which aligns
/// the search objective with what the simulator measures.  Set
/// model.load_aware = false for the paper's literal C_i = 1 setting (the
/// ablation_loadmodel bench compares the two).
[[nodiscard]] inline PowerModelConfig default_flow_power_model() {
  PowerModelConfig model;
  model.load_aware = true;
  return model;
}

struct FlowOptions {
  PhaseMode mode = PhaseMode::kMinPower;
  double pi_prob = 0.5;          ///< uniform PI signal probability (§5 uses 0.5)
  PowerModelConfig model = default_flow_power_model();
  SeqProbOptions seqprob;        ///< sequential partitioning / BDD options
  MinAreaOptions minarea;
  /// §4.1 options.  An empty `minpower.initial` seeds the search with the
  /// min-area stage's assignment: the paper only requires an *arbitrary*
  /// initial assignment, and starting from [15]'s result guarantees MP never
  /// regresses below the MA baseline.
  MinPowerOptions minpower;
  /// In kMinPower mode, search all 2^P assignments exactly when the output
  /// count allows it (min_power_searches_exactly) — the paper's frg1
  /// observation ("only 2^3 = 8 possible phase assignments"); pairwise moves
  /// cannot cross duplication barriers that a coordinated flip of 3+
  /// overlapping outputs can.  In kExhaustivePower mode the cap is
  /// max(exhaustive_pos_limit, kDefaultPrunedExhaustiveLimit), since exact
  /// search was requested explicitly.
  std::size_t exhaustive_pos_limit = 10;
  /// Node budget of the kMinPower auto-exhaustive branch-and-bound (see
  /// ExhaustiveOptions::node_budget): when the admissible bound is too loose
  /// and the budget trips, the flow falls back to the §4.1 heuristic instead
  /// of enumerating on.  0 = unlimited.  Explicit kExhaustivePower requests
  /// always run unbudgeted — "exhaustive" must mean exact or throw.  The
  /// min-area search's budget is MinAreaOptions::node_budget.
  std::uint64_t exhaustive_node_budget = kDefaultExhaustiveNodeBudget;
  /// Worker threads for the phase-assignment searches (exhaustive-space
  /// sharding, concurrent annealing restarts).  1 = sequential, 0 = one per
  /// hardware thread.  Flow results are identical for every value.
  /// Overrides MinAreaOptions::num_threads.
  unsigned num_threads = 1;
  MapOptions map_options;
  double clock_period = 0.0;     ///< > 0: resize after mapping (Table 2 flow)
  double wire_cap = 0.2;
  SimPowerOptions sim;           ///< measurement settings
  bool count_clock_load = true;  ///< add mapped clock-pin energy to sim power
  /// Distributed search fabric (docs/distributed.md): when enabled with a
  /// coordinator, the exact power searches (kMinPower's exact search and
  /// kExhaustivePower) fan work units out to connected workers — with
  /// results bit-identical to a local run, so this is excluded from the
  /// session's stage-invalidation equality like the thread counts are.
  /// Min-area search always runs locally.
  dist::DistSearchOptions dist;
};

/// Whether kMinPower searches all 2^P assignments exactly before §4.1 (which
/// it falls back to when the node budget trips):
/// 0 < P ≤ min(exhaustive_pos_limit, kMaxExhaustiveOutputs).
[[nodiscard]] bool min_power_searches_exactly(const FlowOptions& options,
                                              std::size_t num_pos) noexcept;

struct FlowReport {
  std::string circuit;
  PhaseMode mode = PhaseMode::kMinPower;
  std::size_t pis = 0, pos = 0, latches = 0;

  std::size_t synth_gates = 0;   ///< 2-input gates before phase assignment
  std::size_t block_gates = 0;   ///< domino gate instances after assignment
  std::size_t boundary_inverters = 0;
  std::size_t cells = 0;         ///< mapped standard cells (the "Size" column)
  double area = 0.0;             ///< mapped area units

  double est_power = 0.0;        ///< §4.2 analytic estimate (switching units)
  double sim_power = 0.0;        ///< simulated total (the "Pwr" column)
  PowerBreakdown sim_breakdown;

  double critical_delay = 0.0;   ///< post-mapping (post-resize) critical path
  bool timing_met = true;
  std::size_t resize_moves = 0;

  PhaseAssignment assignment;
  std::size_t negative_outputs = 0;
  /// The assign stage's work counters (DOMINOSYN_SEARCH_COUNTERS).
  SearchCounters search;
  bool used_exact_bdd = true;
  bool equivalence_ok = true;
  double seconds = 0.0;
};

/// Runs the full flow on a synthesized network.  The input is copied; it is
/// normalized via standard_synthesis if not already in 2-input AND/OR/NOT
/// form.  Throws on structural errors.
///
/// This is a thin compatibility wrapper over a one-shot FlowSession
/// (flow/session.hpp).  To compare several modes or clock targets on one
/// circuit without re-running synthesis, sequential partitioning, BDD
/// probability extraction and the EvalContext build per call, hold a
/// FlowSession and use its staged entry points — or run_flow_batch
/// (flow/batch.hpp) for whole sweeps.
[[nodiscard]] FlowReport run_flow(const Network& input, const FlowOptions& options);

/// Checks combinational equivalence of two networks with identical PI/latch
/// interfaces by 64-way random simulation (`words` words = 64*words vectors).
[[nodiscard]] bool random_equivalent(const Network& a, const Network& b,
                                     std::size_t words = 64,
                                     std::uint64_t seed = 99);

}  // namespace dominosyn
