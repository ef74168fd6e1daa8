/// \file assignment.hpp
/// Output phase assignment for domino synthesis (paper §3).
///
/// A phase assignment chooses, for every primary output, whether the
/// inverter-free domino block computes the function itself (*positive* phase)
/// or its complement with a static inverter at the output boundary
/// (*negative* phase).  Internal inverters are pushed to the inputs with
/// DeMorgan's law; a node required in both polarities is implemented twice
/// ("trapped inverter" duplication, Fig. 4).
///
/// The AssignmentEvaluator computes, for any candidate assignment and without
/// materializing the rewritten network, the exact gate-instance demand and
/// the power estimate of §4.2 — using Property 4.1: the dual (DeMorgan)
/// implementation of a node with signal probability p has probability 1-p.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "network/network.hpp"
#include "power/power.hpp"

namespace dominosyn {

class EvalContext;  // phase/eval.hpp: the shared incremental-evaluation core

enum class Phase : std::uint8_t {
  kPositive,  ///< no inverter at the output boundary
  kNegative,  ///< static inverter at the output boundary
};

/// One phase per primary output (indexed like Network::pos()).
using PhaseAssignment = std::vector<Phase>;

/// All-positive assignment for `net` (the customary starting point).
[[nodiscard]] PhaseAssignment all_positive(const Network& net);

/// Polarity each node must be implemented in, as demanded by an assignment.
struct PolarityDemand {
  /// Bit 0: positive implementation required; bit 1: negative required.
  std::vector<std::uint8_t> bits;

  static constexpr std::uint8_t kPos = 1;
  static constexpr std::uint8_t kNeg = 2;

  [[nodiscard]] bool needs_pos(NodeId id) const { return (bits[id] & kPos) != 0; }
  [[nodiscard]] bool needs_neg(NodeId id) const { return (bits[id] & kNeg) != 0; }
};

/// Demand propagation only: the polarities `phases` requires of each node of
/// `net` (2-input AND/OR plus NOT).  A structural walk from the PO and latch
/// roots, so it needs no signal probabilities and no evaluator.
[[nodiscard]] PolarityDemand polarity_demand(const Network& net,
                                             const PhaseAssignment& phases);

/// Cost summary of a candidate assignment.
struct AssignmentCost {
  PowerBreakdown power;
  std::size_t domino_gates = 0;     ///< AND/OR instances in the block
  std::size_t duplicated_gates = 0; ///< nodes implemented in both polarities
  std::size_t input_inverters = 0;  ///< static inverters at PI/latch boundary
  std::size_t output_inverters = 0; ///< static inverters at PO boundary

  /// Standard-cell count, the "Size" column of Tables 1-2 (pre-mapping proxy).
  [[nodiscard]] std::size_t area_cells() const noexcept {
    return domino_gates + input_inverters + output_inverters;
  }
};

/// Requirements for the input network: 2-input AND/OR plus NOT (run
/// standard_synthesis first).  Throws std::runtime_error otherwise.
void check_phase_ready(const Network& net);

/// Full per-assignment evaluation: demand propagation + power estimate in
/// O(nodes) per call, with signal probabilities computed once up front.
///
/// Internally this is a thin wrapper over the incremental engine of
/// phase/eval.hpp: the constructor builds a shared EvalContext and
/// evaluate() scores an assignment by constructing a fresh EvalState from
/// it.  Searches that explore neighboring assignments should grab context()
/// and use EvalState::apply_flip/undo directly — O(|cone|) per move with
/// results bit-identical to evaluate().
class AssignmentEvaluator {
 public:
  /// \param net        the synthesized network (kept by reference).
  /// \param node_probs per-NodeId signal probabilities of `net` (positive
  ///                   polarity); from exact/sequential estimation.
  AssignmentEvaluator(const Network& net, std::vector<double> node_probs,
                      PowerModelConfig config = {});

  [[nodiscard]] const Network& network() const noexcept;
  [[nodiscard]] const std::vector<double>& probs() const noexcept;
  [[nodiscard]] const PowerModelConfig& config() const noexcept;

  /// The shared immutable evaluation core (never null).  Safe to use from
  /// multiple threads concurrently.
  [[nodiscard]] const std::shared_ptr<const EvalContext>& context() const noexcept {
    return ctx_;
  }

  /// Full cost of an assignment.
  [[nodiscard]] AssignmentCost evaluate(const PhaseAssignment& phases) const;

  /// Per-output average instance signal probability A_i of the paper (§4.1):
  /// the mean switching probability of the AND/OR gate instances implementing
  /// output i under `phases` (a node demanded in both polarities inside one
  /// cone contributes both instances).
  ///
  /// Convention: an output whose cone contains *no* AND/OR instance — a
  /// direct PI/latch/constant wire, or a buffer/NOT-only chain (inverters are
  /// absorbed into the boundary, so such a cone realizes zero domino gates) —
  /// reports A_i = 0.5.  The neutral value keeps the §4.1 cost function
  /// K = |Di|·Ai + |Dj|·Aj + ½·O(i,j)·(Ai+Aj) well-defined without biasing
  /// pair selection: |Di| = 0 multiplies the average away, and Property 4.1
  /// maps 0.5 to itself, so both phases of a gate-free output score
  /// identically.  EvalState::cone_average_probs() (phase/eval.hpp) follows
  /// the same convention bit for bit.
  ///
  /// This is the from-scratch reference walk, O(Σ|cone|) per call; searches
  /// should read the maintained EvalState::cone_average_probs() instead.
  [[nodiscard]] std::vector<double> cone_average_probs(
      const PhaseAssignment& phases) const;

 private:
  std::shared_ptr<const EvalContext> ctx_;
};

/// Materialized inverter-free realization of an assignment.
struct DominoSynthesisResult {
  Network net;  ///< domino block + boundary inverters, functionally equivalent
  /// New-network ids of each original node's implementations (kNullNode if
  /// that polarity was not required).
  std::vector<NodeId> pos_impl;
  std::vector<NodeId> neg_impl;
};

/// Rewrites `net` under `phases` into an inverter-free domino block with
/// static inverters only at the boundaries.  The result satisfies
/// classify_domino_roles() and is combinationally equivalent to `net`.
[[nodiscard]] DominoSynthesisResult synthesize_domino(const Network& net,
                                                      const PhaseAssignment& phases);

}  // namespace dominosyn
