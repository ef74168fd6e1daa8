/// \file netbdd.hpp
/// Bridges the logic network to the BDD package: builds one BDD per network
/// node under a chosen variable ordering and evaluates exact signal
/// probabilities (the paper's §4.2 power-computation core).

#pragma once

#include <memory>
#include <span>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/order.hpp"
#include "network/network.hpp"

namespace dominosyn {

/// Per-node global BDDs of a network.  The manager is owned here; node_funcs
/// handles keep all intermediate functions alive, so gc() is a no-op until
/// this struct is destroyed.
struct NetworkBdds {
  std::unique_ptr<BddManager> mgr;
  VariableOrder order;
  std::vector<Bdd> node_funcs;  ///< indexed by NodeId
};

/// Builds BDDs for every node reachable from the combinational roots.
/// Latch outputs are treated as free variables (the post-partitioning view).
/// Throws BddLimitExceeded if the build exhausts the manager's work budget
/// (kBddWorkBudget).
[[nodiscard]] NetworkBdds build_bdds(const Network& net, const VariableOrder& order);

/// Exact per-node signal probabilities given independent source
/// probabilities.  `pi_probs[i]` belongs to net.pis()[i] and
/// `latch_probs[i]` to net.latches()[i]; pass an empty latch span to default
/// latches to 0.5.  Returns one probability per NodeId (dead nodes get 0).
[[nodiscard]] std::vector<double> exact_signal_probabilities(
    const Network& net, const NetworkBdds& bdds, std::span<const double> pi_probs,
    std::span<const double> latch_probs = {});

/// Correlation-ignoring propagation (the classic fast estimate): AND multiplies,
/// OR inverts-multiplies-inverts, NOT complements, XOR folds pairwise.  Used as
/// the fallback when BDDs exceed their work budget, and as a cross-check.
[[nodiscard]] std::vector<double> approx_signal_probabilities(
    const Network& net, std::span<const double> pi_probs,
    std::span<const double> latch_probs = {});

/// Robust entry point: exact when the BDD build fits the work budget,
/// approximate otherwise.  `used_exact`, if non-null, reports which path was
/// taken.
[[nodiscard]] std::vector<double> signal_probabilities(
    const Network& net, std::span<const double> pi_probs,
    std::span<const double> latch_probs = {},
    OrderingKind ordering = OrderingKind::kReverseTopological,
    bool* used_exact = nullptr);

}  // namespace dominosyn
