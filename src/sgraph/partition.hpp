/// \file partition.hpp
/// Sequential-to-combinational partitioning for signal-probability
/// computation (paper §4.2.1, Fig. 7).
///
/// The MFVS latches are cut: their outputs become pseudo primary inputs with
/// an assumed probability (0.5 by default).  The remaining latches form an
/// acyclic dependency graph, so their probabilities are computed in s-graph
/// topological order: P(latch) = P(next-state function) of the previous
/// cycle, evaluated with the already-known latch probabilities.  Optional
/// fixpoint sweeps refine the cut-latch probabilities as well.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bdd/netbdd.hpp"
#include "network/network.hpp"
#include "sgraph/mfvs.hpp"

namespace dominosyn {

struct SeqProbOptions {
  MfvsOptions mfvs;
  double cut_latch_prob = 0.5;      ///< prior for cut pseudo-PIs
  unsigned fixpoint_sweeps = 0;     ///< extra sweeps refining cut latches too
  OrderingKind ordering = OrderingKind::kReverseTopological;
};

struct SeqProbResult {
  std::vector<double> node_probs;        ///< per NodeId signal probability
  std::vector<double> latch_probs;       ///< per latch index (steady estimate)
  std::vector<std::uint32_t> cut_latches;///< latch indices cut by the MFVS
  std::size_t sgraph_edges = 0;
  std::size_t symmetry_merges = 0;
  /// false = the BDD build exhausted its work budget (kBddWorkBudget) and
  /// the probabilities come from the independence approximation.
  bool used_exact_bdd = true;
};

/// Computes per-node signal probabilities of a (possibly sequential)
/// network.  For purely combinational networks this reduces to
/// exact/approximate signal_probabilities().
[[nodiscard]] SeqProbResult sequential_signal_probabilities(
    const Network& net, std::span<const double> pi_probs,
    const SeqProbOptions& options = {});

}  // namespace dominosyn
