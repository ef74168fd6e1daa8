#include "sgraph/partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace dominosyn {

namespace {

/// One probability sweep over the latches in `latch_order` using exact BDD
/// evaluation: updates latch_probs in place.
void sweep_exact(const Network& net, const NetworkBdds& bdds,
                 std::span<const double> pi_probs,
                 std::span<const std::uint32_t> latch_order,
                 std::vector<double>& latch_probs) {
  std::vector<double> var_probs(bdds.order.num_vars(), 0.5);
  for (std::size_t i = 0; i < net.num_pis(); ++i)
    var_probs[bdds.order.level_of.at(net.pis()[i])] = pi_probs[i];
  for (std::size_t i = 0; i < net.num_latches(); ++i)
    var_probs[bdds.order.level_of.at(net.latches()[i].output)] = latch_probs[i];

  for (const std::uint32_t k : latch_order) {
    const NodeId input = net.latches()[k].input;
    latch_probs[k] = bdds.mgr->prob(bdds.node_funcs.at(input), var_probs);
    var_probs[bdds.order.level_of.at(net.latches()[k].output)] = latch_probs[k];
  }
}

/// Approximate counterpart using correlation-ignoring propagation.
void sweep_approx(const Network& net, std::span<const double> pi_probs,
                  std::span<const std::uint32_t> latch_order,
                  std::vector<double>& latch_probs) {
  for (const std::uint32_t k : latch_order) {
    const auto probs = approx_signal_probabilities(net, pi_probs, latch_probs);
    latch_probs[k] = probs[net.latches()[k].input];
  }
}

}  // namespace

SeqProbResult sequential_signal_probabilities(const Network& net,
                                              std::span<const double> pi_probs,
                                              const SeqProbOptions& options) {
  SeqProbResult result;
  if (pi_probs.size() != net.num_pis())
    throw std::runtime_error("sequential_signal_probabilities: PI prob count mismatch");

  const std::size_t num_latches = net.num_latches();
  result.latch_probs.assign(num_latches, options.cut_latch_prob);

  // Combinational case: no partitioning needed.
  std::vector<std::uint32_t> latch_order;  // non-cut latches, dependency order
  if (num_latches > 0) {
    const SGraph sgraph = SGraph::from_network(net);
    result.sgraph_edges = sgraph.num_edges();
    const MfvsResult mfvs = mfvs_heuristic(sgraph, options.mfvs);
    result.cut_latches = mfvs.fvs;
    result.symmetry_merges = mfvs.symmetry_merges;

    std::vector<bool> removed(num_latches, false);
    for (const std::uint32_t v : result.cut_latches) removed[v] = true;
    latch_order = sgraph.topo_order_without(removed);
  }

  // All-latch order for fixpoint sweeps (cut latches first, then dependents).
  std::vector<std::uint32_t> full_order = result.cut_latches;
  full_order.insert(full_order.end(), latch_order.begin(), latch_order.end());

  try {
    const auto order = compute_order(net, options.ordering);
    const auto bdds = build_bdds(net, order);
    sweep_exact(net, bdds, pi_probs, latch_order, result.latch_probs);
    for (unsigned sweep = 0; sweep < options.fixpoint_sweeps; ++sweep)
      sweep_exact(net, bdds, pi_probs, full_order, result.latch_probs);
    result.node_probs =
        exact_signal_probabilities(net, bdds, pi_probs, result.latch_probs);
    result.used_exact_bdd = true;
  } catch (const BddLimitExceeded&) {
    sweep_approx(net, pi_probs, latch_order, result.latch_probs);
    for (unsigned sweep = 0; sweep < options.fixpoint_sweeps; ++sweep)
      sweep_approx(net, pi_probs, full_order, result.latch_probs);
    result.node_probs =
        approx_signal_probabilities(net, pi_probs, result.latch_probs);
    result.used_exact_bdd = false;
  }
  return result;
}

}  // namespace dominosyn
