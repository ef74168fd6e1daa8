#include "bdd/netbdd.hpp"

#include <stdexcept>

namespace dominosyn {

NetworkBdds build_bdds(const Network& net, const VariableOrder& order) {
  NetworkBdds result;
  result.order = order;
  result.mgr = std::make_unique<BddManager>(order.num_vars());
  BddManager& mgr = *result.mgr;

  result.node_funcs.assign(net.num_nodes(), Bdd{});
  result.node_funcs[Network::const0()] = mgr.bdd_false();
  result.node_funcs[Network::const1()] = mgr.bdd_true();
  for (const NodeId src : net.pis())
    result.node_funcs[src] = mgr.var(order.level_of.at(src));
  for (const auto& latch : net.latches())
    result.node_funcs[latch.output] = mgr.var(order.level_of.at(latch.output));

  for (const NodeId id : net.topo_order()) {
    const auto& node = net.node(id);
    if (!is_gate_kind(node.kind)) continue;
    Bdd acc;
    switch (node.kind) {
      case NodeKind::kAnd: {
        acc = mgr.bdd_true();
        for (const NodeId f : node.fanins) acc = acc & result.node_funcs[f];
        break;
      }
      case NodeKind::kOr: {
        acc = mgr.bdd_false();
        for (const NodeId f : node.fanins) acc = acc | result.node_funcs[f];
        break;
      }
      case NodeKind::kXor: {
        acc = mgr.bdd_false();
        for (const NodeId f : node.fanins) acc = acc ^ result.node_funcs[f];
        break;
      }
      case NodeKind::kNot:
        acc = !result.node_funcs[node.fanins[0]];
        break;
      default:
        break;
    }
    result.node_funcs[id] = std::move(acc);
  }
  return result;
}

std::vector<double> exact_signal_probabilities(const Network& net,
                                               const NetworkBdds& bdds,
                                               std::span<const double> pi_probs,
                                               std::span<const double> latch_probs) {
  if (pi_probs.size() != net.num_pis())
    throw std::runtime_error("exact_signal_probabilities: PI prob count mismatch");
  if (!latch_probs.empty() && latch_probs.size() != net.num_latches())
    throw std::runtime_error("exact_signal_probabilities: latch prob count mismatch");

  std::vector<double> var_probs(bdds.order.num_vars(), 0.5);
  for (std::size_t i = 0; i < net.num_pis(); ++i)
    var_probs[bdds.order.level_of.at(net.pis()[i])] = pi_probs[i];
  for (std::size_t i = 0; i < net.num_latches(); ++i)
    var_probs[bdds.order.level_of.at(net.latches()[i].output)] =
        latch_probs.empty() ? 0.5 : latch_probs[i];

  std::vector<double> result(net.num_nodes(), 0.0);
  // Shared memo across all nodes via prob_many.
  std::vector<Bdd> funcs;
  std::vector<NodeId> ids;
  funcs.reserve(net.num_nodes());
  for (NodeId id = 0; id < net.num_nodes(); ++id)
    if (bdds.node_funcs[id].valid()) {
      funcs.push_back(bdds.node_funcs[id]);
      ids.push_back(id);
    }
  const auto probs = bdds.mgr->prob_many(funcs, var_probs);
  for (std::size_t i = 0; i < ids.size(); ++i) result[ids[i]] = probs[i];
  return result;
}

std::vector<double> approx_signal_probabilities(const Network& net,
                                                std::span<const double> pi_probs,
                                                std::span<const double> latch_probs) {
  if (pi_probs.size() != net.num_pis())
    throw std::runtime_error("approx_signal_probabilities: PI prob count mismatch");
  std::vector<double> prob(net.num_nodes(), 0.0);
  prob[Network::const1()] = 1.0;
  for (std::size_t i = 0; i < net.num_pis(); ++i) prob[net.pis()[i]] = pi_probs[i];
  for (std::size_t i = 0; i < net.num_latches(); ++i)
    prob[net.latches()[i].output] = latch_probs.empty() ? 0.5 : latch_probs[i];

  for (const NodeId id : net.topo_order()) {
    const auto& node = net.node(id);
    switch (node.kind) {
      case NodeKind::kAnd: {
        double p = 1.0;
        for (const NodeId f : node.fanins) p *= prob[f];
        prob[id] = p;
        break;
      }
      case NodeKind::kOr: {
        double q = 1.0;
        for (const NodeId f : node.fanins) q *= 1.0 - prob[f];
        prob[id] = 1.0 - q;
        break;
      }
      case NodeKind::kXor: {
        double p = 0.0;
        for (const NodeId f : node.fanins)
          p = p * (1.0 - prob[f]) + (1.0 - p) * prob[f];
        prob[id] = p;
        break;
      }
      case NodeKind::kNot:
        prob[id] = 1.0 - prob[node.fanins[0]];
        break;
      default:
        break;
    }
  }
  return prob;
}

std::vector<double> signal_probabilities(const Network& net,
                                         std::span<const double> pi_probs,
                                         std::span<const double> latch_probs,
                                         OrderingKind ordering,
                                         bool* used_exact) {
  try {
    const auto order = compute_order(net, ordering);
    const auto bdds = build_bdds(net, order);
    if (used_exact != nullptr) *used_exact = true;
    return exact_signal_probabilities(net, bdds, pi_probs, latch_probs);
  } catch (const BddLimitExceeded&) {
    if (used_exact != nullptr) *used_exact = false;
    return approx_signal_probabilities(net, pi_probs, latch_probs);
  }
}

}  // namespace dominosyn
