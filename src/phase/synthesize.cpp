/// \file synthesize.cpp
/// Materializes the inverter-free domino realization of a phase assignment:
/// the constructive counterpart of the demand walk (Figs. 3 and 4 of the
/// paper).  Negative instances are DeMorgan duals over complemented inputs;
/// static inverters appear only at the PI/latch and PO boundaries.

#include <map>
#include <stdexcept>

#include "phase/assignment.hpp"

namespace dominosyn {

namespace {

std::pair<NodeId, bool> resolve(const Network& net, NodeId id, bool negated) {
  while (net.kind(id) == NodeKind::kNot) {
    negated = !negated;
    id = net.fanins(id)[0];
  }
  return {id, negated};
}

}  // namespace

DominoSynthesisResult synthesize_domino(const Network& net,
                                        const PhaseAssignment& phases) {
  check_phase_ready(net);
  if (phases.size() != net.num_pos())
    throw std::runtime_error("synthesize_domino: assignment size mismatch");

  // Compute what is needed first so we only build required instances.
  const PolarityDemand dem = polarity_demand(net, phases);

  DominoSynthesisResult result;
  Network& out = result.net;
  out.set_name(net.name() + "_domino");
  result.pos_impl.assign(net.num_nodes(), kNullNode);
  result.neg_impl.assign(net.num_nodes(), kNullNode);

  result.pos_impl[Network::const0()] = Network::const0();
  result.neg_impl[Network::const0()] = Network::const1();
  result.pos_impl[Network::const1()] = Network::const1();
  result.neg_impl[Network::const1()] = Network::const0();

  for (const NodeId pi : net.pis())
    result.pos_impl[pi] = out.add_pi(net.node_name(pi).value_or("pi"));
  for (const auto& latch : net.latches())
    result.pos_impl[latch.output] = out.add_latch(latch.name, latch.init);

  // Shared boundary inverter for a source required in negative polarity.
  const auto neg_source = [&](NodeId src) -> NodeId {
    if (result.neg_impl[src] == kNullNode)
      result.neg_impl[src] = out.add_not(result.pos_impl[src]);
    return result.neg_impl[src];
  };

  // Implementation of (id, negated) — follows NOT chains, then picks the
  // matching polarity instance (creating source inverters on demand).
  const auto impl = [&](NodeId id, bool negated) -> NodeId {
    const auto [node, pol] = resolve(net, id, negated);
    if (!pol) {
      if (result.pos_impl[node] == kNullNode)
        throw std::runtime_error("synthesize_domino: missing positive instance");
      return result.pos_impl[node];
    }
    if (is_source_kind(net.kind(node))) return neg_source(node);
    if (result.neg_impl[node] == kNullNode)
      throw std::runtime_error("synthesize_domino: missing negative instance");
    return result.neg_impl[node];
  };

  for (const NodeId id : net.topo_order()) {
    const NodeKind kind = net.kind(id);
    if (kind != NodeKind::kAnd && kind != NodeKind::kOr) continue;
    if (dem.needs_pos(id)) {
      const NodeId a = impl(net.fanins(id)[0], false);
      const NodeId b = impl(net.fanins(id)[1], false);
      result.pos_impl[id] =
          kind == NodeKind::kAnd ? out.add_and(a, b) : out.add_or(a, b);
    }
    if (dem.needs_neg(id)) {
      // DeMorgan dual: !(a & b) = !a | !b and !(a | b) = !a & !b.
      const NodeId a = impl(net.fanins(id)[0], true);
      const NodeId b = impl(net.fanins(id)[1], true);
      result.neg_impl[id] =
          kind == NodeKind::kAnd ? out.add_or(a, b) : out.add_and(a, b);
    }
  }

  // Primary outputs.  Negative phase: static inverter over the complement
  // implementation, shared between outputs resolving to the same instance.
  // Source-resolved negative outputs fold into the input boundary, matching
  // polarity_demand(): PO = NOT(!s) is a direct wire to s, and
  // PO = NOT(s) is the shared input inverter of s.
  std::map<std::pair<NodeId, bool>, NodeId> output_inverters;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& po = net.pos()[i];
    if (phases[i] == Phase::kPositive) {
      out.add_po(po.name, impl(po.driver, false));
      continue;
    }
    const auto [node, pol] = resolve(net, po.driver, true);
    if (node <= Network::const1()) {
      // B = pol ? !c : c is constant; the PO is the complement constant.
      const bool block_value = (node == Network::const1()) != pol;
      out.add_po(po.name, block_value ? Network::const0() : Network::const1());
      continue;
    }
    if (is_source_kind(net.kind(node))) {
      out.add_po(po.name, pol ? result.pos_impl[node] : neg_source(node));
      continue;
    }
    const auto key = std::make_pair(node, pol);
    const auto it = output_inverters.find(key);
    NodeId inv;
    if (it != output_inverters.end()) {
      inv = it->second;
    } else {
      inv = out.add_not(impl(node, pol));
      output_inverters.emplace(key, inv);
    }
    out.add_po(po.name, inv);
  }

  for (std::size_t i = 0; i < net.latches().size(); ++i)
    out.set_latch_input(out.latches()[i].output,
                        impl(net.latches()[i].input, false));

  out.validate();
  return result;
}

}  // namespace dominosyn
