/// \file demand.cpp
/// Polarity-demand propagation and the full per-assignment cost evaluator.
///
/// AssignmentEvaluator::evaluate() is implemented as a fresh EvalState build
/// (phase/eval.hpp), which makes it bit-identical to the incremental engine
/// by construction.  polarity_demand() keeps the original stack-walk
/// implementation — an independent code path that the engine's
/// refcount-derived demand is cross-checked against in tests.

#include <stdexcept>

#include "phase/assignment.hpp"
#include "phase/eval.hpp"

namespace dominosyn {

PhaseAssignment all_positive(const Network& net) {
  return PhaseAssignment(net.num_pos(), Phase::kPositive);
}

void check_phase_ready(const Network& net) {
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    switch (net.kind(id)) {
      case NodeKind::kXor:
        throw std::runtime_error("phase assignment: XOR present; run standard_synthesis");
      case NodeKind::kAnd:
      case NodeKind::kOr:
        if (net.fanins(id).size() != 2)
          throw std::runtime_error(
              "phase assignment: gates must be 2-input; run decompose_binary");
        break;
      default:
        break;
    }
  }
}

AssignmentEvaluator::AssignmentEvaluator(const Network& net,
                                         std::vector<double> node_probs,
                                         PowerModelConfig config)
    : ctx_(std::make_shared<const EvalContext>(net, std::move(node_probs),
                                               config)) {}

const Network& AssignmentEvaluator::network() const noexcept {
  return ctx_->network();
}

const std::vector<double>& AssignmentEvaluator::probs() const noexcept {
  return ctx_->probs();
}

const PowerModelConfig& AssignmentEvaluator::config() const noexcept {
  return ctx_->config();
}

PolarityDemand polarity_demand(const Network& net, const PhaseAssignment& phases) {
  if (phases.size() != net.num_pos())
    throw std::runtime_error("demand: assignment size mismatch");

  PolarityDemand result;
  result.bits.assign(net.num_nodes(), 0);

  std::vector<std::pair<NodeId, bool>> stack;
  const auto push = [&](NodeId id, bool negated) {
    const auto [node, pol] = resolve_not_chain(net, id, negated);
    const std::uint8_t bit = pol ? PolarityDemand::kNeg : PolarityDemand::kPos;
    if ((result.bits[node] & bit) != 0) return;
    result.bits[node] |= bit;
    if (is_gate_kind(net.kind(node))) stack.emplace_back(node, pol);
  };

  // PO roots.  Degenerate source-resolved outputs are folded into the input
  // boundary: a negative-phase PO whose complement resolves to !s needs no
  // cell at all (PO = s), and one resolving to s needs exactly the shared
  // input inverter of s (PO = !s).  See synthesize.cpp for the wiring.
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const bool negative = phases[i] == Phase::kNegative;
    const auto [node, pol] = resolve_not_chain(net, net.pos()[i].driver, negative);
    if (negative && is_source_kind(net.kind(node))) {
      if (!pol) push(node, true);  // PO = !s: demand the boundary inverter
      continue;                    // PO = s: direct wire
    }
    push(node, pol);
  }
  for (const auto& latch : net.latches()) push(latch.input, false);

  while (!stack.empty()) {
    const auto [node, pol] = stack.back();
    stack.pop_back();
    // AND/OR propagate their own polarity to fanins (a negative AND becomes
    // an OR of negative fanins and vice versa — DeMorgan).
    for (const NodeId f : net.fanins(node)) push(f, pol);
  }
  return result;
}

AssignmentCost AssignmentEvaluator::evaluate(const PhaseAssignment& phases) const {
  if (phases.size() != ctx_->num_outputs())
    throw std::runtime_error("evaluate: assignment size mismatch");
  return EvalState(ctx_, phases).cost();
}

std::vector<double> AssignmentEvaluator::cone_average_probs(
    const PhaseAssignment& phases) const {
  const Network& net = ctx_->network();
  const std::vector<double>& probs = ctx_->probs();
  if (phases.size() != net.num_pos())
    throw std::runtime_error("cone_average_probs: assignment size mismatch");

  std::vector<double> result(phases.size(), 0.5);
  // Scratch visit flags, 2 bits per node, reset per output.
  std::vector<std::uint8_t> visited(net.num_nodes(), 0);
  std::vector<std::pair<NodeId, bool>> stack;
  std::vector<NodeId> touched;

  for (std::size_t i = 0; i < phases.size(); ++i) {
    double sum = 0.0;
    std::size_t count = 0;
    const auto push = [&](NodeId id, bool negated) {
      const auto [node, pol] = resolve_not_chain(net, id, negated);
      const std::uint8_t bit = pol ? 2 : 1;
      if ((visited[node] & bit) != 0) return;
      visited[node] |= bit;
      touched.push_back(node);
      const NodeKind kind = net.kind(node);
      if (kind == NodeKind::kAnd || kind == NodeKind::kOr) {
        sum += pol ? 1.0 - probs[node] : probs[node];
        ++count;
        stack.emplace_back(node, pol);
      }
    };
    push(net.pos()[i].driver, phases[i] == Phase::kNegative);
    while (!stack.empty()) {
      const auto [node, pol] = stack.back();
      stack.pop_back();
      for (const NodeId f : net.fanins(node)) push(f, pol);
    }
    if (count > 0) result[i] = sum / static_cast<double>(count);
    for (const NodeId id : touched) visited[id] = 0;
    touched.clear();
  }
  return result;
}

}  // namespace dominosyn
