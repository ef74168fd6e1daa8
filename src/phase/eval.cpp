/// \file eval.cpp
/// Incremental phase-evaluation engine: EvalContext + EvalState.

#include "phase/eval.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dominosyn {

std::pair<NodeId, bool> resolve_not_chain(const Network& net, NodeId id,
                                          bool negated) {
  while (net.kind(id) == NodeKind::kNot) {
    negated = !negated;
    id = net.fanins(id)[0];
  }
  return {id, negated};
}

EvalContext::EvalContext(const Network& net, std::vector<double> node_probs,
                         PowerModelConfig config)
    : net_(&net), probs_(std::move(node_probs)), config_(config) {
  if (probs_.size() != net.num_nodes())
    throw std::runtime_error("EvalContext: prob count mismatch");
  check_phase_ready(net);
  topo_ = net.topo_order();

  const std::size_t n = net.num_nodes();
  kinds_.resize(n);
  inst_prob_.resize(n * 2);
  for (NodeId id = 0; id < n; ++id) {
    kinds_[id] = net.kind(id);
    inst_prob_[instance_key(id, false)] = probs_[id];
    inst_prob_[instance_key(id, true)] = 1.0 - probs_[id];  // Property 4.1
  }

  // CSR of NOT-resolved gate fanin edges.
  edge_begin_.assign(n + 1, 0);
  for (NodeId id = 0; id < n; ++id) {
    if (kinds_[id] == NodeKind::kAnd || kinds_[id] == NodeKind::kOr)
      edge_begin_[id + 1] =
          static_cast<std::uint32_t>(net.fanins(id).size());
  }
  for (std::size_t i = 1; i <= n; ++i) edge_begin_[i] += edge_begin_[i - 1];
  edges_.resize(edge_begin_[n]);
  for (NodeId id = 0; id < n; ++id) {
    if (kinds_[id] != NodeKind::kAnd && kinds_[id] != NodeKind::kOr) continue;
    std::uint32_t slot = edge_begin_[id];
    for (const NodeId f : net.fanins(id)) {
      const auto [term, parity] = resolve_not_chain(net, f, false);
      edges_[slot++] = instance_key(term, parity);
    }
  }

  po_roots_.reserve(net.num_pos());
  for (const auto& po : net.pos()) {
    const auto [node, parity] = resolve_not_chain(net, po.driver, false);
    po_roots_.push_back({node, parity});
  }
  latch_roots_.reserve(net.num_latches());
  for (const auto& latch : net.latches()) {
    const auto [node, parity] = resolve_not_chain(net, latch.input, false);
    latch_roots_.push_back({node, parity});
  }

  build_cone_index();
  build_bound_index();
}

void EvalContext::build_cone_index() {
  // Per-output cone instance lists + both-phase averages.  The walk mirrors
  // AssignmentEvaluator::cone_average_probs exactly — same DFS structure,
  // same per-(node, polarity) visited set, same discovery order — so the
  // sums below reproduce its floating-point results bit for bit.  The
  // negative-phase walk of the same output visits the identical node
  // sequence with every polarity flipped (the initial parity flips, and
  // each edge XORs the propagated polarity either way), which is why one
  // positive-phase list and a key^1 re-read cover both phases.
  const std::size_t n = kinds_.size();
  const std::size_t num_pos = po_roots_.size();
  cone_begin_.assign(num_pos + 1, 0);
  cone_avg_.assign(num_pos * 2, 0.5);
  std::vector<std::uint8_t> visited(n, 0);  // bit 1: pos seen, 2: neg, 4: node recorded
  std::vector<InstanceKey> stack;
  std::vector<NodeId> touched;
  std::vector<std::uint32_t> node_outputs_count(n + 1, 0);
  std::vector<std::pair<NodeId, std::uint32_t>> membership;  // (node, output)

  for (std::size_t i = 0; i < num_pos; ++i) {
    const auto record = [&](InstanceKey key) {
      const NodeId node = key >> 1;
      const std::uint8_t bit = (key & 1) != 0 ? 2 : 1;
      if ((visited[node] & bit) != 0) return;
      if (visited[node] == 0) touched.push_back(node);
      visited[node] |= bit;
      const NodeKind kind = kinds_[node];
      if (kind == NodeKind::kAnd || kind == NodeKind::kOr) {
        cone_insts_.push_back(key);
        if ((visited[node] & 4) == 0) {
          visited[node] |= 4;
          membership.emplace_back(node, static_cast<std::uint32_t>(i));
        }
        stack.push_back(key);
      }
    };
    record(instance_key(po_roots_[i].node, po_roots_[i].parity));
    while (!stack.empty()) {
      const InstanceKey key = stack.back();
      stack.pop_back();
      const std::uint32_t pol = key & 1;
      for (const InstanceKey edge : gate_edges(key >> 1)) record(edge ^ pol);
    }
    for (const NodeId id : touched) visited[id] = 0;
    touched.clear();
    cone_begin_[i + 1] = static_cast<std::uint32_t>(cone_insts_.size());

    const std::size_t count = cone_begin_[i + 1] - cone_begin_[i];
    if (count > 0) {
      // Left-to-right accumulation in discovery order, matching the
      // reference walk; the negative sum reads the Property 4.1 duals.
      double sum_pos = 0.0, sum_neg = 0.0;
      for (std::uint32_t at = cone_begin_[i]; at < cone_begin_[i + 1]; ++at) {
        sum_pos += inst_prob_[cone_insts_[at]];
        sum_neg += inst_prob_[cone_insts_[at] ^ 1u];
      }
      cone_avg_[i * 2] = sum_pos / static_cast<double>(count);
      cone_avg_[i * 2 + 1] = sum_neg / static_cast<double>(count);
    }
  }

  // Invert: node → outputs whose cone contains it (either polarity).
  // Iterating memberships in output order fills each node's slice ascending.
  for (const auto& [node, output] : membership) ++node_outputs_count[node + 1];
  cone_out_begin_.assign(n + 1, 0);
  for (std::size_t id = 1; id <= n; ++id)
    cone_out_begin_[id] = cone_out_begin_[id - 1] + node_outputs_count[id];
  cone_out_.resize(cone_out_begin_[n]);
  std::vector<std::uint32_t> slot(cone_out_begin_.begin(),
                                  cone_out_begin_.end() - 1);
  for (const auto& [node, output] : membership) cone_out_[slot[node]++] = output;
}

void EvalContext::build_bound_index() {
  // Admissible per-instance / per-output cost floors for the branch-and-bound
  // exhaustive search (docs/search.md).  Everything here must be a *lower*
  // bound on what the instance contributes whenever it is realized, under
  // any assignment — over-crediting would let the search prune the optimum.
  const std::size_t n = kinds_.size();
  const std::size_t keys = n * 2;
  const std::size_t num_pos = po_roots_.size();

  // (0) Is the model monotone at all?  Any negative coefficient lets a
  // realized leaf lower the cost, which voids both the partial-state prefix
  // anchor and every floor below; branch-and-bound callers check this flag
  // and fall back to full enumeration.
  bounds_admissible_ =
      config_.gate_cap >= 0.0 && config_.inverter_cap >= 0.0 &&
      config_.clock_cap_per_gate >= 0.0 &&
      config_.domino_driven_inverter_edges >= 0.0 &&
      config_.penalty.and_mult >= 0.0 && config_.penalty.or_mult >= 0.0 &&
      config_.penalty.and_add >= 0.0 && config_.penalty.or_add >= 0.0 &&
      (!config_.load_aware ||
       (config_.wire_cap >= 0.0 && config_.pin_cap >= 0.0 &&
        config_.po_cap >= 0.0));

  // (1) Latch next-state demand: the permanent ref cascade of EvalState's
  // constructor, as a per-instance mask.  Mirrors add_ref's DeMorgan edge
  // polarity rule exactly.
  latch_demand_.assign(keys, 0);
  {
    std::vector<InstanceKey> stack;
    const auto mark = [&](InstanceKey key) {
      if (latch_demand_[key] != 0) return;
      latch_demand_[key] = 1;
      stack.push_back(key);
    };
    for (const Resolved& root : latch_roots_)
      mark(instance_key(root.node, root.parity));
    while (!stack.empty()) {
      const InstanceKey k = stack.back();
      stack.pop_back();
      const NodeId node = k >> 1;
      const NodeKind kind = kinds_[node];
      if (kind != NodeKind::kAnd && kind != NodeKind::kOr) continue;
      const std::uint32_t pol = k & 1;
      for (const InstanceKey edge : gate_edges(node)) mark(edge ^ pol);
    }
  }

  gate_floor_.assign(keys, 0.0);
  inverter_floor_.assign(num_pos, 0.0);
  excl_power_.assign(num_pos * 2, 0.0);
  excl_area_.assign(num_pos * 2, 0);
  if (!bounds_admissible_) return;  // no positive floor is admissible

  // (2) Which instances can be realized pinless?  Only a positive-phase PO
  // root (demanded by the PO wire itself, loaded through po_refs); every
  // other realization arrives through a consuming pin — a gate fanin edge,
  // a latch input, or the shared output inverter of a negative PO.
  std::vector<std::uint8_t> maybe_pinless(keys, 0);
  for (const Resolved& root : po_roots_)
    maybe_pinless[instance_key(root.node, root.parity)] = 1;

  // (3) Per-instance power floor of a realized AND/OR instance.  With the
  // structural load model the minimal cap attaches one pin (or, for a
  // possible positive-phase root, one PO); without it the cap is the fixed
  // gate_cap, so the leaf value is exact.
  for (NodeId node = 0; node < n; ++node) {
    const NodeKind kind = kinds_[node];
    if (kind != NodeKind::kAnd && kind != NodeKind::kOr) continue;
    for (const bool neg : {false, true}) {
      const InstanceKey k = instance_key(node, neg);
      const bool instance_is_and = (kind == NodeKind::kAnd) != neg;
      const double mult = instance_is_and ? config_.penalty.and_mult
                                          : config_.penalty.or_mult;
      const double add = instance_is_and ? config_.penalty.and_add
                                         : config_.penalty.or_add;
      double cap = config_.gate_cap;
      if (config_.load_aware) {
        const double attach = maybe_pinless[k] != 0
                                  ? std::min(config_.pin_cap, config_.po_cap)
                                  : config_.pin_cap;
        cap = config_.wire_cap + attach;
      }
      gate_floor_[k] = domino_switching(inst_prob_[k]) * cap * mult + add +
                       config_.clock_cap_per_gate;
    }
  }

  // (4) Per-output PO-inverter floor: what the shared boundary inverter of a
  // negative-phase output contributes at its minimal load (one PO).
  std::vector<std::uint32_t> root_count(keys, 0);  // sharers per root instance
  for (std::size_t i = 0; i < num_pos; ++i) {
    const Resolved& root = po_roots_[i];
    if (root.node <= Network::const1() || is_source_kind(kinds_[root.node]))
      continue;
    ++root_count[instance_key(root.node, root.parity)];
    const InstanceKey driver = instance_key(root.node, !root.parity);
    const double cap = config_.load_aware
                           ? config_.wire_cap + config_.po_cap
                           : config_.inverter_cap;
    inverter_floor_[i] =
        config_.domino_driven_inverter_edges * inst_prob_[driver] * cap;
  }

  // (5) Exclusive per-output, per-phase bounds: floors of cone instances no
  // other output's cone contains (inverted-index size 1) and no latch
  // demands, plus the PO inverter when this output alone roots there.
  for (std::size_t i = 0; i < num_pos; ++i) {
    for (std::uint32_t at = cone_begin_[i]; at < cone_begin_[i + 1]; ++at) {
      const InstanceKey key = cone_insts_[at];
      const NodeId node = key >> 1;
      if (cone_out_begin_[node + 1] - cone_out_begin_[node] != 1) continue;
      for (const std::uint32_t neg : {0u, 1u}) {
        const InstanceKey k = key ^ neg;
        if (latch_demand_[k] != 0) continue;
        excl_power_[i * 2 + neg] += gate_floor_[k];
        excl_area_[i * 2 + neg] += 1;
      }
    }
    const Resolved& root = po_roots_[i];
    if (root.node > Network::const1() && !is_source_kind(kinds_[root.node]) &&
        root_count[instance_key(root.node, root.parity)] == 1) {
      excl_power_[i * 2 + 1] += inverter_floor_[i];
      excl_area_[i * 2 + 1] += 1;
    }
  }
}

EvalState::Leaf EvalState::combine(const Leaf& a, const Leaf& b) noexcept {
  return {a.domino + b.domino, a.input_inv + b.input_inv,
          a.output_inv + b.output_inv};
}

EvalState::EvalState(std::shared_ptr<const EvalContext> context,
                     const PhaseAssignment& phases)
    : EvalState(std::move(context), &phases) {}

EvalState::EvalState(std::shared_ptr<const EvalContext> context, AllUnassigned)
    : EvalState(std::move(context), nullptr) {}

EvalState::EvalState(std::shared_ptr<const EvalContext> context,
                     const PhaseAssignment* phases)
    : ctx_(std::move(context)) {
  if (!ctx_) throw std::runtime_error("EvalState: null context");
  const std::size_t num_outputs = ctx_->num_outputs();
  if (phases && phases->size() != num_outputs)
    throw std::runtime_error("EvalState: assignment size mismatch");
  phases_ = phases ? *phases
                   : PhaseAssignment(num_outputs, Phase::kPositive);
  assigned_.assign(num_outputs, phases ? 1 : 0);
  unassigned_ = phases ? 0 : num_outputs;

  const std::size_t keys = ctx_->num_instances();
  ref_.assign(keys, 0);
  pins_.assign(keys, 0);
  po_refs_.assign(keys, 0);
  po_inv_.assign(keys, 0);
  leaf_base_ = std::bit_ceil(std::max<std::size_t>(keys, 2));
  tree_.assign(leaf_base_ * 2, Leaf{});
  dirty_.assign(keys, 0);
  stale_.assign(leaf_base_, 0);

  // Latch next-state roots: permanent demand + one consuming pin each.
  for (const auto& root : ctx_->latch_roots()) {
    const InstanceKey key = instance_key(root.node, root.parity);
    touch_pin(key, true);
    add_ref(key);
  }
  if (phases)
    for (std::size_t i = 0; i < phases_.size(); ++i)
      add_output_refs(i, phases_[i]);
}

void EvalState::assign_output(std::size_t output, Phase phase) {
  if (output >= phases_.size())
    throw std::runtime_error("EvalState::assign_output: output out of range");
  if (assigned_[output] != 0)
    throw std::runtime_error("EvalState::assign_output: already assigned");
  assigned_[output] = 1;
  --unassigned_;
  phases_[output] = phase;
  add_output_refs(output, phase);
}

void EvalState::withdraw_output(std::size_t output) {
  if (output >= phases_.size())
    throw std::runtime_error("EvalState::withdraw_output: output out of range");
  if (assigned_[output] == 0)
    throw std::runtime_error("EvalState::withdraw_output: not assigned");
  assigned_[output] = 0;
  ++unassigned_;
  remove_output_refs(output, phases_[output]);
}

void EvalState::apply_flip(std::size_t output) {
  if (output >= phases_.size())
    throw std::runtime_error("EvalState::apply_flip: output out of range");
  if (assigned_[output] == 0)
    throw std::runtime_error("EvalState::apply_flip: output unassigned");
  const Phase old = phases_[output];
  const Phase flipped =
      old == Phase::kPositive ? Phase::kNegative : Phase::kPositive;
  phases_[output] = flipped;
  add_output_refs(output, flipped);
  remove_output_refs(output, old);
  history_.push_back(static_cast<std::uint32_t>(output));
}

void EvalState::undo() {
  if (history_.empty())
    throw std::runtime_error("EvalState::undo: empty history");
  const std::size_t output = history_.back();
  history_.pop_back();
  const Phase old = phases_[output];
  const Phase flipped =
      old == Phase::kPositive ? Phase::kNegative : Phase::kPositive;
  phases_[output] = flipped;
  add_output_refs(output, flipped);
  remove_output_refs(output, old);
}

void EvalState::set_assignment(const PhaseAssignment& phases) {
  if (phases.size() != phases_.size())
    throw std::runtime_error("EvalState::set_assignment: size mismatch");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (assigned_[i] == 0) {  // partial state: jumping assigns the output
      assigned_[i] = 1;
      --unassigned_;
      phases_[i] = phases[i];
      add_output_refs(i, phases[i]);
      continue;
    }
    if (phases[i] == phases_[i]) continue;
    phases_[i] = phases[i];
    add_output_refs(i, phases[i]);
    remove_output_refs(
        i, phases[i] == Phase::kPositive ? Phase::kNegative : Phase::kPositive);
  }
  history_.clear();
}

void EvalState::add_output_refs(std::size_t output, Phase phase) {
  const EvalContext::Resolved& root = ctx_->po_root(output);
  const bool negative = phase == Phase::kNegative;
  const NodeId node = root.node;
  const bool pol = root.parity != negative;
  const bool source = is_source_kind(ctx_->kind(node));

  // Demand: mirrors the PO-root folding of polarity_demand —
  // a negative-phase source-resolved output is either a direct wire (PO = s)
  // or the shared input inverter of s (PO = !s).
  if (negative && source) {
    if (!pol) add_ref(instance_key(node, true));
  } else {
    add_ref(instance_key(node, pol));
  }

  // Structural PO loads + the shared output inverter (mirrors evaluate()).
  if (node <= Network::const1()) return;
  if (!negative) {
    const InstanceKey key = instance_key(node, pol);
    ++po_refs_[key];
    if (ctx_->config().load_aware) mark_dirty(key);
  } else if (source) {
    if (!pol) {
      const InstanceKey key = instance_key(node, true);
      ++po_refs_[key];
      if (ctx_->config().load_aware) mark_dirty(key);
    }
  } else {
    const InstanceKey key = instance_key(node, pol);
    if (po_inv_[key]++ == 0) {
      ++output_inverters_;
      touch_pin(key, true);  // the shared inverter's input pin
    }
    mark_dirty(key);  // inverter load grows with the POs it drives
  }
}

void EvalState::remove_output_refs(std::size_t output, Phase phase) {
  const EvalContext::Resolved& root = ctx_->po_root(output);
  const bool negative = phase == Phase::kNegative;
  const NodeId node = root.node;
  const bool pol = root.parity != negative;
  const bool source = is_source_kind(ctx_->kind(node));

  if (negative && source) {
    if (!pol) remove_ref(instance_key(node, true));
  } else {
    remove_ref(instance_key(node, pol));
  }

  if (node <= Network::const1()) return;
  if (!negative) {
    const InstanceKey key = instance_key(node, pol);
    --po_refs_[key];
    if (ctx_->config().load_aware) mark_dirty(key);
  } else if (source) {
    if (!pol) {
      const InstanceKey key = instance_key(node, true);
      --po_refs_[key];
      if (ctx_->config().load_aware) mark_dirty(key);
    }
  } else {
    const InstanceKey key = instance_key(node, pol);
    if (--po_inv_[key] == 0) {
      --output_inverters_;
      touch_pin(key, false);
    }
    mark_dirty(key);
  }
}

void EvalState::add_ref(InstanceKey key) {
  scratch_.clear();
  scratch_.push_back(key);
  while (!scratch_.empty()) {
    const InstanceKey k = scratch_.back();
    scratch_.pop_back();
    if (ref_[k]++ != 0) continue;  // already realized
    const NodeId node = k >> 1;
    const bool neg = (k & 1) != 0;
    const NodeKind kind = ctx_->kind(node);
    if (kind == NodeKind::kAnd || kind == NodeKind::kOr) {
      ++domino_gates_;
      if (ref_[k ^ 1] > 0) ++duplicated_gates_;
      // A newborn instance demands (and loads) its resolved fanins; DeMorgan
      // flips the propagated polarity by each edge's NOT-chain parity.
      for (const InstanceKey edge : ctx_->gate_edges(node)) {
        const InstanceKey fk = neg ? (edge ^ 1u) : edge;
        touch_pin(fk, true);
        scratch_.push_back(fk);
      }
      mark_dirty(k);
    } else if ((kind == NodeKind::kPi || kind == NodeKind::kLatch) && neg) {
      ++input_inverters_;
      mark_dirty(k);
    }
  }
}

void EvalState::remove_ref(InstanceKey key) {
  scratch_.clear();
  scratch_.push_back(key);
  while (!scratch_.empty()) {
    const InstanceKey k = scratch_.back();
    scratch_.pop_back();
    if (--ref_[k] != 0) continue;  // still demanded elsewhere
    const NodeId node = k >> 1;
    const bool neg = (k & 1) != 0;
    const NodeKind kind = ctx_->kind(node);
    if (kind == NodeKind::kAnd || kind == NodeKind::kOr) {
      --domino_gates_;
      if (ref_[k ^ 1] > 0) --duplicated_gates_;
      for (const InstanceKey edge : ctx_->gate_edges(node)) {
        const InstanceKey fk = neg ? (edge ^ 1u) : edge;
        touch_pin(fk, false);
        scratch_.push_back(fk);
      }
      mark_dirty(k);
    } else if ((kind == NodeKind::kPi || kind == NodeKind::kLatch) && neg) {
      --input_inverters_;
      mark_dirty(k);
    }
  }
}

void EvalState::touch_pin(InstanceKey key, bool add) {
  if (add)
    ++pins_[key];
  else
    --pins_[key];
  // Pin counts only feed the cost through the structural load model.
  if (ctx_->config().load_aware) mark_dirty(key);
}

void EvalState::mark_dirty(InstanceKey key) {
  if (dirty_[key] != 0) return;
  dirty_[key] = 1;
  pending_.push_back(key);
}

// The §4.2 leaf formula: one instance's power components from its demand and
// load counters.
EvalState::Leaf EvalState::leaf_of(InstanceKey key) const {
  const PowerModelConfig& cfg = ctx_->config();
  const NodeId node = key >> 1;
  const bool neg = (key & 1) != 0;
  const NodeKind kind = ctx_->kind(node);
  const std::uint32_t ref = ref_[key];
  const std::uint32_t pins = pins_[key];
  const std::uint32_t po_refs = po_refs_[key];
  const std::uint32_t po_inv = po_inv_[key];

  Leaf leaf;
  if ((kind == NodeKind::kAnd || kind == NodeKind::kOr) && ref > 0) {
    const double s = ctx_->instance_prob(key);
    const double cap =
        cfg.load_aware
            ? cfg.wire_cap + cfg.pin_cap * pins + cfg.po_cap * po_refs
            : cfg.gate_cap;
    // DeMorgan: the negative instance of an AND is a domino OR gate.
    const bool instance_is_and = (kind == NodeKind::kAnd) != neg;
    const double mult =
        instance_is_and ? cfg.penalty.and_mult : cfg.penalty.or_mult;
    const double add =
        instance_is_and ? cfg.penalty.and_add : cfg.penalty.or_add;
    leaf.domino = domino_switching(s) * cap * mult + add;
  } else if ((kind == NodeKind::kPi || kind == NodeKind::kLatch) && neg &&
             ref > 0) {
    const double cap =
        cfg.load_aware
            ? cfg.wire_cap + cfg.pin_cap * pins + cfg.po_cap * po_refs
            : cfg.inverter_cap;
    leaf.input_inv = static_switching(ctx_->probs()[node]) * cap;
  }
  if (po_inv > 0) {
    const double pin = ctx_->instance_prob(key);
    const double cap = cfg.load_aware ? cfg.wire_cap + cfg.po_cap * po_inv
                                      : cfg.inverter_cap;
    leaf.output_inv = cfg.domino_driven_inverter_edges * pin * cap;
  }
  return leaf;
}

void EvalState::flush() {
  if (pending_.empty()) return;
  // Recompute each dirty leaf from its counters, turning pending_ into tree
  // indices, then each ancestor once, level by level from the bottom.  All
  // leaves share one depth, so every node on the level being walked is
  // final, and the first child to reach a parent marks it stale for the
  // rest of that level.
  for (std::uint32_t& entry : pending_) {
    const InstanceKey key = entry;
    dirty_[key] = 0;
    entry = static_cast<std::uint32_t>(leaf_base_ + key);
    tree_[entry] = leaf_of(key);
  }
  for (bool leaves = true; pending_.front() > 1; leaves = false) {
    std::size_t out = 0;
    for (const std::uint32_t index : pending_) {
      if (!leaves) stale_[index] = 0;
      const std::uint32_t parent = index >> 1;
      if (stale_[parent] != 0) continue;
      stale_[parent] = 1;
      pending_[out++] = parent;
      tree_[parent] = combine(tree_[parent * 2], tree_[parent * 2 + 1]);
    }
    pending_.resize(out);
  }
  stale_[1] = 0;
  pending_.clear();
}

AssignmentCost EvalState::cost() {
  flush();
  AssignmentCost cost;
  const Leaf& total = tree_[1];
  cost.power.domino_block = total.domino;
  cost.power.input_inverters = total.input_inv;
  cost.power.output_inverters = total.output_inv;
  cost.power.clock_load = ctx_->config().clock_cap_per_gate *
                          static_cast<double>(domino_gates_);
  cost.domino_gates = domino_gates_;
  cost.duplicated_gates = duplicated_gates_;
  cost.input_inverters = input_inverters_;
  cost.output_inverters = output_inverters_;
  return cost;
}

double EvalState::power_total() { return cost().power.total(); }

double EvalState::cone_average(std::size_t output) const {
  if (output >= phases_.size())
    throw std::runtime_error("EvalState::cone_average: output out of range");
  return ctx_->cone_average(output, phases_[output] == Phase::kNegative);
}

std::vector<double> EvalState::cone_average_probs() const {
  std::vector<double> result(phases_.size());
  for (std::size_t i = 0; i < phases_.size(); ++i)
    result[i] = ctx_->cone_average(i, phases_[i] == Phase::kNegative);
  return result;
}

PolarityDemand EvalState::demand() const {
  PolarityDemand result;
  result.bits.assign(ctx_->num_nodes(), 0);
  for (NodeId id = 0; id < ctx_->num_nodes(); ++id) {
    std::uint8_t bits = 0;
    if (ref_[instance_key(id, false)] > 0) bits |= PolarityDemand::kPos;
    if (ref_[instance_key(id, true)] > 0) bits |= PolarityDemand::kNeg;
    result.bits[id] = bits;
  }
  return result;
}

}  // namespace dominosyn
