/// \file eval.hpp
/// Incremental phase-assignment evaluation engine.
///
/// The §4.1 heuristic, the [15] min-area baseline and the exhaustive searches
/// all spend their time re-scoring candidate assignments.  The full evaluator
/// (AssignmentEvaluator::evaluate) costs O(nodes) per candidate even though a
/// single-output flip only perturbs that output's fanin cone.  This engine
/// splits evaluation into:
///
///  * EvalContext — the immutable, shareable part: network, per-node signal
///    probabilities, the power model, NOT-chain-resolved PO/latch roots and
///    gate fanin edges, and the precomputed dual probabilities of
///    Property 4.1 (the DeMorgan implementation of a node with probability p
///    has probability 1-p).  One context serves any number of concurrent
///    searches; it holds no mutable state.
///
///  * EvalState — the cheap-to-copy mutable part: per-instance polarity-
///    demand reference counts, structural load counters, integer cell
///    counts and a deferred power summation tree.  apply_flip(output) /
///    undo() are an O(|cone(output)|) counter cascade that only marks the
///    touched instances dirty; the power tree catches up on the next power
///    read (cost() / power_total()), recomputing each dirty leaf and each of
///    its ancestors once.  Searches that read only area_cells() — min-area
///    annealing and min-area branch-and-bound — never pay for the tree.
///
/// The context also owns the §4.1 commit-path precomputation: per-output cone
/// instance lists (with polarity), a node→outputs inverted index, and both
/// phase values of the per-output average switching probability A_i.  The
/// from-scratch A_i walk reads only the walked output's own phase, so A_i has
/// exactly two possible values; precomputing both with the reference walk's
/// summation order makes EvalState::cone_average_probs() an O(#POs) gather
/// that is bit-identical to AssignmentEvaluator::cone_average_probs() — and
/// turns the min-power search's per-commit A refresh from O(P·|circuit|)
/// into O(1) per flipped output.
///
/// Exactness: power components are kept in a fixed-shape binary summation
/// tree whose internal nodes are always recomputed as left + right.  The
/// root therefore depends only on the *current* leaf values — never on the
/// flip history — so an EvalState reached through any sequence of flips
/// reports costs bit-identical to a state freshly built from the same
/// assignment.  AssignmentEvaluator::evaluate() is implemented as exactly
/// that fresh build, which is what makes the equivalence testable.
/// Deferring the tree keeps the bits for the same reason: each leaf is a
/// pure function of its instance's current counters, and every counter
/// change marks its leaf dirty, so a read that recomputes the dirty leaves
/// and then their ancestors bottom-up produces the very leaves and sums an
/// eager update after every change would have left behind.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "phase/assignment.hpp"

namespace dominosyn {

/// Follows NOT chains from (id, negated), flipping polarity per inverter
/// (DeMorgan absorption).  Returns the terminal (non-NOT) node and polarity.
/// Shared by the engine and the stack-walk demand so the two demand
/// implementations can never disagree on NOT resolution.
[[nodiscard]] std::pair<NodeId, bool> resolve_not_chain(const Network& net,
                                                        NodeId id, bool negated);

/// Instance key: a (node, polarity) pair packed as node*2 + (negative ? 1:0).
/// The *negative* instance of a node is its DeMorgan dual implementation.
using InstanceKey = std::uint32_t;

[[nodiscard]] constexpr InstanceKey instance_key(NodeId node, bool negative) noexcept {
  return static_cast<InstanceKey>(node) * 2 + (negative ? 1u : 0u);
}

/// Immutable shared evaluation context.  Thread-safe by construction: all
/// members are set once in the constructor and only read afterwards.
class EvalContext {
 public:
  /// A NOT-chain-resolved reference: the terminal (non-NOT) node plus the
  /// accumulated inversion parity of the chain.
  struct Resolved {
    NodeId node = kNullNode;
    bool parity = false;
  };

  /// \param net        synthesized network (kept by reference; must outlive
  ///                   the context).  Must satisfy check_phase_ready().
  /// \param node_probs per-NodeId positive-polarity signal probabilities.
  EvalContext(const Network& net, std::vector<double> node_probs,
              PowerModelConfig config = {});

  [[nodiscard]] const Network& network() const noexcept { return *net_; }
  [[nodiscard]] const std::vector<double>& probs() const noexcept { return probs_; }
  [[nodiscard]] const PowerModelConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<NodeId>& topo_order() const noexcept { return topo_; }

  [[nodiscard]] std::size_t num_nodes() const noexcept { return kinds_.size(); }
  [[nodiscard]] std::size_t num_instances() const noexcept { return kinds_.size() * 2; }
  [[nodiscard]] std::size_t num_outputs() const noexcept { return po_roots_.size(); }

  [[nodiscard]] NodeKind kind(NodeId id) const noexcept { return kinds_[id]; }

  /// Signal probability of an instance (Property 4.1 duals precomputed).
  [[nodiscard]] double instance_prob(InstanceKey key) const noexcept {
    return inst_prob_[key];
  }

  /// Resolved driver of primary output i / next-state input of latch l.
  [[nodiscard]] const Resolved& po_root(std::size_t i) const { return po_roots_[i]; }
  [[nodiscard]] const std::vector<Resolved>& latch_roots() const noexcept {
    return latch_roots_;
  }

  /// Resolved fanin edges of gate `node`, packed as instance_key(term,
  /// parity): consuming the gate in polarity p demands instance
  /// (term, p XOR parity) for each edge.  Empty for non-gates.
  [[nodiscard]] std::span<const InstanceKey> gate_edges(NodeId node) const {
    return {edges_.data() + edge_begin_[node],
            edges_.data() + edge_begin_[node + 1]};
  }

  // -- §4.1 commit-path precomputation ----------------------------------------

  /// AND/OR instances of output i's positive-phase cone, in the exact DFS
  /// discovery order of AssignmentEvaluator::cone_average_probs.  The
  /// negative-phase cone is the same sequence with every polarity bit
  /// flipped (Property 4.1), so one list serves both phases.
  [[nodiscard]] std::span<const InstanceKey> cone_instances(std::size_t i) const {
    return {cone_insts_.data() + cone_begin_[i],
            cone_insts_.data() + cone_begin_[i + 1]};
  }

  /// Gate-instance count of output i's cone (|D_i| over instances; a node
  /// reached in both polarities counts twice, exactly as the reference walk
  /// averages it).
  [[nodiscard]] std::size_t cone_gate_count(std::size_t i) const {
    return cone_begin_[i + 1] - cone_begin_[i];
  }

  /// Precomputed per-output average instance probability A_i of §4.1 for
  /// output i implemented in the given phase.  Computed once with the
  /// reference walk's summation order, so it is bit-identical to what
  /// AssignmentEvaluator::cone_average_probs reports for that phase.
  /// Outputs whose cone holds no AND/OR instance (direct wires, NOT-only
  /// cones, constants) read 0.5 — see cone_average_probs in assignment.hpp.
  [[nodiscard]] double cone_average(std::size_t i, bool negative) const {
    return cone_avg_[i * 2 + (negative ? 1 : 0)];
  }

  /// Inverted cone index: the outputs whose cone contains gate `node` (in
  /// either polarity), ascending.  Empty for non-gates.  This is the
  /// node→outputs map the incremental commit path and overlap-aware pruning
  /// consult to find the cones a structural change can affect.
  [[nodiscard]] std::span<const std::uint32_t> cone_outputs(NodeId node) const {
    return {cone_out_.data() + cone_out_begin_[node],
            cone_out_.data() + cone_out_begin_[node + 1]};
  }

  // -- branch-and-bound admissible bounds (docs/search.md) --------------------

  /// True when every power-model coefficient is non-negative, which is what
  /// makes the cost monotone in demand and the floors below admissible.  A
  /// degenerate (negative-coefficient) model breaks both — a realized leaf
  /// can *lower* the cost — so branch-and-bound callers must fall back to
  /// full enumeration when this is false.
  [[nodiscard]] bool bounds_admissible() const noexcept {
    return bounds_admissible_;
  }

  /// True when the instance is demanded by a latch next-state root
  /// (transitively): such instances are realized under *every* phase
  /// assignment, so admissible per-output bounds must never credit them.
  [[nodiscard]] bool latch_demanded(InstanceKey key) const noexcept {
    return latch_demand_[key] != 0;
  }

  /// Admissible power floor of one *realized* AND/OR instance: its §4.2 leaf
  /// contribution under the smallest structural load any realization can
  /// carry (an internal instance is pinned by its consumer at least once;
  /// only a positive-phase PO root can be pinless, paying po_cap instead),
  /// plus the per-gate precharge-clock load.  Zero for non-gate instances —
  /// and zero throughout for degenerate (negative-coefficient) power
  /// configurations, where no positive floor is admissible.
  [[nodiscard]] double gate_power_floor(InstanceKey key) const noexcept {
    return gate_floor_[key];
  }

  /// Admissible power floor of the shared PO-boundary inverter that output i
  /// creates in negative phase; 0 when the output cannot own one (source or
  /// constant root).  Outputs sharing a root instance all report the same
  /// floor — consumers must divide by the sharer count to stay admissible.
  [[nodiscard]] double output_inverter_floor(std::size_t i) const noexcept {
    return inverter_floor_[i];
  }

  /// Per-output, per-phase *exclusive* cost-contribution bounds: the summed
  /// floors of the cone instances that no other output's cone contains in
  /// either polarity (the shared-node correction, read off the inverted cone
  /// index) and that no latch demands.  Assigning output i the given phase
  /// realizes at least this much power / this many cells regardless of every
  /// other output's phase — the admissible per-output minima the
  /// branch-and-bound suffix bounds are built from (min over both phases).
  [[nodiscard]] double exclusive_power_bound(std::size_t i, bool negative) const noexcept {
    return excl_power_[i * 2 + (negative ? 1 : 0)];
  }
  [[nodiscard]] std::size_t exclusive_area_bound(std::size_t i, bool negative) const noexcept {
    return excl_area_[i * 2 + (negative ? 1 : 0)];
  }

 private:
  void build_cone_index();
  void build_bound_index();
  const Network* net_;
  std::vector<double> probs_;
  PowerModelConfig config_;
  std::vector<NodeId> topo_;
  std::vector<NodeKind> kinds_;
  std::vector<double> inst_prob_;        ///< 2 per node: p, 1-p
  std::vector<Resolved> po_roots_;
  std::vector<Resolved> latch_roots_;
  std::vector<std::uint32_t> edge_begin_;  ///< CSR offsets into edges_
  std::vector<InstanceKey> edges_;
  std::vector<std::uint32_t> cone_begin_;  ///< CSR offsets into cone_insts_
  std::vector<InstanceKey> cone_insts_;    ///< positive-phase cone instances
  std::vector<double> cone_avg_;           ///< 2 per output: A_i⁺, A_i⁻
  std::vector<std::uint32_t> cone_out_begin_;  ///< CSR offsets into cone_out_
  std::vector<std::uint32_t> cone_out_;        ///< node → containing outputs
  bool bounds_admissible_ = true;              ///< power model monotone/nonneg
  std::vector<std::uint8_t> latch_demand_;     ///< instance realized by latches
  std::vector<double> gate_floor_;             ///< per-instance power floor
  std::vector<double> inverter_floor_;         ///< per-output PO-inverter floor
  std::vector<double> excl_power_;             ///< 2 per output: excl. floor sum
  std::vector<std::uint32_t> excl_area_;       ///< 2 per output: excl. cell count
};

/// Mutable incremental evaluation state over a shared EvalContext.
///
/// Maintains, per instance key:
///  * ref        — demand reference count (PO/latch roots + live consumers);
///                 an instance is realized iff ref > 0,
///  * pins       — consuming gate-input pins (live consumers + latch inputs
///                 + the shared output inverter, mirroring the structural
///                 load model of PowerModelConfig::load_aware),
///  * po_refs    — primary outputs wired directly to the instance,
///  * po_inv     — negative-phase POs sharing the instance's output inverter,
/// plus integer cell counters and the power summation tree, whose dirty
/// leaves wait for the next cost() / power_total() call.
///
/// Copying an EvalState is O(nodes) with small constants (flat arrays); no
/// allocation besides the vector buffers.  A copy carries the original's
/// pending power work and reads the same bits.  States sharing a context may
/// be used concurrently from different threads; a single state is not
/// thread-safe.  cost() and power_total() are non-const because they fold
/// the pending work into the tree, so concurrent copies of one shared state
/// are plain reads of it.
class EvalState {
 public:
  EvalState(std::shared_ptr<const EvalContext> context,
            const PhaseAssignment& phases);

  /// Tag selecting the partial constructor below.
  struct AllUnassigned {};

  /// Constructs a *partial* state: only the permanent latch next-state
  /// demand is realized and every primary output starts unassigned,
  /// contributing no demand, loads or boundary inverters.  cost() of a
  /// partial state is a certified lower bound on the cost of any completion:
  /// demand is monotone (assigning an output only adds refs/pins/PO loads,
  /// every leaf is monotone in them, and floating-point addition through the
  /// fixed-shape summation tree preserves that monotonicity) — the anchor
  /// the branch-and-bound prefix costs build on.  assignment() reads
  /// kPositive placeholders for unassigned outputs.
  EvalState(std::shared_ptr<const EvalContext> context, AllUnassigned);

  [[nodiscard]] const EvalContext& context() const noexcept { return *ctx_; }
  [[nodiscard]] const PhaseAssignment& assignment() const noexcept { return phases_; }

  /// Assigns one currently-unassigned output (throws if already assigned) /
  /// withdraws one currently-assigned output (throws if not), each an
  /// O(|cone(output)|) counter cascade.  Because a state with the same demand
  /// reports bit-identical costs regardless of the operation sequence that
  /// reached it, a fully-assigned partial state costs exactly what a fresh
  /// EvalState built from the same assignment costs.  Neither operation is
  /// recorded in the undo history.
  void assign_output(std::size_t output, Phase phase);
  void withdraw_output(std::size_t output);
  [[nodiscard]] bool output_assigned(std::size_t output) const {
    return assigned_[output] != 0;
  }
  /// Outputs currently unassigned (0 for states built fully assigned).
  [[nodiscard]] std::size_t unassigned_outputs() const noexcept { return unassigned_; }

  /// Flips the phase of one primary output: an O(|cone(output)|) counter
  /// cascade that marks the touched power leaves dirty.
  void apply_flip(std::size_t output);

  /// Reverts the most recent not-yet-undone apply_flip().  Throws
  /// std::runtime_error if the history is empty.
  void undo();

  /// Number of apply_flip() calls that can currently be undone.
  [[nodiscard]] std::size_t history_depth() const noexcept { return history_.size(); }

  /// Jumps to an arbitrary assignment by flipping the differing outputs.
  /// Clears the undo history.
  void set_assignment(const PhaseAssignment& phases);

  /// Cost of the current assignment.  First brings the power tree up to
  /// date, recomputing each dirty leaf and each of its ancestors once; a
  /// second read with no change in between is O(1).  Bit-identical to
  /// AssignmentEvaluator::evaluate(assignment()).
  [[nodiscard]] AssignmentCost cost();

  /// Shorthands for the two search objectives.
  [[nodiscard]] double power_total();
  [[nodiscard]] std::size_t area_cells() const noexcept {
    return domino_gates_ + input_inverters_ + output_inverters_;
  }

  /// Current polarity demand, derived from the reference counts (equals
  /// polarity_demand(network, assignment())).
  [[nodiscard]] PolarityDemand demand() const;

  /// §4.1 average cone probability A_i of one output under the current
  /// assignment, in O(1).  A_i depends only on output i's own phase (the
  /// reference walk never reads another output's phase), so the value is a
  /// lookup into the context's precomputed per-phase table — maintained
  /// across apply_flip/undo/set_assignment at no per-flip cost, and
  /// bit-identical to the from-scratch walk by construction.
  [[nodiscard]] double cone_average(std::size_t output) const;

  /// All A_i under the current assignment, in O(#POs).  Bit-identical to
  /// AssignmentEvaluator::cone_average_probs(assignment()).
  [[nodiscard]] std::vector<double> cone_average_probs() const;

 private:
  /// Power components of one instance slot; summed component-wise through
  /// the fixed-shape tree.
  struct Leaf {
    double domino = 0.0;      ///< domino gate instance switching
    double input_inv = 0.0;   ///< PI/latch boundary inverter switching
    double output_inv = 0.0;  ///< PO boundary inverter switching
  };

  [[nodiscard]] static Leaf combine(const Leaf& a, const Leaf& b) noexcept;
  void add_output_refs(std::size_t output, Phase phase);
  void remove_output_refs(std::size_t output, Phase phase);
  void add_ref(InstanceKey key);
  void remove_ref(InstanceKey key);
  void touch_pin(InstanceKey key, bool add);
  /// Queues an instance whose counters changed for the next flush().
  void mark_dirty(InstanceKey key);
  [[nodiscard]] Leaf leaf_of(InstanceKey key) const;
  /// Brings the summation tree up to date with the counters.
  void flush();

  EvalState(std::shared_ptr<const EvalContext> context,
            const PhaseAssignment* phases);

  std::shared_ptr<const EvalContext> ctx_;
  PhaseAssignment phases_;
  std::vector<std::uint8_t> assigned_;  ///< per-output: demand contributed
  std::size_t unassigned_ = 0;
  std::vector<std::uint32_t> ref_;
  std::vector<std::uint32_t> pins_;
  std::vector<std::uint32_t> po_refs_;
  std::vector<std::uint32_t> po_inv_;
  std::vector<Leaf> tree_;  ///< 1-based tree, leaves at [leaf_base_, leaf_base_+2N)
  std::size_t leaf_base_ = 1;
  std::vector<std::uint8_t> dirty_;     ///< per instance: leaf awaits flush()
  std::vector<std::uint32_t> pending_;  ///< the dirty instances, unordered
  std::vector<std::uint8_t> stale_;     ///< per internal node, during flush()
  std::size_t domino_gates_ = 0;
  std::size_t duplicated_gates_ = 0;
  std::size_t input_inverters_ = 0;
  std::size_t output_inverters_ = 0;
  std::vector<std::uint32_t> history_;
  std::vector<InstanceKey> scratch_;  ///< reusable cascade stack
};

}  // namespace dominosyn
