/// \file network.hpp
/// Multi-level Boolean logic network (combinational + latches).
///
/// Design notes:
///  * Nodes live in one arena (`std::vector<Node>`); NodeId indexes it.
///    Ids 0/1 are the constants, so every network can express const drivers.
///  * Latch outputs are sources (kLatch nodes); their next-state drivers are
///    extra combinational roots.  This makes every traversal combinational,
///    which is exactly the view the paper's MFVS partitioning produces.
///  * Gates are n-ary; `decompose_binary` lowers to 2-input gates before
///    phase assignment / mapping.
///  * Node ids are NOT required to be topologically ordered (BLIF allows
///    forward references); use topo_order().

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "network/node.hpp"

namespace dominosyn {

class Network {
 public:
  /// Creates a network containing only the two constant nodes.
  Network();

  /// Optional model name (from BLIF .model or synthetic preset).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // -- construction ----------------------------------------------------------

  NodeId add_pi(std::string name);
  /// Adds a latch; returns the kLatch output node.  The next-state input must
  /// be connected later with set_latch_input (BLIF order independence).
  NodeId add_latch(std::string name, LatchInit init = LatchInit::kZero);
  void set_latch_input(NodeId latch_output, NodeId driver);
  void add_po(std::string name, NodeId driver);

  /// Adds a gate node.  AND/OR require >= 1 fanin, NOT exactly 1.
  NodeId add_gate(NodeKind kind, std::vector<NodeId> fanins);

  NodeId add_and(NodeId a, NodeId b) { return add_gate(NodeKind::kAnd, {a, b}); }
  NodeId add_or(NodeId a, NodeId b) { return add_gate(NodeKind::kOr, {a, b}); }
  NodeId add_xor(NodeId a, NodeId b) { return add_gate(NodeKind::kXor, {a, b}); }
  NodeId add_not(NodeId a) { return add_gate(NodeKind::kNot, {a}); }

  /// Balanced n-ary helpers; return a constant for empty input lists
  /// (AND of nothing = 1, OR of nothing = 0).
  NodeId add_and_n(std::span<const NodeId> fanins);
  NodeId add_or_n(std::span<const NodeId> fanins);

  static constexpr NodeId const0() noexcept { return 0; }
  static constexpr NodeId const1() noexcept { return 1; }

  // -- access ----------------------------------------------------------------

  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] NodeKind kind(NodeId id) const { return nodes_.at(id).kind; }
  [[nodiscard]] const std::vector<NodeId>& fanins(NodeId id) const {
    return nodes_.at(id).fanins;
  }

  [[nodiscard]] const std::vector<NodeId>& pis() const noexcept { return pis_; }
  [[nodiscard]] const std::vector<Po>& pos() const noexcept { return pos_; }
  [[nodiscard]] const std::vector<LatchInfo>& latches() const noexcept { return latches_; }

  [[nodiscard]] std::size_t num_pis() const noexcept { return pis_.size(); }
  [[nodiscard]] std::size_t num_pos() const noexcept { return pos_.size(); }
  [[nodiscard]] std::size_t num_latches() const noexcept { return latches_.size(); }

  /// Name attached to a node (PIs and latches always have one; gates may).
  [[nodiscard]] std::optional<std::string> node_name(NodeId id) const;
  void set_node_name(NodeId id, std::string name);
  /// Finds a named node (PI, latch, or named gate); kNullNode if absent.
  [[nodiscard]] NodeId find_node(const std::string& name) const;

  /// Index of the latch whose output node is `id`; nullopt otherwise.
  [[nodiscard]] std::optional<std::size_t> latch_index_of(NodeId id) const;

  /// Number of gate nodes (AND/OR/NOT/XOR) reachable or not.
  [[nodiscard]] std::size_t num_gates() const noexcept;
  /// Number of inverter (kNot) nodes.
  [[nodiscard]] std::size_t num_inverters() const noexcept;

  // -- structure queries (topo.cpp) ------------------------------------------

  /// All nodes in topological order (sources first).  Throws
  /// std::runtime_error on a combinational cycle.
  [[nodiscard]] std::vector<NodeId> topo_order() const;

  /// Logic depth per node (sources = 0, gate = 1 + max fanin level).
  [[nodiscard]] std::vector<std::uint32_t> levels() const;

  /// Combinational roots: PO drivers and latch next-state inputs.
  [[nodiscard]] std::vector<NodeId> roots() const;

  /// Transitive fan-in of `root` (gates only, excludes sources), as a sorted
  /// vector of node ids.  This is the paper's D_i set for a primary output.
  [[nodiscard]] std::vector<NodeId> tfi_gates(NodeId root) const;

  /// Fan-out counts for every node (number of gate/PO/latch-input references).
  [[nodiscard]] std::vector<std::uint32_t> fanout_counts() const;

  /// Checks internal invariants (fanin ids in range, latch wiring complete,
  /// PO drivers valid).  Throws std::runtime_error with a description.
  void validate() const;

  // -- simulation (simulate.cpp) ----------------------------------------------

  /// 64-way bit-parallel combinational evaluation.  `pi_words[i]` is the
  /// 64-bit value vector of pis()[i]; `latch_words[i]` of latches()[i].
  /// Returns one word per node (indexed by NodeId).  A one-shot call into
  /// CompiledNetwork; callers simulating many words compile once instead.
  [[nodiscard]] std::vector<std::uint64_t> simulate(
      std::span<const std::uint64_t> pi_words,
      std::span<const std::uint64_t> latch_words = {}) const;

  /// Convenience: evaluates all POs for a single input assignment.
  [[nodiscard]] std::vector<bool> evaluate(std::span<const bool> pi_values,
                                           std::span<const bool> latch_values = {}) const;

 private:
  NodeId add_node(NodeKind kind, std::vector<NodeId> fanins);

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> pis_;
  std::vector<Po> pos_;
  std::vector<LatchInfo> latches_;
  std::unordered_map<NodeId, std::string> names_;
  std::unordered_map<std::string, NodeId> name_index_;
};

/// Flat evaluation form of a Network for 64-way bit-parallel simulation
/// (simulate.cpp).  Gates are ordered by logic level, then by kind and
/// fanin count, so they fall into runs of one kind and arity; each run is
/// evaluated by a loop with a fixed trip count (AND/OR of 1-8 fanins and
/// NOT), or by one generic loop for XOR and wider gates.  A caller that
/// evaluates many 64-vector words pays for this ordering once and, by
/// passing the same value buffer back in, allocates nothing per word.
/// Holds no reference to the network.
class CompiledNetwork {
 public:
  /// Throws std::runtime_error on a combinational cycle, like topo_order().
  explicit CompiledNetwork(const Network& net);

  /// Evaluates one word, exactly as Network::simulate does, into `value`
  /// (resized to one word per node, indexed by NodeId; every entry is
  /// overwritten).  An empty `latch_words` drives every latch with 0.
  void simulate(std::span<const std::uint64_t> pi_words,
                std::span<const std::uint64_t> latch_words,
                std::vector<std::uint64_t>& value) const;

 private:
  /// Evaluates `count` gates whose `arity` fanins each lie consecutively in
  /// `fanins`, writing value[out[g]].
  using Kernel = void (*)(const NodeId* out, const NodeId* fanins,
                          std::size_t count, std::size_t arity,
                          std::uint64_t* value);
  struct Run {
    Kernel kernel;
    std::uint32_t first_gate;   ///< index into gates_
    std::uint32_t num_gates;
    std::uint32_t arity;
    std::uint32_t first_fanin;  ///< index into fanins_
  };

  std::size_t num_nodes_ = 0;
  std::vector<NodeId> pis_;
  std::vector<NodeId> latch_outputs_;
  std::vector<NodeId> gates_;   ///< by level, then kind and fanin count
  std::vector<NodeId> fanins_;  ///< each gate's fanins, in gates_ order
  std::vector<Run> runs_;
};

// -- transformations (transform.cpp) ------------------------------------------

/// Statistics returned by cleanup passes.
struct TransformStats {
  std::size_t nodes_before = 0;
  std::size_t nodes_after = 0;
  [[nodiscard]] std::size_t removed() const noexcept { return nodes_before - nodes_after; }
};

/// Removes gates not reachable from any PO or latch input, compacting ids.
TransformStats remove_dead_nodes(Network& net);

/// Simplifies the network: constant propagation, single-fanin AND/OR collapse,
/// double-negation elimination, duplicate-fanin dedup.  Followed by DCE.
TransformStats simplify(Network& net);

/// Structural hashing: merges structurally identical gates (commutative
/// canonical fanin order).  Followed by DCE.
TransformStats strash(Network& net);

/// Lowers n-ary AND/OR/XOR gates to balanced trees of 2-input gates, and
/// expands XOR into AND/OR/NOT.  After this pass every gate is a 2-input
/// AND/OR or a NOT — the form phase assignment and mapping expect.
TransformStats decompose_binary(Network& net);

/// Deep copy that keeps only nodes reachable from POs / latch inputs.
/// `old_to_new`, if non-null, receives the id remapping (kNullNode = dropped).
[[nodiscard]] Network compact_copy(const Network& net,
                                   std::vector<NodeId>* old_to_new = nullptr);

/// Per-kind node counts, used by reports.
struct NetworkStats {
  std::size_t pis = 0, pos = 0, latches = 0;
  std::size_t ands = 0, ors = 0, nots = 0, xors = 0;
  std::size_t depth = 0;
  [[nodiscard]] std::size_t gates() const noexcept { return ands + ors + nots + xors; }
};
[[nodiscard]] NetworkStats network_stats(const Network& net);

/// Structural fingerprint of a network (kinds, fanins, PI/PO/latch wiring and
/// port names).  The session cache detects a circuit that changed behind its
/// key with it; fabric workers prove they rebuilt the coordinator's network.
[[nodiscard]] std::uint64_t network_fingerprint(const Network& net);

// -- cone analysis (topo.cpp) --------------------------------------------------

/// Pairwise cone overlap of the paper, O(i,j) = |Di ∩ Dj| / (|Di| + |Dj|),
/// with Di = tfi_gates(po i driver).  Returned as a flattened upper-triangular
/// matrix accessor.
class ConeOverlap {
 public:
  explicit ConeOverlap(const Network& net);

  [[nodiscard]] std::size_t num_outputs() const noexcept { return cone_size_.size(); }
  /// |D_i| — gate count of output i's transitive fan-in cone.
  [[nodiscard]] std::size_t cone_size(std::size_t i) const { return cone_size_.at(i); }
  /// |D_i ∩ D_j|.
  [[nodiscard]] std::size_t intersection(std::size_t i, std::size_t j) const;
  /// O(i,j) as defined in the paper (0 when both cones are empty).
  [[nodiscard]] double overlap(std::size_t i, std::size_t j) const;
  /// The cone node set of output i (sorted).
  [[nodiscard]] const std::vector<NodeId>& cone(std::size_t i) const { return cones_.at(i); }

 private:
  std::vector<std::vector<NodeId>> cones_;
  std::vector<std::size_t> cone_size_;
};

}  // namespace dominosyn
