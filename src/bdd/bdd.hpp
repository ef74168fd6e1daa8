/// \file bdd.hpp
/// A from-scratch ROBDD package (Bryant '86) sized for the paper's signal
/// probability computations.
///
/// Design:
///  * Nodes live in struct-of-arrays storage inside BddManager; a node index
///    (BddIndex) identifies a function.  Indices 0/1 are the terminals.
///  * Reduced + ordered + hash-consed, so *function equality is index
///    equality* — equivalence checks are O(1).
///  * All Boolean operations funnel through ITE with an operation cache.
///  * External references are RAII `Bdd` handles; `gc()` mark-sweeps
///    everything unreachable from live handles (indices remain stable).
///  * Variable indices are BDD *levels*: variable 0 is tested at the top.
///    Ordering heuristics (order.hpp) map network sources to levels.
///  * Every manager runs under a deterministic work budget: one unit per ITE
///    step (see BddManager::steps()), and the same number caps allocated
///    nodes.  An intractable build throws BddLimitExceeded after bounded
///    time and memory, whatever the machine.

#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace dominosyn {

using BddIndex = std::uint32_t;
inline constexpr BddIndex kBddFalse = 0;
inline constexpr BddIndex kBddTrue = 1;

class BddManager;

/// RAII reference to a BDD function.  Copying bumps the external refcount;
/// destruction releases it.  A default-constructed handle is "null" and must
/// not be used in operations.
class Bdd {
 public:
  Bdd() = default;
  Bdd(const Bdd& other) noexcept;
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other) noexcept;
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  [[nodiscard]] bool valid() const noexcept { return mgr_ != nullptr; }
  [[nodiscard]] BddIndex index() const noexcept { return index_; }
  [[nodiscard]] BddManager* manager() const noexcept { return mgr_; }

  [[nodiscard]] bool is_false() const noexcept { return index_ == kBddFalse; }
  [[nodiscard]] bool is_true() const noexcept { return index_ == kBddTrue; }
  [[nodiscard]] bool is_constant() const noexcept { return is_false() || is_true(); }

  /// Canonicity makes this exact functional equivalence.
  friend bool operator==(const Bdd& a, const Bdd& b) noexcept {
    return a.mgr_ == b.mgr_ && a.index_ == b.index_;
  }

  // Boolean algebra (delegates to the manager; operands must share one).
  [[nodiscard]] Bdd operator&(const Bdd& rhs) const;
  [[nodiscard]] Bdd operator|(const Bdd& rhs) const;
  [[nodiscard]] Bdd operator^(const Bdd& rhs) const;
  [[nodiscard]] Bdd operator!() const;

 private:
  friend class BddManager;
  Bdd(BddManager* mgr, BddIndex index) noexcept;

  BddManager* mgr_ = nullptr;
  BddIndex index_ = kBddFalse;
};

/// Thrown when a manager exhausts its work budget; callers (the power
/// estimator) catch this and fall back to approximate probability
/// propagation.
class BddLimitExceeded : public std::runtime_error {
 public:
  BddLimitExceeded() : std::runtime_error("BDD work budget exceeded") {}
};

/// Default work budget: 2^22 ITE steps, and at most as many allocated nodes
/// (20 bytes each plus tables).  Every circuit the flow builds exactly fits
/// (the largest, a 24-PI 12000-gate generator circuit, takes ~3.5 M steps);
/// the paper circuits that do not fit give up in well under a second.
inline constexpr std::uint64_t kBddWorkBudget = std::uint64_t{1} << 22;

class BddManager {
 public:
  /// \param num_vars number of variables (levels).
  /// \param budget   work budget: the ITE steps the manager may run before
  ///                 it throws BddLimitExceeded, and its cap on allocated
  ///                 nodes (terminals included).
  explicit BddManager(std::uint32_t num_vars, std::uint64_t budget = kBddWorkBudget);

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  [[nodiscard]] std::uint32_t num_vars() const noexcept { return num_vars_; }

  [[nodiscard]] Bdd bdd_false() noexcept { return Bdd(this, kBddFalse); }
  [[nodiscard]] Bdd bdd_true() noexcept { return Bdd(this, kBddTrue); }
  /// Single-variable function x_v (level v).
  [[nodiscard]] Bdd var(std::uint32_t v);
  /// Complemented variable !x_v.
  [[nodiscard]] Bdd nvar(std::uint32_t v);

  [[nodiscard]] Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);
  [[nodiscard]] Bdd bdd_and(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd bdd_or(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd bdd_xor(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd bdd_not(const Bdd& f);

  /// Signal probability: P(f = 1) when variable v is an independent
  /// Bernoulli(var_probs[v]).  This is the paper's §4.2.2 computation.
  [[nodiscard]] double prob(const Bdd& f, std::span<const double> var_probs);

  /// Probabilities of many functions sharing one memo table (fast path for
  /// per-node network probabilities).
  [[nodiscard]] std::vector<double> prob_many(std::span<const Bdd> fs,
                                              std::span<const double> var_probs);

  /// Number of distinct non-terminal nodes reachable from f.
  [[nodiscard]] std::size_t dag_size(const Bdd& f) const;
  /// Shared size of a set of functions (the Figure 10 metric: distinct
  /// non-terminal nodes needed to represent all roots together).
  [[nodiscard]] std::size_t dag_size_shared(std::span<const Bdd> fs) const;

  /// Variables on which f actually depends.
  [[nodiscard]] std::vector<std::uint32_t> support(const Bdd& f) const;

  /// Number of satisfying assignments over all num_vars() variables.
  [[nodiscard]] double sat_count(const Bdd& f);

  /// Cofactor of f with variable v fixed to `value`.
  [[nodiscard]] Bdd restrict_var(const Bdd& f, std::uint32_t v, bool value);

  /// Currently allocated node records (terminals + live + garbage).
  [[nodiscard]] std::size_t allocated_nodes() const noexcept { return var_.size(); }
  /// Work charged so far: one step per ITE call that is not a terminal
  /// case, operation-cache hits included.  A pure function of the
  /// operation sequence, so identical builds charge identical counts.
  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }
  /// Nodes reachable from external handles (exact, walks the DAG).
  [[nodiscard]] std::size_t live_nodes() const;

  /// Mark-sweep: reclaims nodes unreachable from external handles.  Indices
  /// of live nodes are unchanged.  Returns the number of reclaimed nodes.
  std::size_t gc();

  // Node field access (valid for non-terminal indices).
  [[nodiscard]] std::uint32_t node_var(BddIndex n) const { return var_[n]; }
  [[nodiscard]] BddIndex node_low(BddIndex n) const { return low_[n]; }
  [[nodiscard]] BddIndex node_high(BddIndex n) const { return high_[n]; }
  [[nodiscard]] static bool is_terminal(BddIndex n) noexcept { return n <= kBddTrue; }

 private:
  friend class Bdd;

  /// Find-or-create node (v, lo, hi); applies the reduction rules.
  BddIndex mk(std::uint32_t v, BddIndex lo, BddIndex hi);
  BddIndex ite_rec(BddIndex f, BddIndex g, BddIndex h);
  double prob_rec(BddIndex f, std::span<const double> var_probs,
                  std::vector<double>& memo);

  [[nodiscard]] std::uint32_t top_var(BddIndex n) const noexcept {
    return is_terminal(n) ? kTerminalVar : var_[n];
  }

  void ref(BddIndex n) noexcept { ++ext_refs_[n]; }
  void deref(BddIndex n) noexcept { --ext_refs_[n]; }

  // unique table helpers
  [[nodiscard]] std::size_t bucket_of(std::uint32_t v, BddIndex lo, BddIndex hi) const noexcept;
  void rehash(std::size_t new_bucket_count);

  static constexpr std::uint32_t kTerminalVar = 0xffffffffu;

  std::uint32_t num_vars_;
  std::uint64_t budget_;
  std::uint64_t steps_ = 0;

  // struct-of-arrays node storage
  std::vector<std::uint32_t> var_;
  std::vector<BddIndex> low_;
  std::vector<BddIndex> high_;
  std::vector<BddIndex> next_;         // unique-table chain
  std::vector<std::uint32_t> ext_refs_;  // external handle counts

  std::vector<BddIndex> buckets_;  // unique table heads (kInvalid = empty)
  std::vector<BddIndex> free_list_;

  // ITE operation cache (direct mapped, lossy).
  struct CacheEntry {
    BddIndex f = 0xffffffffu, g = 0, h = 0, result = 0;
  };
  std::vector<CacheEntry> ite_cache_;

  static constexpr BddIndex kInvalid = 0xffffffffu;
};

}  // namespace dominosyn
