/// \file search.hpp
/// Phase-assignment search algorithms:
///  * min_area_assignment — the Puri et al. (ICCAD'96, ref [15]) baseline:
///    minimize duplication (standard-cell count).  Exhaustive when the
///    output count is small, seeded simulated annealing + greedy descent
///    otherwise.
///  * min_power_assignment — the paper's §4.1 heuristic: pairwise cost
///    function K built from cone sizes |D|, current average probabilities A
///    and overlaps O(i,j); greedy commit loop with measured power.
///  * exhaustive_min_power — exact search over all 2^P assignments (the
///    frg1 "only 8 assignments" observation), as a branch-and-bound
///    enumeration with admissible per-output lower bounds (docs/search.md);
///    the unpruned Gray-code walk (exhaustive_gray_walk) is its reference
///    and its fallback when the bounds are not admissible.
///
/// All searches run on the incremental engine (phase/eval.hpp): candidate
/// moves cost O(|cone|) instead of O(network), the exhaustive searches
/// shard the assignment space across threads (Gray-code chunks, or
/// branch-and-bound subtrees exchanging the incumbent through an atomic
/// best cost), and annealing restarts run concurrently.  Results are
/// deterministic in the seed and independent of the thread count; for the
/// pruned search only the *result* is — the work counters (nodes expanded,
/// subtrees pruned) depend on when workers observe each other's incumbent,
/// so they are reproducible only single-threaded.

#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "network/network.hpp"
#include "phase/assignment.hpp"

namespace dominosyn {

/// The work counters every phase-assignment search reports, declared once.
/// Each row is X(rule, type, field, report_key, help): `field` is a
/// SearchCounters member, `report_key` its key in the protocol report (rows
/// in key order), and `rule` how the serving core (server/core.hpp)
/// aggregates it over ok responses:
///   NONE       not aggregated;
///   SUM        summed into ServerCore::Stats::<report_key> and the
///              `dominosyn_<report_key>_total` counter described by `help`;
///   SUM_COUNT  as SUM, and a nonzero value also counts the response in
///              `exhaustive_searches` (listed just before it);
///   TIGHTNESS  summed into `bound_tightness_sum` over those responses.
/// Trailing arguments of DOMINOSYN_SEARCH_COUNTERS are passed on to every X.
///
///   evaluations       candidates whose exact cost was computed: every
///                     Gray-walk position, the branch-and-bound leaves plus
///                     its incumbent seeding, annealing and §4.1 trials (the
///                     flow adds the min-area seeding search to min-power's)
///   commits           §4.1 candidates accepted
///   commit_rescore_pairs  pairs whose cost function K was recomputed on
///                     commits under kCostFunction guidance — only the pairs
///                     touching a flipped output (≤ 2·(P-1) per commit)
///   avg_update_nodes  cone gate instances covered by the A_i refreshes of
///                     those commits (each refresh is O(1) on the maintained
///                     per-phase averages)
///   nodes_expanded    branch-and-bound prefix-tree nodes whose partial state
///                     was built (the unit the node budget meters)
///   subtrees_pruned   subtrees cut by the admissible bound
///   bound_tightness   root lower bound over the optimal cost (≤ 1; 1 is
///                     tight)
/// The branch-and-bound counters vary with worker timing when
/// num_threads > 1; only the (cost, assignment) result is thread-count
/// invariant.
#define DOMINOSYN_SEARCH_COUNTERS(X, ...)                                      \
  X(NONE, std::size_t, evaluations, search_evaluations, "", __VA_ARGS__)       \
  X(SUM, std::size_t, commits, search_commits,                                 \
    "Min-power commits across ok responses", __VA_ARGS__)                      \
  X(SUM, std::size_t, commit_rescore_pairs, commit_rescore_pairs,              \
    "Pairs rescored by the incremental commit path", __VA_ARGS__)              \
  X(SUM, std::size_t, avg_update_nodes, avg_update_nodes,                      \
    "Summed per-report average update-node counts", __VA_ARGS__)               \
  X(SUM_COUNT, std::size_t, nodes_expanded, search_nodes_expanded,             \
    "Branch-and-bound nodes expanded", __VA_ARGS__)                            \
  X(SUM, std::size_t, subtrees_pruned, search_subtrees_pruned,                 \
    "Branch-and-bound subtrees pruned", __VA_ARGS__)                           \
  X(TIGHTNESS, double, bound_tightness, search_bound_tightness,                \
    "Summed bound-tightness ratios (divide by exhaustive searches for the "    \
    "fleet average)", __VA_ARGS__)

struct SearchCounters {
#define DOMINOSYN_SEARCH_COUNTER_FIELD(rule, type, field, ...) type field = 0;
  DOMINOSYN_SEARCH_COUNTERS(DOMINOSYN_SEARCH_COUNTER_FIELD)
#undef DOMINOSYN_SEARCH_COUNTER_FIELD
};

struct SearchResult {
  PhaseAssignment assignment;
  AssignmentCost cost;
  SearchCounters counters;
};

// -- exhaustive enumeration limits --------------------------------------------
// Every exhaustive ceiling in the code base derives from the two named
// constants below (plus the uint64 hard cap); callers clamp, never invent
// their own numbers:
//   * requested limits above kMaxExhaustiveOutputs are clamped to it by the
//     searches themselves (min_area_assignment clamps likewise before
//     comparing, so flow thresholds and search refusals can never disagree);
//   * auto-selecting callers (min_area_assignment, the flow's kMinPower /
//     kExhaustivePower paths) default to the *pruned* ceiling and rely on
//     the node budget — not the limit — to bail out of loose-bound runs.

/// Branch-and-bound ceiling: with admissible per-output bounds the pruned
/// enumeration is tractable past 2^20 — runs at P = 24–28 complete when the
/// bound is tight, so pruned-mode callers default to this limit and let the
/// node budget catch the loose-bound cases.
inline constexpr std::size_t kDefaultPrunedExhaustiveLimit = 24;

/// Default branch-and-bound work budget, in expanded prefix-tree nodes
/// (each one O(|cone|) incremental work — the same unit as one Gray-walk
/// candidate): about 2x the unpruned 2^20 walk.  When a pruned run trips
/// the budget it throws ExhaustiveBudgetError and auto-selecting callers
/// fall back to their heuristic (annealing / §4.1).
inline constexpr std::uint64_t kDefaultExhaustiveNodeBudget = 1ULL << 21;

/// Absolute ceiling on exhaustively enumerable outputs (the 2^P code space
/// must fit uint64 arithmetic); larger requested limits are clamped here.
inline constexpr std::size_t kMaxExhaustiveOutputs = 62;

/// Thrown when an exhaustive search is asked to enumerate more outputs than
/// its limit allows (2^P candidates would be intractable).  Callers that
/// auto-select between exhaustive and heuristic search should catch — or
/// better, avoid triggering — this specific type.
class ExhaustiveLimitError : public std::runtime_error {
 public:
  ExhaustiveLimitError(std::size_t num_outputs, std::size_t limit);
  [[nodiscard]] std::size_t num_outputs() const noexcept { return num_outputs_; }
  [[nodiscard]] std::size_t limit() const noexcept { return limit_; }

 private:
  std::size_t num_outputs_;
  std::size_t limit_;
};

/// Thrown when an exhaustive search exceeds its node budget before proving
/// optimality (the admissible bound was too loose for this circuit).
/// Auto-selecting callers catch this and fall back to the heuristic search.
/// With num_threads > 1 the trip point depends on worker timing (pruning
/// tightens as the shared incumbent spreads), so budgets should carry
/// margin; a search that *completes* returns the identical result at every
/// thread count regardless.
class ExhaustiveBudgetError : public std::runtime_error {
 public:
  ExhaustiveBudgetError(std::uint64_t nodes_expanded, std::uint64_t budget);
  [[nodiscard]] std::uint64_t nodes_expanded() const noexcept { return nodes_expanded_; }
  [[nodiscard]] std::uint64_t budget() const noexcept { return budget_; }

 private:
  std::uint64_t nodes_expanded_;
  std::uint64_t budget_;
};

struct ExhaustiveOptions {
  /// Refuse (with ExhaustiveLimitError) when #POs exceeds this; values
  /// above kMaxExhaustiveOutputs are clamped to it.
  std::size_t max_outputs = kDefaultPrunedExhaustiveLimit;
  /// Worker threads sharding the space; 0 = one per hardware thread.
  /// The result is identical for every value.
  unsigned num_threads = 1;
  /// Abort with ExhaustiveBudgetError after this many expanded nodes
  /// (branch-and-bound) or when 2^P exceeds it outright (Gray walk).
  /// 0 = unlimited.
  std::uint64_t node_budget = 0;
};

/// Exact minimum-power assignment over all 2^P candidates, by branch and
/// bound — or by the Gray walk below when the power model voids the
/// admissible bounds (EvalContext::bounds_admissible).  Ties are broken
/// towards the smallest assignment code (output i negative iff bit i set) —
/// exactly the seed scan's first-minimum-in-code-order — so the result is
/// thread-count independent.
[[nodiscard]] SearchResult exhaustive_min_power(const AssignmentEvaluator& evaluator,
                                                const ExhaustiveOptions& options);

/// Exact minimum-area assignment over all 2^P candidates.
[[nodiscard]] SearchResult exhaustive_min_area(const AssignmentEvaluator& evaluator,
                                               const ExhaustiveOptions& options);

/// The unpruned 2^P Gray-code walk: the reference the pruned search is
/// verified against, and its fallback under inadmissible bounds.  Same
/// limit and tie-break as above; a node budget below 2^P is refused up front.
[[nodiscard]] SearchResult exhaustive_gray_walk(const AssignmentEvaluator& evaluator,
                                                bool by_power,
                                                const ExhaustiveOptions& options);

/// Convenience overloads with a bare output-count limit.
[[nodiscard]] SearchResult exhaustive_min_power(
    const AssignmentEvaluator& evaluator,
    std::size_t limit = kDefaultPrunedExhaustiveLimit);
[[nodiscard]] SearchResult exhaustive_min_area(
    const AssignmentEvaluator& evaluator,
    std::size_t limit = kDefaultPrunedExhaustiveLimit);

struct MinAreaOptions {
  std::uint64_t seed = 1;
  /// Use exact branch-and-bound search when #POs <= this (clamped to
  /// kMaxExhaustiveOutputs), falling back to annealing when the node budget
  /// below trips instead.
  std::size_t exhaustive_limit = kDefaultPrunedExhaustiveLimit;
  /// Node budget of the exact search (see ExhaustiveOptions::node_budget);
  /// 0 = unlimited (never fall back on work, only on the output count).
  std::uint64_t node_budget = kDefaultExhaustiveNodeBudget;
  std::size_t anneal_iterations = 0;  ///< 0 = auto (scales with #POs)
  unsigned restarts = 2;
  /// Worker threads (exhaustive sharding / concurrent annealing restarts);
  /// 0 = one per hardware thread.  The result is identical for every value.
  unsigned num_threads = 1;
};

[[nodiscard]] SearchResult min_area_assignment(const AssignmentEvaluator& evaluator,
                                               const MinAreaOptions& options = {});

// -- distributed work-unit entry points (src/dist/) ---------------------------
// The branch-and-bound prefix tree decomposes exactly: fixing the first
// `frontier_depth` phases (in the plan's largest-cone-first order) yields
// 2^frontier_depth independent subtrees whose best leaves merge by the same
// lexicographic (metric, code) order the single-process search uses.  The
// entry points below expose one subtree as a self-contained unit of work so
// src/dist/ can ship it across machines.  Each unit runs single-threaded
// and, when `channel` is null, prunes only against its bound snapshot plus
// its own discoveries — making the result *and* the work counters pure
// functions of the unit description.  Min-area search always runs locally
// (min_area_assignment).

/// Cross-process incumbent exchange for subtree units.  `current()` returns
/// the best metric known externally (+inf when none); `publish()` reports a
/// local improvement.  Sharing an incumbent never changes the merged result
/// (pruning is strict, so no subtree containing a tied-or-better leaf is ever
/// cut) — only the work counters, which become timing-dependent exactly as
/// they already are for num_threads > 1.
class IncumbentChannel {
 public:
  virtual ~IncumbentChannel() = default;
  [[nodiscard]] virtual double current() = 0;
  virtual void publish(double metric) = 0;
};

/// The deterministic preamble of a branch-and-bound search: the all-positive
/// base metric, the admissible root lower bound, and the greedy + descent
/// incumbent seed.  Identical to the seed the in-process search computes, so
/// a coordinator can price units and a merged distributed result can include
/// the seed candidate bit-identically.
struct BnbSeed {
  double base_metric = 0.0;
  double root_bound = 0.0;
  double seed_metric = 0.0;
  std::uint64_t seed_code = 0;
  std::size_t seed_evaluations = 0;
  /// False when the evaluator's power model breaks bound admissibility
  /// (docs/search.md); subtree pruning would be unsound, so distributed
  /// callers must fall back to a local Gray walk.
  bool admissible = false;
};
[[nodiscard]] BnbSeed plan_bnb_seed(const AssignmentEvaluator& evaluator,
                                    bool by_power);

struct BnbSubtreeOptions {
  /// Owned prefix: the low `frontier_depth` bits fix the phases of the first
  /// `frontier_depth` plan-ordered outputs (bit d set = non-preferred phase).
  std::uint64_t task = 0;
  std::size_t frontier_depth = 0;
  /// Initial incumbent (typically the seed metric).  Leaves tied with the
  /// snapshot are still enumerated — pruning is strict — so the merge keeps
  /// the code-order tie-break exact.
  double bound_snapshot = std::numeric_limits<double>::infinity();
  /// Abort flag after this many expanded nodes (0 = unlimited).  The trip
  /// point is deterministic when `channel` is null.
  std::uint64_t node_budget = 0;
  IncumbentChannel* channel = nullptr;  ///< optional live incumbent exchange
};

struct BnbSubtreeResult {
  /// Best leaf of the subtree: +inf metric / ~0 code when everything pruned.
  double metric = std::numeric_limits<double>::infinity();
  std::uint64_t code = ~0ULL;
  std::uint64_t leaves = 0;  ///< exactly-evaluated complete assignments
  std::uint64_t nodes_expanded = 0;
  std::uint64_t subtrees_pruned = 0;
  /// True when the node budget tripped: counters cover the truncated walk
  /// and `metric` is only a lower-bound-respecting partial best.
  bool budget_tripped = false;
};

/// Run one branch-and-bound subtree to completion (single-threaded).
/// Requires admissible bounds (plan_bnb_seed().admissible) and
/// frontier_depth <= min(#POs, kMaxExhaustiveOutputs); throws
/// std::invalid_argument otherwise.
[[nodiscard]] BnbSubtreeResult run_bnb_subtree(const AssignmentEvaluator& evaluator,
                                               bool by_power,
                                               const BnbSubtreeOptions& options);

/// Phase-code <-> assignment mapping shared by every exhaustive search:
/// output i is negative iff bit i of the code is set.
[[nodiscard]] PhaseAssignment assignment_from_phase_code(std::uint64_t code,
                                                         std::size_t num_pos);
[[nodiscard]] std::uint64_t phase_code_of(const PhaseAssignment& phases);

/// How candidate pairs/combos are chosen in the min-power loop (the paper's
/// §4.1 uses the cost function; the others are ablation baselines).
enum class GuidanceMode : std::uint8_t {
  kCostFunction,  ///< paper: pick globally min-K (pair, combo), measure, commit
  kMeasureAll,    ///< oracle: measure all 4 combos of each pair (expensive)
  kRandom,        ///< random pair order and combo (null hypothesis)
};

struct MinPowerOptions {
  PhaseAssignment initial;  ///< empty = all positive
  GuidanceMode guidance = GuidanceMode::kCostFunction;
  std::uint64_t seed = 1;
  /// After the pairwise §4.1 loop, run a greedy single-output descent until
  /// no flip improves.  This is the paper's own suggested extension ("the
  /// cost function can be extended ... reduces to a greedily ordered
  /// exhaustive search") and costs O(#POs) measurements per round.
  bool polish_descent = true;
};

struct MinPowerResult {
  PhaseAssignment assignment;
  AssignmentCost cost;            ///< final cost
  double initial_power = 0.0;
  double final_power = 0.0;
  /// Candidate measurements (evaluations), accepted candidates (commits)
  /// and the commit-path counters.
  SearchCounters counters;
};

/// The paper's minimum-power phase assignment heuristic (§4.1).
/// `overlap` must be built from the same network as `evaluator`.
[[nodiscard]] MinPowerResult min_power_assignment(
    const AssignmentEvaluator& evaluator, const ConeOverlap& overlap,
    const MinPowerOptions& options = {});

}  // namespace dominosyn
