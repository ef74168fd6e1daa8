/// \file search.hpp
/// Distributed drivers of the phase-assignment searches: split a search into
/// work units (dist/workunit.hpp), open a job on a coordinator, optionally
/// run units on the submitting process's own threads, and merge the completed
/// units deterministically.
///
/// Determinism contract (docs/distributed.md): the merged (cost, assignment,
/// tie-break) is bit-identical to the single-process search for every worker
/// count, thread count and steal interleaving —
///  * branch-and-bound units fix disjoint prefixes of the same plan order and
///    prune strictly, so every leaf tied with the global optimum survives in
///    exactly one unit; the merge takes the lexicographic (metric, code)
///    minimum over the seed candidate and the units in unit order;
///  * annealing units are seeded pure functions of (master seed, restart
///    index); the merge replays the sequential first-strict-improvement rule
///    in restart order.
/// Without shared bounds the per-unit work counters are pure functions of the
/// unit too, so the summed telemetry is reproducible across every topology.
///
/// Any fabric-level failure (no coordinator, cancelled job, failed unit)
/// throws DistSearchError; FlowSession catches it and falls back to the
/// local search, so distribution never turns a working flow into an error.

#pragma once

#include <stdexcept>
#include <string>

#include "dist/coordinator.hpp"
#include "dist/options.hpp"
#include "dist/workunit.hpp"
#include "phase/search.hpp"

namespace dominosyn::dist {

/// Fabric-level failure: no usable coordinator/circuit spec, job cancelled
/// by shutdown, or a unit failed remotely.  Callers fall back locally.
class DistSearchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Runs one work unit on an evaluator of the unit's circuit — the one engine
/// entry shared by remote workers and in-process participation, so both
/// produce bit-identical unit results.  Exceptions become ok=false results.
/// `channel` is only attached when the unit asked for shared bounds.
[[nodiscard]] UnitResult run_work_unit(const AssignmentEvaluator& evaluator,
                                       const WorkUnit& unit,
                                       IncumbentChannel* channel = nullptr);

/// Distributed exhaustive_min_power / exhaustive_min_area (by_power selects).
/// Splits the branch-and-bound enumeration at options.frontier_depth into
/// 2^depth subtree units.  Degenerate cases (no outputs, Gray-walk request,
/// non-admissible bounds) run the local search directly.  Throws the same
/// ExhaustiveLimitError / ExhaustiveBudgetError contracts as the local
/// search, plus DistSearchError on fabric failures.
[[nodiscard]] SearchResult dist_exhaustive_search(
    const AssignmentEvaluator& evaluator, bool by_power,
    const ExhaustiveOptions& options, const DistSearchOptions& dist);

/// Distributed min_area_assignment: exact branch-and-bound units when the
/// output count allows, annealing-restart units (one per restart) when the
/// budget trips or the count is too large.
[[nodiscard]] SearchResult dist_min_area_assignment(
    const AssignmentEvaluator& evaluator, const MinAreaOptions& options,
    const DistSearchOptions& dist);

/// '+'/'-' encoding of a phase assignment (output i positive = '+'), the
/// wire form annealing unit results carry.
[[nodiscard]] std::string assignment_to_string(const PhaseAssignment& phases);
[[nodiscard]] PhaseAssignment assignment_from_string(const std::string& text);

}  // namespace dominosyn::dist
