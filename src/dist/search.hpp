/// \file search.hpp
/// The distributed driver of the exact phase-assignment search: split the
/// branch-and-bound enumeration into subtree work units (dist/workunit.hpp),
/// open a job on a coordinator, optionally run units on the submitting
/// process's own threads, and merge the completed units deterministically.
/// The flow sends only its exact power searches here (mode=mp's exact search
/// and mode=exhaustive); min-area search always runs locally.
///
/// Determinism contract (docs/distributed.md): the merged (cost, assignment,
/// tie-break) is bit-identical to the single-process search for every worker
/// count, thread count and steal interleaving.  The units fix disjoint
/// prefixes of the same plan order and prune strictly, so every leaf tied
/// with the global optimum survives in exactly one unit; the merge takes the
/// lexicographic (metric, code) minimum over the seed candidate and the
/// units in unit order.  Without shared bounds the per-unit work counters
/// are pure functions of the unit too, so the summed telemetry is
/// reproducible across every topology.
///
/// Any fabric-level failure (no coordinator, cancelled job, failed unit)
/// throws DistSearchError; the flow's assign stage catches it and falls back
/// to the local search, so distribution never turns a working flow into an
/// error.

#pragma once

#include <stdexcept>
#include <string>

#include "dist/coordinator.hpp"
#include "dist/options.hpp"
#include "dist/workunit.hpp"
#include "phase/search.hpp"

namespace dominosyn::dist {

/// Fabric-level failure: no usable coordinator, a frontier deeper than
/// kMaxFrontierDepth, a circuit payload too large to fetch, job cancelled by
/// shutdown, or a unit failed remotely.  Callers fall back locally.
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
/// Splits the branch-and-bound enumeration at dist.frontier_depth (clamped
/// to the output count) into 2^depth subtree units, named by
/// dist.circuit.key with the evaluator network's fingerprint stamped in;
/// workers fetch the evaluator's network and probabilities once per job.  A
/// depth above kMaxFrontierDepth, or a circuit payload at or above the
/// protocol line cap (codec::kMaxLineLength), throws DistSearchError before
/// any job opens.
/// Degenerate cases (no outputs, non-admissible bounds) run the local search
/// directly.  Throws the same ExhaustiveLimitError / ExhaustiveBudgetError
/// contracts as the local search, plus DistSearchError on fabric failures.
[[nodiscard]] SearchResult dist_exhaustive_search(
    const AssignmentEvaluator& evaluator, bool by_power,
    const ExhaustiveOptions& options, const DistSearchOptions& dist);

/// '+'/'-' encoding of a phase assignment (output i positive = '+').
[[nodiscard]] std::string assignment_to_string(const PhaseAssignment& phases);

}  // namespace dominosyn::dist
