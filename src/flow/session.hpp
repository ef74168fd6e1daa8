/// \file session.hpp
/// Staged flow sessions: the §5 pipeline broken into explicit, lazily cached
/// stages over one normalized network.
///
/// `run_flow` runs synthesis → probabilities → phase search → mapping →
/// measurement monolithically, so an MA/MP/exhaustive comparison re-runs the
/// expensive shared prefix — technology-independent synthesis, sequential
/// partitioning and BDD-exact signal probabilities, and the incremental
/// `EvalContext` build — once per mode.  A `FlowSession` owns the normalized
/// network and caches each stage artifact the first time it is needed:
///
///   synthesized()    the 2-input AND/OR/NOT form (compact + standard_synthesis)
///   probabilities()  SeqProbOptions-derived signal probabilities / BDDs
///   evaluator()      the shared incremental-evaluation EvalContext
///   assign(mode)     the phase search result for one PhaseMode
///   map(mode)        domino synthesis + technology mapping (+ resize) + STA
///   measure(mode)    simulated power on the mapped netlist
///   report(mode)     the composed FlowReport (same fields as run_flow)
///
/// Later stages pull earlier ones on demand, so `assign(kMinArea)` followed by
/// `assign(kMinPower)` synthesizes and builds probabilities exactly once — and
/// the min-power search seeds from the *cached* min-area stage instead of
/// re-running that search.  Every cached artifact is bit-identical to what a
/// fresh `run_flow` call would compute; `run_flow` itself is now a thin
/// wrapper over a one-shot session.
///
/// `set_options` re-points the session at new `FlowOptions` and invalidates
/// exactly the stages whose inputs changed (e.g. a new `clock_period` keeps
/// the phase assignments and only re-runs mapping + measurement; a new
/// `pi_prob` drops everything downstream of the probabilities).
///
/// Sessions are single-threaded objects: stage building is not internally
/// synchronized.  Thread parallelism lives *inside* the searches
/// (`FlowOptions::num_threads`) and *across* sessions (`run_flow_batch` in
/// flow/batch.hpp, the serving core in server/core.hpp); multi-threaded
/// callers hold a `SessionCache::Lease`, whose per-key lock serializes all
/// use of one session.

#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "flow/flow.hpp"

namespace dominosyn {

class FlowSession {
 public:
  /// Result of the phase-assignment stage for one mode.
  struct AssignStage {
    PhaseMode mode = PhaseMode::kMinPower;
    PhaseAssignment assignment;
    AssignmentCost cost;  ///< full evaluation of the final assignment (§4.2)
    std::size_t negative_outputs = 0;
    /// The search's work counters; kMinPower's evaluations include the
    /// min-area seeding search when it starts from [15]'s result.
    SearchCounters search;
  };

  /// Result of domino synthesis + technology mapping (+ optional resize).
  struct MapStage {
    PhaseMode mode = PhaseMode::kMinPower;
    MappedNetlist netlist;  ///< post-resize when clock_period > 0
    bool equivalence_ok = true;
    bool timing_met = true;
    std::size_t resize_moves = 0;
    double critical_delay = 0.0;
    std::size_t cells = 0;
    double area = 0.0;
  };

  /// Result of the simulated power measurement on the mapped netlist.
  struct MeasureStage {
    PhaseMode mode = PhaseMode::kMinPower;
    PowerBreakdown breakdown;  ///< includes clock load if count_clock_load
    double total = 0.0;
  };

  /// Stage-build counters: how many times each artifact was actually
  /// (re)computed over the session's lifetime.  An MA+MP+exhaustive sweep on
  /// one session must report synth/prob/context builds of exactly 1.
  struct Stats {
    std::size_t synth_builds = 0;
    std::size_t prob_builds = 0;
    std::size_t context_builds = 0;
    std::size_t assign_searches = 0;
    std::size_t map_runs = 0;
    std::size_t measure_runs = 0;
  };

  /// The session owns its copy of the input network; it is normalized lazily
  /// on first use (via standard_synthesis if not already in 2-input
  /// AND/OR/NOT form).
  FlowSession(Network input, FlowOptions options);

  // The EvalContext references the session-owned synthesized network, so the
  // session must not move.
  FlowSession(const FlowSession&) = delete;
  FlowSession& operator=(const FlowSession&) = delete;

  [[nodiscard]] const std::string& circuit() const noexcept { return circuit_; }
  [[nodiscard]] const FlowOptions& options() const noexcept { return options_; }

  /// Re-points the session at new options, invalidating exactly the cached
  /// stages whose inputs changed.  Thread-count changes never invalidate
  /// (results are thread-count independent by contract).
  void set_options(const FlowOptions& options);

  // -- staged entry points (each builds + caches on first call) ---------------

  /// Stage 1: the normalized 2-input network.
  [[nodiscard]] const Network& synthesized();
  /// Stage 2: sequential-aware signal probabilities (BDD-exact when feasible).
  [[nodiscard]] const SeqProbResult& probabilities();
  /// Stage 3: the shared incremental-evaluation context.
  [[nodiscard]] const AssignmentEvaluator& evaluator();
  /// Pairwise cone overlaps O(i,j) of the synthesized network (§4.1); built
  /// once, shared by every min-power search on this session.
  [[nodiscard]] const ConeOverlap& cone_overlap();

  [[nodiscard]] const AssignStage& assign(PhaseMode mode);
  [[nodiscard]] const MapStage& map(PhaseMode mode);
  [[nodiscard]] const MeasureStage& measure(PhaseMode mode);

  /// Composes assign/map/measure into the classic FlowReport.  Cached stages
  /// are reused, so the second report on a session is nearly free; `seconds`
  /// covers only the work this call actually did.
  [[nodiscard]] FlowReport report(PhaseMode mode);
  [[nodiscard]] FlowReport report() { return report(options_.mode); }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::size_t kNumModes = 4;
  [[nodiscard]] static std::size_t mode_index(PhaseMode mode) noexcept {
    return static_cast<std::size_t>(mode);
  }

  void invalidate_from_probs();
  void invalidate_from_context();
  void invalidate_assignments();
  void invalidate_maps();
  void invalidate_measures();

  std::string circuit_;
  /// Raw input, held only until the synth stage consumes it (the synth stage
  /// is never invalidated, so the raw form is dead weight afterwards).
  std::optional<Network> input_;
  FlowOptions options_;
  Stats stats_;

  std::optional<Network> synth_;
  std::optional<SeqProbResult> probs_;
  std::optional<AssignmentEvaluator> evaluator_;
  std::optional<ConeOverlap> overlap_;
  std::optional<AssignStage> assign_[kNumModes];
  std::optional<MapStage> map_[kNumModes];
  std::optional<MeasureStage> measure_[kNumModes];
};

}  // namespace dominosyn
