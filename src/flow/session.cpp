#include "flow/session.hpp"

#include <algorithm>
#include <stdexcept>

#include "dist/search.hpp"
#include "network/synth.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace dominosyn {

namespace {

// -- option-field equality, per stage -----------------------------------------
// Each stage is invalidated iff one of *its* inputs changed.  Thread counts
// are deliberately excluded everywhere: searches are deterministic in the
// seed and independent of the thread count, so re-running them for a
// num_threads change would only waste the cache.  FlowOptions::dist is
// excluded for the same reason — the distributed searches merge to results
// bit-identical to a local run (docs/distributed.md), so toggling the fabric
// or its topology must not invalidate cached assignments.

bool same_penalty(const GateTypePenalty& a, const GateTypePenalty& b) {
  return a.and_mult == b.and_mult && a.or_mult == b.or_mult &&
         a.and_add == b.and_add && a.or_add == b.or_add;
}

bool same_model(const PowerModelConfig& a, const PowerModelConfig& b) {
  return a.gate_cap == b.gate_cap && a.inverter_cap == b.inverter_cap &&
         a.clock_cap_per_gate == b.clock_cap_per_gate &&
         same_penalty(a.penalty, b.penalty) &&
         a.domino_driven_inverter_edges == b.domino_driven_inverter_edges &&
         a.load_aware == b.load_aware && a.wire_cap == b.wire_cap &&
         a.pin_cap == b.pin_cap && a.po_cap == b.po_cap;
}

bool same_seqprob(const SeqProbOptions& a, const SeqProbOptions& b) {
  return a.mfvs.use_symmetry == b.mfvs.use_symmetry &&
         a.mfvs.verify == b.mfvs.verify &&
         a.cut_latch_prob == b.cut_latch_prob &&
         a.fixpoint_sweeps == b.fixpoint_sweeps && a.ordering == b.ordering;
}

bool same_minarea(const MinAreaOptions& a, const MinAreaOptions& b) {
  return a.seed == b.seed && a.exhaustive_limit == b.exhaustive_limit &&
         a.node_budget == b.node_budget &&
         a.anneal_iterations == b.anneal_iterations && a.restarts == b.restarts;
}

bool same_minpower(const MinPowerOptions& a, const MinPowerOptions& b) {
  return a.initial == b.initial && a.guidance == b.guidance &&
         a.seed == b.seed && a.polish_descent == b.polish_descent;
}

bool same_map_options(const MapOptions& a, const MapOptions& b) {
  return a.max_and_arity == b.max_and_arity && a.max_or_arity == b.max_or_arity;
}

// node_caps is excluded: the measure stage overwrites it with the mapped
// netlist's loads.
bool same_sim(const SimPowerOptions& a, const SimPowerOptions& b) {
  return a.steps == b.steps && a.warmup == b.warmup && a.seed == b.seed &&
         same_model(a.model, b.model);
}

bool probs_inputs_equal(const FlowOptions& a, const FlowOptions& b) {
  return a.pi_prob == b.pi_prob && same_seqprob(a.seqprob, b.seqprob);
}

bool context_inputs_equal(const FlowOptions& a, const FlowOptions& b) {
  return same_model(a.model, b.model);
}

/// Whether the fabric's workers score units on this session's numbers.  A
/// worker prepares the spec's circuit in a FlowSession with default options
/// plus the spec's pi_prob and load_aware (DistWorker::evaluator_for).  A
/// session whose probabilities or model differ from that searches locally,
/// or the merge would mix units scored on different numbers.
bool fabric_replays(const FlowOptions& options) {
  FlowOptions replayed;
  replayed.pi_prob = options.dist.circuit.key.pi_prob;
  replayed.model.load_aware = options.dist.circuit.key.load_aware;
  return probs_inputs_equal(options, replayed) &&
         context_inputs_equal(options, replayed);
}

bool assign_inputs_equal(const FlowOptions& a, const FlowOptions& b) {
  return same_minarea(a.minarea, b.minarea) &&
         same_minpower(a.minpower, b.minpower) &&
         a.exhaustive_pos_limit == b.exhaustive_pos_limit &&
         a.exhaustive_node_budget == b.exhaustive_node_budget;
}

bool map_inputs_equal(const FlowOptions& a, const FlowOptions& b) {
  return same_map_options(a.map_options, b.map_options) &&
         a.clock_period == b.clock_period && a.wire_cap == b.wire_cap;
}

bool measure_inputs_equal(const FlowOptions& a, const FlowOptions& b) {
  return same_sim(a.sim, b.sim) && a.count_clock_load == b.count_clock_load;
}

const CellLibrary& flow_library() {
  static const CellLibrary library = CellLibrary::generic();
  return library;
}

}  // namespace

FlowSession::FlowSession(Network input, FlowOptions options)
    : circuit_(input.name()),
      input_(std::move(input)),
      options_(std::move(options)) {}

void FlowSession::set_options(const FlowOptions& options) {
  const bool probs_stale = !probs_inputs_equal(options_, options);
  const bool context_stale = probs_stale || !context_inputs_equal(options_, options);
  const bool assigns_stale = context_stale || !assign_inputs_equal(options_, options);
  const bool maps_stale = assigns_stale || !map_inputs_equal(options_, options);
  // pi_prob also feeds the measurement's input-vector statistics, so a
  // probability change re-measures even though maps/assigns cover the rest.
  const bool measures_stale = maps_stale || !measure_inputs_equal(options_, options);
  options_ = options;
  if (probs_stale) invalidate_from_probs();
  if (context_stale) invalidate_from_context();
  if (assigns_stale) invalidate_assignments();
  if (maps_stale) invalidate_maps();
  if (measures_stale) invalidate_measures();
}

void FlowSession::invalidate_from_probs() { probs_.reset(); }

void FlowSession::invalidate_from_context() {
  evaluator_.reset();
}

void FlowSession::invalidate_assignments() {
  for (auto& stage : assign_) stage.reset();
}

void FlowSession::invalidate_maps() {
  for (auto& stage : map_) stage.reset();
}

void FlowSession::invalidate_measures() {
  for (auto& stage : measure_) stage.reset();
}

const Network& FlowSession::synthesized() {
  if (!synth_) {
    const obs::TraceSpan span("flow.synth", obs::SpanCat::kFlow);
    Network net = compact_copy(*input_);
    try {
      check_phase_ready(net);
    } catch (const std::runtime_error&) {
      standard_synthesis(net);
    }
    synth_.emplace(std::move(net));
    input_.reset();
    ++stats_.synth_builds;
  }
  return *synth_;
}

const SeqProbResult& FlowSession::probabilities() {
  if (!probs_) {
    const Network& net = synthesized();
    const obs::TraceSpan span("flow.probs", obs::SpanCat::kFlow);
    const std::vector<double> pi_probs(net.num_pis(), options_.pi_prob);
    probs_.emplace(
        sequential_signal_probabilities(net, pi_probs, options_.seqprob));
    ++stats_.prob_builds;
  }
  return *probs_;
}

const AssignmentEvaluator& FlowSession::evaluator() {
  if (!evaluator_) {
    const Network& net = synthesized();
    const std::vector<double>& probs = probabilities().node_probs;
    const obs::TraceSpan span("flow.evaluator", obs::SpanCat::kFlow);
    evaluator_.emplace(net, probs, options_.model);
    ++stats_.context_builds;
  }
  return *evaluator_;
}

const ConeOverlap& FlowSession::cone_overlap() {
  if (!overlap_) overlap_.emplace(synthesized());
  return *overlap_;
}

const FlowSession::AssignStage& FlowSession::assign(PhaseMode mode) {
  auto& slot = assign_[mode_index(mode)];
  if (slot) return *slot;

  const obs::TraceSpan span("flow.assign", obs::SpanCat::kFlow);
  const AssignmentEvaluator& eval = evaluator();
  const std::size_t num_pos = eval.network().num_pos();

  // The mode's search, its exact power searches on the fabric or here; the
  // min-area search always runs here.
  const auto search = [&](bool on_fabric) {
    const auto exact_min_power = [&](const ExhaustiveOptions& exhaustive) {
      return on_fabric ? dist::dist_exhaustive_search(eval, /*by_power=*/true,
                                                      exhaustive, options_.dist)
                       : exhaustive_min_power(eval, exhaustive);
    };
    ExhaustiveOptions exhaustive;
    exhaustive.num_threads = options_.num_threads;
    switch (mode) {
      case PhaseMode::kAllPositive:
        break;
      case PhaseMode::kMinArea: {
        MinAreaOptions minarea = options_.minarea;
        minarea.num_threads = options_.num_threads;
        return min_area_assignment(eval, minarea);
      }
      case PhaseMode::kMinPower: {
        if (min_power_searches_exactly(options_, num_pos)) {
          exhaustive.max_outputs = options_.exhaustive_pos_limit;
          exhaustive.node_budget = options_.exhaustive_node_budget;
          try {
            return exact_min_power(exhaustive);
          } catch (const ExhaustiveBudgetError&) {
            // Bound too loose within the work budget: fall back to §4.1.
          }
        }
        MinPowerOptions minpower = options_.minpower;
        std::size_t seed_evals = 0;
        if (minpower.initial.empty()) {
          // The seeding search *is* the min-area stage: compute (or reuse)
          // it through the cache, so MA→MP sweeps never run [15]'s search
          // twice.
          const AssignStage& ma = assign(PhaseMode::kMinArea);
          minpower.initial = ma.assignment;
          seed_evals = ma.search.evaluations;
        }
        const MinPowerResult heuristic =
            min_power_assignment(eval, cone_overlap(), minpower);
        SearchResult result{heuristic.assignment, heuristic.cost,
                            heuristic.counters};
        result.counters.evaluations += seed_evals;
        return result;
      }
      case PhaseMode::kExhaustivePower:
        // Explicitly-requested exact search runs unbudgeted: a silent
        // heuristic fallback would betray the mode's contract.
        exhaustive.max_outputs = std::max(options_.exhaustive_pos_limit,
                                          kDefaultPrunedExhaustiveLimit);
        return exact_min_power(exhaustive);
    }
    SearchResult all_positive_result;
    all_positive_result.assignment = all_positive(eval.network());
    return all_positive_result;
  };

  // Decided once: the fabric runs the search only when its workers replay
  // this session's numbers.  A fabric failure (no workers, cancelled by
  // shutdown, failed unit) reruns the identical-result local search instead
  // of failing the flow.
  const bool on_fabric = options_.dist.enabled &&
                         options_.dist.coordinator != nullptr &&
                         fabric_replays(options_);
  SearchResult result;
  try {
    result = search(on_fabric);
  } catch (const dist::DistSearchError&) {
    result = search(false);
  }
  AssignStage stage;
  stage.mode = mode;
  stage.assignment = std::move(result.assignment);
  stage.search = result.counters;
  for (const Phase phase : stage.assignment)
    if (phase == Phase::kNegative) ++stage.negative_outputs;
  stage.cost = eval.evaluate(stage.assignment);

  ++stats_.assign_searches;
  slot.emplace(std::move(stage));
  return *slot;
}

const FlowSession::MapStage& FlowSession::map(PhaseMode mode) {
  auto& slot = map_[mode_index(mode)];
  if (slot) return *slot;

  const AssignStage& assigned = assign(mode);
  const Network& net = synthesized();

  const obs::TraceSpan span("flow.map", obs::SpanCat::kFlow);
  MapStage stage;
  stage.mode = mode;
  const DominoSynthesisResult domino = synthesize_domino(net, assigned.assignment);
  stage.equivalence_ok = random_equivalent(net, domino.net);

  MapResult mapped = map_network(domino.net, flow_library(), options_.map_options);
  if (options_.clock_period > 0.0) {
    const ResizeResult resize = resize_to_meet(
        mapped.netlist, options_.clock_period, options_.wire_cap);
    stage.timing_met = resize.met;
    stage.resize_moves = resize.upsized;
  }
  const TimingResult timing =
      sta(mapped.netlist, options_.clock_period, options_.wire_cap);
  stage.critical_delay = timing.critical_delay;
  stage.cells = mapped.netlist.cell_count();
  stage.area = mapped.netlist.total_area();
  stage.netlist = std::move(mapped.netlist);

  ++stats_.map_runs;
  slot.emplace(std::move(stage));
  return *slot;
}

const FlowSession::MeasureStage& FlowSession::measure(PhaseMode mode) {
  auto& slot = measure_[mode_index(mode)];
  if (slot) return *slot;

  const MapStage& mapped = map(mode);

  const obs::TraceSpan span("flow.measure", obs::SpanCat::kFlow);
  MeasureStage stage;
  stage.mode = mode;
  SimPowerOptions sim = options_.sim;
  sim.node_caps = mapped.netlist.node_loads(options_.wire_cap);
  const std::vector<double> mapped_pi_probs(mapped.netlist.net.num_pis(),
                                            options_.pi_prob);
  const SimPowerResult measured =
      simulate_domino_power(mapped.netlist.net, mapped_pi_probs, sim);
  stage.breakdown = measured.per_cycle;
  if (options_.count_clock_load)
    stage.breakdown.clock_load += mapped.netlist.clock_load();
  stage.total = stage.breakdown.total();

  ++stats_.measure_runs;
  slot.emplace(std::move(stage));
  return *slot;
}

FlowReport FlowSession::report(PhaseMode mode) {
  Stopwatch stopwatch;
  FlowReport report;
  report.circuit = circuit_;
  report.mode = mode;

  const Network& net = synthesized();
  report.pis = net.num_pis();
  report.pos = net.num_pos();
  report.latches = net.num_latches();
  report.synth_gates = net.num_gates();
  report.used_exact_bdd = probabilities().used_exact_bdd;

  const AssignStage& assigned = assign(mode);
  report.assignment = assigned.assignment;
  report.negative_outputs = assigned.negative_outputs;
  report.search = assigned.search;
  report.est_power = assigned.cost.power.total();
  report.block_gates = assigned.cost.domino_gates;
  report.boundary_inverters =
      assigned.cost.input_inverters + assigned.cost.output_inverters;

  const MapStage& mapped = map(mode);
  report.equivalence_ok = mapped.equivalence_ok;
  report.timing_met = mapped.timing_met;
  report.resize_moves = mapped.resize_moves;
  report.critical_delay = mapped.critical_delay;
  report.cells = mapped.cells;
  report.area = mapped.area;

  const MeasureStage& measured = measure(mode);
  report.sim_breakdown = measured.breakdown;
  report.sim_power = measured.total;

  report.seconds = stopwatch.seconds();
  return report;
}

}  // namespace dominosyn
