/// \file search.cpp

#include "dist/search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "blif/blif.hpp"
#include "network/network.hpp"
#include "obs/trace.hpp"
#include "phase/eval.hpp"
#include "util/codec.hpp"
#include "util/thread_pool.hpp"

namespace dominosyn::dist {

namespace {

/// Incumbent exchange backed directly by an in-process coordinator, used by
/// participating driver threads in shared-bounds mode.
class CoordChannel final : public IncumbentChannel {
 public:
  CoordChannel(DistCoordinator& coordinator, std::uint64_t job_id,
               std::string worker)
      : coordinator_(coordinator), job_id_(job_id), worker_(std::move(worker)) {}

  [[nodiscard]] double current() override {
    return coordinator_.current_incumbent(job_id_);
  }

  void publish(double metric) override {
    coordinator_.push_incumbent(worker_, job_id_, metric);
  }

 private:
  DistCoordinator& coordinator_;
  std::uint64_t job_id_;
  std::string worker_;
};

/// Leases and runs units on this process until `done`; shared by the
/// participation threads and the stall-takeover path.
void drain_units(const AssignmentEvaluator& evaluator,
                 DistCoordinator& coordinator, std::uint64_t job_id,
                 const std::string& worker, bool shared_bounds) {
  CoordChannel channel(coordinator, job_id, worker);
  while (auto grant = coordinator.lease(worker, job_id)) {
    const UnitResult result = run_work_unit(
        evaluator, grant->unit, shared_bounds ? &channel : nullptr);
    coordinator.complete(worker, result);
  }
}

/// Waits for the job to resolve while sweeping expired leases.  With
/// participate, `threads` helper threads lease from the coordinator like any
/// worker; without, the driver takes over inline after stall_takeover_ms of
/// fabric inactivity so a worker-less (or worker-lost) fabric still finishes.
JobResult run_and_wait(const AssignmentEvaluator& evaluator,
                       DistCoordinator& coordinator,
                       DistCoordinator::OpenedJob& job,
                       const DistSearchOptions& dist, unsigned num_threads) {
  std::atomic<bool> done{false};
  std::vector<std::thread> helpers;
  if (dist.participate) {
    const unsigned count = ThreadPool::resolve_threads(num_threads);
    helpers.reserve(count);
    for (unsigned k = 0; k < count; ++k) {
      helpers.emplace_back([&, k] {
        const std::string worker = "inline#" + std::to_string(k);
        while (!done.load(std::memory_order_relaxed)) {
          drain_units(evaluator, coordinator, job.job_id, worker,
                      dist.shared_bounds);
          if (done.load(std::memory_order_relaxed)) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
  }

  using Clock = std::chrono::steady_clock;
  std::uint64_t last_activity = coordinator.activity();
  Clock::time_point last_progress = Clock::now();
  for (;;) {
    if (job.future.wait_for(std::chrono::milliseconds(20)) ==
        std::future_status::ready)
      break;
    coordinator.sweep();
    const std::uint64_t activity = coordinator.activity();
    const Clock::time_point now = Clock::now();
    if (activity != last_activity) {
      last_activity = activity;
      last_progress = now;
    } else if (!dist.participate &&
               now - last_progress >=
                   std::chrono::milliseconds(dist.stall_takeover_ms)) {
      drain_units(evaluator, coordinator, job.job_id, "driver",
                  dist.shared_bounds);
      last_progress = Clock::now();
    }
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& helper : helpers) helper.join();

  JobResult result = job.future.get();
  if (result.cancelled)
    throw DistSearchError("distributed job cancelled (coordinator shut down)");
  if (!result.error.empty())
    throw DistSearchError("distributed work unit failed: " + result.error);
  return result;
}

SearchResult local_exhaustive(const AssignmentEvaluator& evaluator,
                              bool by_power, const ExhaustiveOptions& options) {
  return by_power ? exhaustive_min_power(evaluator, options)
                  : exhaustive_min_area(evaluator, options);
}

}  // namespace

std::string assignment_to_string(const PhaseAssignment& phases) {
  std::string out;
  out.reserve(phases.size());
  for (const Phase phase : phases)
    out += phase == Phase::kPositive ? '+' : '-';
  return out;
}

UnitResult run_work_unit(const AssignmentEvaluator& evaluator,
                         const WorkUnit& unit, IncumbentChannel* channel) {
  // Adopt the originating request's trace id so the unit's spans (and any
  // engine spans beneath it) land on its timeline — whether this runs on a
  // driver thread, an in-process helper, or a remote worker.
  const obs::TraceContext trace_context(unit.trace_id);
  const obs::TraceSpan span("dist.unit", obs::SpanCat::kDist);
  UnitResult out;
  out.job_id = unit.job_id;
  out.unit_id = unit.unit_id;
  try {
    BnbSubtreeOptions options;
    options.task = unit.task;
    options.frontier_depth = unit.frontier_depth;
    options.bound_snapshot = unit.bound_snapshot;
    options.node_budget = unit.node_budget;
    options.channel = unit.shared_bounds ? channel : nullptr;
    const BnbSubtreeResult result =
        run_bnb_subtree(evaluator, unit.by_power, options);
    out.metric = result.metric;
    out.code = result.code;
    out.leaves = result.leaves;
    out.nodes_expanded = result.nodes_expanded;
    out.subtrees_pruned = result.subtrees_pruned;
    out.budget_tripped = result.budget_tripped;
  } catch (const std::exception& error) {
    out.ok = false;
    out.error = error.what();
  }
  return out;
}

SearchResult dist_exhaustive_search(const AssignmentEvaluator& evaluator,
                                    bool by_power,
                                    const ExhaustiveOptions& options,
                                    const DistSearchOptions& dist) {
  if (!dist.enabled || dist.coordinator == nullptr)
    throw DistSearchError("distributed search has no coordinator");
  if (dist.frontier_depth > kMaxFrontierDepth)
    throw DistSearchError("frontier depth " +
                          std::to_string(dist.frontier_depth) +
                          " exceeds the limit of " +
                          std::to_string(kMaxFrontierDepth));

  // Mirror the local dispatch exactly so refusals and degenerate cases are
  // indistinguishable from a single-process run.
  const std::size_t num_pos = evaluator.network().num_pos();
  const std::size_t limit =
      std::min(options.max_outputs, kMaxExhaustiveOutputs);
  if (num_pos > limit) throw ExhaustiveLimitError(num_pos, limit);
  if (num_pos == 0 || !evaluator.context()->bounds_admissible())
    return local_exhaustive(evaluator, by_power, options);

  const BnbSeed seed = plan_bnb_seed(evaluator, by_power);
  // Every unit names the circuit by key; a worker fetches the evaluator's
  // own inputs once, its synthesized network and probabilities, so it
  // scores units on exactly this evaluator's numbers.  A payload over the
  // protocol's line cap could never be fetched, so such a job never opens.
  CircuitKey key = dist.circuit.key;
  key.fingerprint = network_fingerprint(evaluator.network());
  std::string payload = format_circuit_payload(
      key, blif::write_string(evaluator.network()), evaluator.probs());
  if (payload.size() >= codec::kMaxLineLength)
    throw DistSearchError("circuit payload of " +
                          std::to_string(payload.size()) +
                          " bytes exceeds the protocol line limit of " +
                          std::to_string(codec::kMaxLineLength));

  const std::size_t frontier = std::min(dist.frontier_depth, num_pos);
  const std::uint64_t num_units = 1ULL << frontier;
  std::vector<WorkUnit> units(static_cast<std::size_t>(num_units));
  for (std::uint64_t task = 0; task < num_units; ++task) {
    WorkUnit& unit = units[static_cast<std::size_t>(task)];
    unit.by_power = by_power;
    unit.task = task;
    unit.frontier_depth = static_cast<std::uint32_t>(frontier);
    // Every unit starts from the same seed incumbent; with strict pruning
    // this makes each unit's result (and counters) worker-independent.
    unit.bound_snapshot = seed.seed_metric;
    unit.node_budget = options.node_budget;
    unit.shared_bounds = dist.shared_bounds;
    unit.trace_id = obs::current_trace_id();
    unit.circuit = key;
  }

  DistCoordinator::OpenedJob job = dist.coordinator->open_job(
      std::move(units), dist.lease_timeout_ms, dist.rid, std::move(payload));
  const JobResult outcome = run_and_wait(evaluator, *dist.coordinator, job,
                                         dist, options.num_threads);

  // Deterministic merge: lexicographic (metric, code) minimum over the seed
  // candidate and every unit, in unit order — the single-process tie-break.
  const obs::TraceSpan merge_span("dist.merge", obs::SpanCat::kDist);
  double best_metric = seed.seed_metric;
  std::uint64_t best_code = seed.seed_code;
  SearchResult best;
  best.counters.evaluations = seed.seed_evaluations;
  std::uint64_t expanded = 0;
  bool tripped = false;
  for (const UnitResult& unit : outcome.units) {
    if (unit.metric < best_metric ||
        (unit.metric == best_metric && unit.code < best_code)) {
      best_metric = unit.metric;
      best_code = unit.code;
    }
    best.counters.evaluations += static_cast<std::size_t>(unit.leaves);
    best.counters.subtrees_pruned +=
        static_cast<std::size_t>(unit.subtrees_pruned);
    expanded += unit.nodes_expanded;
    tripped = tripped || unit.budget_tripped;
  }
  // The budget is global: the trip point is the deterministic merge-time sum
  // (unlike the local search's shared live counter — see docs/distributed.md).
  if (tripped || (options.node_budget != 0 && expanded > options.node_budget))
    throw ExhaustiveBudgetError(expanded, options.node_budget);

  best.assignment = assignment_from_phase_code(best_code, num_pos);
  best.cost = evaluator.evaluate(best.assignment);
  best.counters.nodes_expanded = static_cast<std::size_t>(expanded);
  best.counters.bound_tightness =
      best_metric > 0.0 ? seed.root_bound / best_metric
                        : (seed.root_bound == best_metric ? 1.0 : 0.0);
  return best;
}

}  // namespace dominosyn::dist
