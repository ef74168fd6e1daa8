/// \file minarea.cpp
/// Minimum-area phase assignment (the baseline of ref [15]): minimize the
/// standard-cell count of the inverter-free realization.  Also hosts the
/// exact 2^P searches shared with the min-power flow.
///
/// The exact search is a branch-and-bound enumeration of the assignment
/// prefix tree (docs/search.md): the prefix cost is the exact cost of a
/// *partial* EvalState (unassigned outputs contribute nothing, and demand is
/// monotone, so it lower-bounds every completion), the suffix bound is a
/// per-depth sum of admissible per-output minima built from the
/// EvalContext's cost floors and inverted cone index, and subtrees whose
/// bound cannot beat the incumbent are cut.  Workers own disjoint subtrees
/// and exchange the incumbent through one atomic best cost, so pruning
/// tightens globally while the returned (cost, code) pair stays bit-identical
/// to the unpruned Gray-code walk's first-minimum-in-code-order rule at
/// every thread count.  The Gray walk itself remains as the reference
/// (exhaustive_gray_walk) and as the fallback when the bounds are not
/// admissible; annealing restarts run concurrently as before.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <unordered_map>

#include "obs/trace.hpp"
#include "phase/eval.hpp"
#include "phase/search.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dominosyn {

ExhaustiveLimitError::ExhaustiveLimitError(std::size_t num_outputs,
                                           std::size_t limit)
    : std::runtime_error("exhaustive search: " + std::to_string(num_outputs) +
                         " outputs exceed the limit of " +
                         std::to_string(limit) + " (2^P candidates)"),
      num_outputs_(num_outputs),
      limit_(limit) {}

ExhaustiveBudgetError::ExhaustiveBudgetError(std::uint64_t nodes_expanded,
                                             std::uint64_t budget)
    : std::runtime_error("exhaustive search: node budget of " +
                         std::to_string(budget) + " exhausted after " +
                         std::to_string(nodes_expanded) +
                         " expansions (bound too loose)"),
      nodes_expanded_(nodes_expanded),
      budget_(budget) {}

namespace {

/// Assignment whose output i is negative iff bit i of `code` is set — the
/// seed implementation's enumeration encoding.
PhaseAssignment assignment_from_code(std::uint64_t code, std::size_t num_pos) {
  PhaseAssignment phases(num_pos, Phase::kPositive);
  for (std::size_t i = 0; i < num_pos; ++i)
    if ((code >> i) & 1ULL) phases[i] = Phase::kNegative;
  return phases;
}

double metric_of(EvalState& state, bool by_power) {
  return by_power ? state.power_total()
                  : static_cast<double>(state.area_cells());
}

/// Best candidate seen so far: compared (metric, code) lexicographically so
/// ties resolve to the seed scan's first-in-code-order winner.
struct ChunkBest {
  double metric = std::numeric_limits<double>::infinity();
  std::uint64_t code = std::numeric_limits<std::uint64_t>::max();
};

bool better(const ChunkBest& a, const ChunkBest& b) {
  return a.metric < b.metric || (a.metric == b.metric && a.code < b.code);
}

std::uint64_t code_of(const PhaseAssignment& phases) {
  std::uint64_t code = 0;
  for (std::size_t i = 0; i < phases.size(); ++i)
    if (phases[i] == Phase::kNegative) code |= 1ULL << i;
  return code;
}

SearchResult exhaustive_gray(const AssignmentEvaluator& evaluator, bool by_power,
                             const ExhaustiveOptions& options) {
  const std::size_t num_pos = evaluator.network().num_pos();
  SearchResult best;
  const std::uint64_t total = 1ULL << num_pos;
  // A chunk walks positions [begin, end) of the Gray sequence (adjacent
  // positions differ in one output: one O(|cone|) flip each) but remembers
  // its best by the *assignment code* gray(position), so ties resolve to the
  // seed scan's first-in-code-order winner for any thread count.
  ThreadPool pool(options.num_threads);
  const std::uint64_t num_chunks =
      std::min<std::uint64_t>(pool.size(), total);
  std::vector<ChunkBest> chunk_bests(num_chunks);

  // Balanced partition via remainder distribution: never empty while
  // num_chunks <= total, and no uint64 overflow anywhere below the
  // kMaxExhaustiveOutputs ceiling (base * c <= total <= 2^62).
  const std::uint64_t chunk_base = total / num_chunks;
  const std::uint64_t chunk_extra = total % num_chunks;
  pool.parallel_for(static_cast<std::size_t>(num_chunks), [&](std::size_t c) {
    const std::uint64_t begin =
        chunk_base * c + std::min<std::uint64_t>(c, chunk_extra);
    const std::uint64_t end = begin + chunk_base + (c < chunk_extra ? 1 : 0);
    std::uint64_t gray = begin ^ (begin >> 1);
    EvalState state(evaluator.context(), assignment_from_code(gray, num_pos));
    ChunkBest local{metric_of(state, by_power), gray};
    for (std::uint64_t position = begin + 1; position < end; ++position) {
      // Gray step: position differs from its predecessor in exactly output
      // ctz(position).
      const std::size_t flip =
          static_cast<std::size_t>(std::countr_zero(position));
      gray ^= 1ULL << flip;
      state.apply_flip(flip);
      const ChunkBest candidate{metric_of(state, by_power), gray};
      if (better(candidate, local)) local = candidate;
    }
    chunk_bests[c] = local;
  });

  ChunkBest overall = chunk_bests[0];
  for (std::uint64_t c = 1; c < num_chunks; ++c)
    if (better(chunk_bests[c], overall)) overall = chunk_bests[c];

  best.assignment = assignment_from_code(overall.code, num_pos);
  best.cost = evaluator.evaluate(best.assignment);
  best.counters.evaluations = total;
  return best;
}

// -- branch-and-bound enumeration (docs/search.md) ----------------------------

/// Pruning uses a strict comparison against the incumbent, so a subtree is
/// cut only when its lower bound provably exceeds the best cost — equal-cost
/// subtrees always survive and the code tie-break stays exact.  For power
/// metrics the suffix bound is rational arithmetic realized in doubles, so a
/// relative slack absorbs the worst-case rounding of the fixed-shape
/// summation tree (~n·eps, n = #instances) before it could over-bound; area
/// bounds carry fractional owner splits through doubles too and share the
/// slack.  The slack only *weakens* pruning, never correctness.
constexpr double kBoundSlackRel = 1e-9;

/// Branch order, preferred child phases and per-depth suffix bounds of one
/// branch-and-bound run.  All of it is a pure function of the EvalContext
/// and the metric, so the plan — and with it the returned result — is
/// deterministic.
struct BnbPlan {
  std::vector<std::uint32_t> order;     ///< depth -> output branched there
  std::vector<Phase> preferred;         ///< per output: first child's phase
  /// suffix_bound[d]: admissible lower bound on what the outputs branched at
  /// depths >= d add to any completion's cost, on top of the prefix cost.
  std::vector<double> suffix_bound;
  double base_metric = 0.0;             ///< all-unassigned partial cost
  double root_bound = 0.0;              ///< base_metric + suffix_bound[0]
};

BnbPlan make_bnb_plan(const EvalContext& ctx, double base_metric,
                      bool by_power) {
  const std::size_t num_pos = ctx.num_outputs();
  BnbPlan plan;
  plan.base_metric = base_metric;

  // Branch the largest cones first: they realize the bulk of the shared
  // structure early, so the exact prefix cost approaches the completion cost
  // high in the tree where a cut removes the most leaves.
  plan.order.resize(num_pos);
  std::iota(plan.order.begin(), plan.order.end(), 0u);
  std::sort(plan.order.begin(), plan.order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::size_t ca = ctx.cone_gate_count(a);
              const std::size_t cb = ctx.cone_gate_count(b);
              return ca != cb ? ca > cb : a < b;
            });
  std::vector<std::uint32_t> depth_of(num_pos);
  for (std::size_t d = 0; d < num_pos; ++d) depth_of[plan.order[d]] = d;

  const auto has_inverter = [&](std::size_t i) {
    const EvalContext::Resolved& root = ctx.po_root(i);
    return root.node > Network::const1() && !is_source_kind(ctx.kind(root.node));
  };

  // Preferred child phase: the cheaper one by the context's exclusive
  // per-output bounds — the guaranteed cost of this output alone.  When
  // exclusivity is blind (heavily shared cones score both phases equal,
  // typically 0/0) fall back to the full-cone floor sums.  A pure
  // search-order heuristic — correctness never depends on it; ties break
  // positive.
  plan.preferred.assign(num_pos, Phase::kPositive);
  for (std::size_t i = 0; i < num_pos; ++i) {
    double weight[2] = {0.0, 0.0};
    if (by_power) {
      weight[0] = ctx.exclusive_power_bound(i, false);
      weight[1] = ctx.exclusive_power_bound(i, true);
      if (weight[0] == weight[1]) {
        weight[0] = weight[1] = 0.0;
        for (const InstanceKey key : ctx.cone_instances(i)) {
          weight[0] += ctx.gate_power_floor(key);
          weight[1] += ctx.gate_power_floor(key ^ 1u);
        }
        if (has_inverter(i)) weight[1] += ctx.output_inverter_floor(i);
      }
    } else {
      weight[0] = static_cast<double>(ctx.exclusive_area_bound(i, false));
      weight[1] = static_cast<double>(ctx.exclusive_area_bound(i, true));
    }
    if (weight[1] < weight[0]) plan.preferred[i] = Phase::kNegative;
  }

  // PO-root sharing: outputs whose POs resolve to the same root instance
  // share one boundary inverter; the fractional credit divides by the group
  // size and buckets at the group's earliest branch depth.
  struct RootGroup {
    std::uint32_t count = 0;
    std::uint32_t min_depth = 0;
  };
  std::unordered_map<InstanceKey, RootGroup> root_groups;
  for (std::size_t i = 0; i < num_pos; ++i) {
    if (!has_inverter(i)) continue;
    const EvalContext::Resolved& root = ctx.po_root(i);
    auto [it, inserted] =
        root_groups.try_emplace(instance_key(root.node, root.parity));
    RootGroup& group = it->second;
    ++group.count;
    group.min_depth = inserted ? depth_of[i]
                               : std::min(group.min_depth, depth_of[i]);
  }

  // Earliest branch depth among each gate node's owning outputs.  An
  // instance is creditable to the suffix starting at depth d only when
  // *every* owner branches at >= d (no prefix output can have realized it,
  // and no latch demands it); the credit splits 1/|owners| so the owners'
  // summed credits never exceed the one realized instance.
  const std::size_t n = ctx.num_nodes();
  std::vector<std::uint32_t> min_owner_depth(n, 0);
  for (NodeId node = 0; node < n; ++node) {
    const auto owners = ctx.cone_outputs(node);
    if (owners.empty()) continue;
    std::uint32_t m = std::numeric_limits<std::uint32_t>::max();
    for (const std::uint32_t o : owners) m = std::min(m, depth_of[o]);
    min_owner_depth[node] = m;
  }

  // Per output and phase: bucket fractional credits by the depth they
  // become suffix-creditable at, then suffix-accumulate and take the phase
  // minimum — min_phase[i * (num_pos + 1) + d].
  std::vector<double> min_phase(num_pos * (num_pos + 1), 0.0);
  std::vector<double> bucket[2];
  for (std::size_t i = 0; i < num_pos; ++i) {
    bucket[0].assign(num_pos, 0.0);
    bucket[1].assign(num_pos, 0.0);
    for (const InstanceKey key : ctx.cone_instances(i)) {
      const NodeId node = key >> 1;
      const double share =
          1.0 / static_cast<double>(ctx.cone_outputs(node).size());
      const std::uint32_t at = min_owner_depth[node];
      for (const std::uint32_t neg : {0u, 1u}) {
        const InstanceKey k = key ^ neg;
        if (ctx.latch_demanded(k)) continue;
        bucket[neg][at] += (by_power ? ctx.gate_power_floor(k) : 1.0) * share;
      }
    }
    if (has_inverter(i)) {
      const EvalContext::Resolved& root = ctx.po_root(i);
      const RootGroup& group =
          root_groups.at(instance_key(root.node, root.parity));
      bucket[1][group.min_depth] +=
          (by_power ? ctx.output_inverter_floor(i) : 1.0) /
          static_cast<double>(group.count);
    }
    double acc[2] = {0.0, 0.0};
    for (std::size_t d = num_pos; d-- > 0;) {
      acc[0] += bucket[0][d];
      acc[1] += bucket[1][d];
      min_phase[i * (num_pos + 1) + d] = std::min(acc[0], acc[1]);
    }
    // min_phase[..][num_pos] stays 0: nothing is creditable past the leaves.
  }

  plan.suffix_bound.assign(num_pos + 1, 0.0);
  for (std::size_t d = 0; d <= num_pos; ++d) {
    double sum = 0.0;
    for (std::size_t i = 0; i < num_pos; ++i)
      if (depth_of[i] >= d) sum += min_phase[i * (num_pos + 1) + d];
    plan.suffix_bound[d] = sum;
  }
  plan.root_bound = base_metric + plan.suffix_bound[0];
  return plan;
}

/// Cross-worker state: the atomic incumbent metric every worker prunes
/// against, and the node-budget accounting.
struct BnbShared {
  std::atomic<double> incumbent;
  std::atomic<std::uint64_t> expanded{0};
  std::atomic<bool> budget_tripped{false};
  std::uint64_t budget = 0;  ///< 0 = unlimited
  /// Optional cross-process incumbent exchange (src/dist/); null in the
  /// in-process searches.  Read at the prune sites, published on every
  /// local improvement.  Sharing only tightens pruning — the strict
  /// comparison keeps the (metric, code) result exact either way.
  IncumbentChannel* channel = nullptr;
};

/// Returns true when `metric` improved the incumbent, so the caller can
/// publish the improvement to an attached channel.
bool update_incumbent(std::atomic<double>& incumbent, double metric) {
  double current = incumbent.load(std::memory_order_relaxed);
  while (metric < current) {
    if (incumbent.compare_exchange_weak(current, metric,
                                        std::memory_order_relaxed))
      return true;
  }
  return false;
}

/// One worker's depth-first enumeration of the subtree(s) its task index
/// selects.  The top `shard_depth` levels are fixed by the task bits (child
/// 0 = the output's preferred phase); below them both children are explored.
/// Counters follow a canonical-owner rule so prefix levels shared by many
/// tasks are counted exactly once.
class BnbWorker {
 public:
  BnbWorker(const EvalState& base, const BnbPlan& plan, bool by_power,
            std::size_t shard_depth, BnbShared& shared)
      : state_(base),
        plan_(plan),
        by_power_(by_power),
        shard_depth_(shard_depth),
        shared_(shared),
        // Batch the shared-counter updates, but never so coarsely that a
        // small budget could be overrun without ever being checked.
        flush_limit_(shared.budget != 0
                         ? std::min<std::uint64_t>(256, shared.budget)
                         : 256) {}

  void run(std::uint64_t task) {
    task_ = task;
    descend(0);
    flush_expanded();
  }

  [[nodiscard]] const ChunkBest& best() const noexcept { return best_; }
  [[nodiscard]] std::uint64_t pruned() const noexcept { return pruned_; }
  [[nodiscard]] std::uint64_t leaves() const noexcept { return leaves_; }

 private:
  void flush_expanded() {
    if (pending_expanded_ == 0) return;
    const std::uint64_t total =
        shared_.expanded.fetch_add(pending_expanded_,
                                   std::memory_order_relaxed) +
        pending_expanded_;
    pending_expanded_ = 0;
    if (shared_.budget != 0 && total > shared_.budget)
      shared_.budget_tripped.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] Phase child_phase(std::uint32_t output, int child) const {
    const Phase preferred = plan_.preferred[output];
    return child == 0 ? preferred
                      : (preferred == Phase::kPositive ? Phase::kNegative
                                                       : Phase::kPositive);
  }

  void descend(std::size_t depth) {
    if (shared_.budget_tripped.load(std::memory_order_relaxed)) return;
    if (depth == plan_.order.size()) {
      ++leaves_;
      const ChunkBest candidate{metric_of(state_, by_power_), code_};
      if (better(candidate, best_)) best_ = candidate;
      if (update_incumbent(shared_.incumbent, candidate.metric) &&
          shared_.channel != nullptr)
        shared_.channel->publish(candidate.metric);
      return;
    }
    const std::uint32_t output = plan_.order[depth];
    const bool in_prefix = depth < shard_depth_;
    for (int child = 0; child < 2; ++child) {
      bool canonical = true;
      if (in_prefix) {
        const std::size_t shift = shard_depth_ - 1 - depth;
        if (((task_ >> shift) & 1ULL) != static_cast<std::uint64_t>(child))
          continue;  // another task owns this subtree
        canonical = (task_ & ((1ULL << shift) - 1)) == 0;
      }
      const Phase phase = child_phase(output, child);
      state_.assign_output(output, phase);
      if (phase == Phase::kNegative) code_ |= 1ULL << output;
      if (canonical && ++pending_expanded_ >= flush_limit_) flush_expanded();

      const double lb =
          metric_of(state_, by_power_) + plan_.suffix_bound[depth + 1];
      double incumbent = shared_.incumbent.load(std::memory_order_relaxed);
      if (shared_.channel != nullptr)
        incumbent = std::min(incumbent, shared_.channel->current());
      const double slack =
          kBoundSlackRel * (std::abs(lb) + std::abs(incumbent));
      if (lb - slack > incumbent) {
        if (canonical) ++pruned_;
      } else {
        descend(depth + 1);
      }

      state_.withdraw_output(output);
      code_ &= ~(1ULL << output);
    }
  }

  EvalState state_;
  const BnbPlan& plan_;
  bool by_power_;
  std::size_t shard_depth_;
  BnbShared& shared_;
  std::uint64_t task_ = 0;
  std::uint64_t code_ = 0;
  ChunkBest best_;
  std::uint64_t pruned_ = 0;
  std::uint64_t leaves_ = 0;
  std::uint64_t pending_expanded_ = 0;
  std::uint64_t flush_limit_ = 256;
};

/// Incumbent seed: the preferred-phase greedy assignment polished by a
/// strict first-improvement single-flip descent.  Every evaluation here is
/// an exact candidate, so seeding can only tighten pruning — it never
/// changes the (metric, code) winner.  A pure function of the plan, so the
/// distributed coordinator reproduces it bit-identically via plan_bnb_seed.
struct SeedScan {
  ChunkBest best;
  std::size_t evaluations = 0;
};

SeedScan bnb_seed_scan(const std::shared_ptr<const EvalContext>& ctx,
                       const BnbPlan& plan, bool by_power) {
  const std::size_t num_pos = ctx->num_outputs();
  PhaseAssignment greedy(num_pos, Phase::kPositive);
  for (std::size_t i = 0; i < num_pos; ++i) greedy[i] = plan.preferred[i];
  EvalState seed_state(ctx, greedy);
  SeedScan scan;
  scan.evaluations = 1;
  scan.best = ChunkBest{metric_of(seed_state, by_power), code_of(greedy)};
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t i = 0; i < num_pos; ++i) {
      seed_state.apply_flip(i);
      ++scan.evaluations;
      const ChunkBest trial{metric_of(seed_state, by_power),
                            scan.best.code ^ (1ULL << i)};
      if (trial.metric < scan.best.metric) {
        scan.best = trial;
        improved = true;
      } else {
        seed_state.undo();
      }
    }
  }
  return scan;
}

SearchResult exhaustive_branch_and_bound(const AssignmentEvaluator& evaluator,
                                         bool by_power,
                                         const ExhaustiveOptions& options) {
  const std::shared_ptr<const EvalContext>& ctx = evaluator.context();
  const std::size_t num_pos = ctx->num_outputs();

  EvalState base(ctx, EvalState::AllUnassigned{});
  const BnbPlan plan = make_bnb_plan(*ctx, metric_of(base, by_power), by_power);

  const SeedScan scan = bnb_seed_scan(ctx, plan, by_power);
  const ChunkBest seed = scan.best;
  const std::size_t seed_evaluations = scan.evaluations;

  BnbShared shared;
  shared.incumbent.store(seed.metric, std::memory_order_relaxed);
  shared.budget = options.node_budget;

  ThreadPool pool(options.num_threads);
  // Shard the top levels into 4x-oversubscribed subtree tasks; the pool's
  // dynamic index distribution absorbs the wildly uneven post-pruning
  // subtree sizes.  Single-threaded runs use one task (shard depth 0), so
  // their counters are exactly reproducible.
  std::size_t shard_depth = 0;
  if (pool.size() > 1) {
    const unsigned want = pool.size() * 4;
    shard_depth = std::min<std::size_t>(
        {num_pos, 10, std::bit_width(std::bit_ceil(want) - 1u)});
  }
  const std::size_t num_tasks = std::size_t{1} << shard_depth;
  // Workers are pooled and reused across tasks — their local bests and
  // counters simply accumulate — so the O(instances) base-state copy
  // happens at most once per pool thread, not once per oversubscribed
  // task.  The final merge is a min over totally ordered (metric, code)
  // pairs plus counter sums, both independent of which worker ran which
  // task.
  std::mutex worker_mutex;
  std::vector<std::unique_ptr<BnbWorker>> workers;
  std::vector<BnbWorker*> idle;
  pool.parallel_for(num_tasks, [&](std::size_t task) {
    BnbWorker* worker = nullptr;
    {
      const std::lock_guard<std::mutex> lock(worker_mutex);
      if (!idle.empty()) {
        worker = idle.back();
        idle.pop_back();
      }
    }
    if (worker == nullptr) {
      auto fresh =
          std::make_unique<BnbWorker>(base, plan, by_power, shard_depth, shared);
      worker = fresh.get();
      const std::lock_guard<std::mutex> lock(worker_mutex);
      workers.push_back(std::move(fresh));
    }
    worker->run(task);
    const std::lock_guard<std::mutex> lock(worker_mutex);
    idle.push_back(worker);
  });

  const std::uint64_t expanded =
      shared.expanded.load(std::memory_order_relaxed);
  if (shared.budget_tripped.load(std::memory_order_relaxed))
    throw ExhaustiveBudgetError(expanded, options.node_budget);

  ChunkBest overall = seed;
  SearchResult best;
  best.counters.evaluations = seed_evaluations;
  for (const std::unique_ptr<BnbWorker>& worker : workers) {
    if (better(worker->best(), overall)) overall = worker->best();
    best.counters.evaluations += static_cast<std::size_t>(worker->leaves());
    best.counters.subtrees_pruned +=
        static_cast<std::size_t>(worker->pruned());
  }
  best.assignment = assignment_from_code(overall.code, num_pos);
  best.cost = evaluator.evaluate(best.assignment);
  best.counters.nodes_expanded = static_cast<std::size_t>(expanded);
  best.counters.bound_tightness =
      overall.metric > 0.0
          ? plan.root_bound / overall.metric
          : (plan.root_bound == overall.metric ? 1.0 : 0.0);
  return best;
}

/// The output count an exhaustive search may enumerate (throws
/// ExhaustiveLimitError above the clamped limit).
std::size_t checked_outputs(const AssignmentEvaluator& evaluator,
                            const ExhaustiveOptions& options) {
  const std::size_t num_pos = evaluator.network().num_pos();
  const std::size_t limit =
      std::min(options.max_outputs, kMaxExhaustiveOutputs);
  if (num_pos > limit) throw ExhaustiveLimitError(num_pos, limit);
  return num_pos;
}

/// The result of any search over a circuit without outputs.
SearchResult no_outputs(const AssignmentEvaluator& evaluator) {
  SearchResult best;
  best.cost = evaluator.evaluate({});
  best.counters.evaluations = 1;
  return best;
}

SearchResult exhaustive_by(const AssignmentEvaluator& evaluator, bool by_power,
                           const ExhaustiveOptions& options) {
  // Degenerate (negative-coefficient) power models void the admissible
  // bounds AND the partial-state prefix anchor, so branch-and-bound could
  // prune the optimum — full enumeration is the only exact option there.
  if (!evaluator.context()->bounds_admissible())
    return exhaustive_gray_walk(evaluator, by_power, options);
  if (checked_outputs(evaluator, options) == 0) return no_outputs(evaluator);
  return exhaustive_branch_and_bound(evaluator, by_power, options);
}

struct AnnealRestartOutcome {
  PhaseAssignment assignment;
  std::size_t area = 0;
  std::size_t evaluations = 0;
};

/// One annealing restart of the min-area search: restart `restart` under
/// master seed `seed` (Rng seeded seed + restart * golden-ratio), metropolis
/// walk of `iterations` steps, then the first-improvement descent.
AnnealRestartOutcome run_min_area_restart(const AssignmentEvaluator& evaluator,
                                          std::uint64_t seed,
                                          std::size_t restart,
                                          std::size_t iterations) {
  const obs::TraceSpan span("search.anneal", obs::SpanCat::kSearch);
  const std::size_t num_pos = evaluator.network().num_pos();

  Rng rng(seed + restart * 0x9e3779b9ULL);
  PhaseAssignment initial(num_pos, Phase::kPositive);
  if (restart > 0)  // diversify restarts
    for (auto& phase : initial)
      phase = rng.bernoulli(0.5) ? Phase::kNegative : Phase::kPositive;

  EvalState state(evaluator.context(), initial);
  std::size_t evaluations = 1;
  double energy = static_cast<double>(state.area_cells());
  PhaseAssignment best = state.assignment();
  double best_energy = energy;

  const double t0 = std::max(1.0, 0.05 * energy);
  const double t_end = 0.01;
  const double alpha =
      std::pow(t_end / t0, 1.0 / static_cast<double>(iterations));
  double temperature = t0;

  for (std::size_t iter = 0; iter < iterations; ++iter) {
    state.apply_flip(rng.below(num_pos));
    const double trial = static_cast<double>(state.area_cells());
    ++evaluations;
    const double delta = trial - energy;
    if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature)) {
      energy = trial;
      if (energy < best_energy) {
        best_energy = energy;
        best = state.assignment();
      }
    } else {
      state.undo();
    }
    temperature *= alpha;
  }

  // Greedy descent from the best annealed point.
  state.set_assignment(best);
  energy = best_energy;
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t i = 0; i < num_pos; ++i) {
      state.apply_flip(i);
      const double trial = static_cast<double>(state.area_cells());
      ++evaluations;
      if (trial < energy) {
        energy = trial;
        improved = true;
      } else {
        state.undo();
      }
    }
  }

  return {state.assignment(), static_cast<std::size_t>(energy), evaluations};
}

}  // namespace

SearchResult exhaustive_gray_walk(const AssignmentEvaluator& evaluator,
                                  bool by_power,
                                  const ExhaustiveOptions& options) {
  const std::size_t num_pos = checked_outputs(evaluator, options);
  if (num_pos == 0) return no_outputs(evaluator);
  const std::uint64_t total = 1ULL << num_pos;
  // The unpruned walk's work is exactly 2^P, so the budget check is an
  // up-front (and thus fully deterministic) refusal.
  if (options.node_budget != 0 && total > options.node_budget)
    throw ExhaustiveBudgetError(total, options.node_budget);
  return exhaustive_gray(evaluator, by_power, options);
}

SearchResult exhaustive_min_power(const AssignmentEvaluator& evaluator,
                                  const ExhaustiveOptions& options) {
  return exhaustive_by(evaluator, /*by_power=*/true, options);
}

SearchResult exhaustive_min_area(const AssignmentEvaluator& evaluator,
                                 const ExhaustiveOptions& options) {
  return exhaustive_by(evaluator, /*by_power=*/false, options);
}

SearchResult exhaustive_min_power(const AssignmentEvaluator& evaluator,
                                  std::size_t limit) {
  return exhaustive_min_power(evaluator, ExhaustiveOptions{limit, 1});
}

SearchResult exhaustive_min_area(const AssignmentEvaluator& evaluator,
                                 std::size_t limit) {
  return exhaustive_min_area(evaluator, ExhaustiveOptions{limit, 1});
}

SearchResult min_area_assignment(const AssignmentEvaluator& evaluator,
                                 const MinAreaOptions& options) {
  const std::size_t num_pos = evaluator.network().num_pos();
  if (num_pos == 0) return no_outputs(evaluator);
  // Clamp like exhaustive_by does, so an over-generous exhaustive_limit
  // falls back to annealing instead of tripping ExhaustiveLimitError.
  const std::size_t exhaustive_limit =
      std::min(options.exhaustive_limit, kMaxExhaustiveOutputs);
  if (num_pos <= exhaustive_limit) {
    ExhaustiveOptions exhaustive;
    exhaustive.max_outputs = exhaustive_limit;
    exhaustive.num_threads = options.num_threads;
    exhaustive.node_budget = options.node_budget;
    try {
      return exhaustive_min_area(evaluator, exhaustive);
    } catch (const ExhaustiveBudgetError&) {
      // Bound too loose for this circuit: the budget capped the exact
      // search's work near one annealing run's worth — fall through to it.
    }
  }

  // Simulated annealing over single-output flips, with restarts and a final
  // greedy descent; deterministic via the seeded per-restart RNG, so the
  // restarts can run concurrently without changing any trajectory.
  const std::size_t iterations = options.anneal_iterations != 0
                                     ? options.anneal_iterations
                                     : 250 * num_pos;
  // At least one restart, or there would be no assignment to return.
  const unsigned num_restarts = std::max(1u, options.restarts);
  std::vector<AnnealRestartOutcome> restarts(num_restarts);
  ThreadPool pool(options.num_threads);

  pool.parallel_for(num_restarts, [&](std::size_t restart) {
    restarts[restart] =
        run_min_area_restart(evaluator, options.seed, restart, iterations);
  });

  // Merge in restart order with strict improvement — the sequential rule.
  SearchResult global_best;
  std::size_t best_area = std::numeric_limits<std::size_t>::max();
  std::size_t evaluations = 0;
  for (const AnnealRestartOutcome& restart : restarts) {
    evaluations += restart.evaluations;
    if (global_best.assignment.empty() || restart.area < best_area) {
      best_area = restart.area;
      global_best.assignment = restart.assignment;
    }
  }
  global_best.cost = evaluator.evaluate(global_best.assignment);
  global_best.counters.evaluations = evaluations;
  return global_best;
}

// -- distributed work-unit entry points (search.hpp, src/dist/) ---------------

PhaseAssignment assignment_from_phase_code(std::uint64_t code,
                                           std::size_t num_pos) {
  return assignment_from_code(code, num_pos);
}

std::uint64_t phase_code_of(const PhaseAssignment& phases) {
  return code_of(phases);
}

BnbSeed plan_bnb_seed(const AssignmentEvaluator& evaluator, bool by_power) {
  const std::shared_ptr<const EvalContext>& ctx = evaluator.context();
  BnbSeed out;
  out.admissible = ctx->bounds_admissible();
  EvalState base(ctx, EvalState::AllUnassigned{});
  const BnbPlan plan = make_bnb_plan(*ctx, metric_of(base, by_power), by_power);
  out.base_metric = plan.base_metric;
  out.root_bound = plan.root_bound;
  const SeedScan scan = bnb_seed_scan(ctx, plan, by_power);
  out.seed_metric = scan.best.metric;
  out.seed_code = scan.best.code;
  out.seed_evaluations = scan.evaluations;
  return out;
}

BnbSubtreeResult run_bnb_subtree(const AssignmentEvaluator& evaluator,
                                 bool by_power,
                                 const BnbSubtreeOptions& options) {
  const std::shared_ptr<const EvalContext>& ctx = evaluator.context();
  const std::size_t num_pos = ctx->num_outputs();
  if (!ctx->bounds_admissible())
    throw std::invalid_argument(
        "run_bnb_subtree: bounds not admissible for this power model");
  if (options.frontier_depth > std::min(num_pos, kMaxExhaustiveOutputs))
    throw std::invalid_argument("run_bnb_subtree: frontier_depth exceeds #POs");
  if (options.frontier_depth < 64 &&
      (options.task >> options.frontier_depth) != 0)
    throw std::invalid_argument(
        "run_bnb_subtree: task outside the frontier range");

  EvalState base(ctx, EvalState::AllUnassigned{});
  const BnbPlan plan = make_bnb_plan(*ctx, metric_of(base, by_power), by_power);

  BnbShared shared;
  shared.incumbent.store(options.bound_snapshot, std::memory_order_relaxed);
  shared.budget = options.node_budget;
  shared.channel = options.channel;

  BnbWorker worker(base, plan, by_power, options.frontier_depth, shared);
  {
    const obs::TraceSpan span("search.bnb_subtree", obs::SpanCat::kSearch);
    worker.run(options.task);
  }

  BnbSubtreeResult result;
  result.metric = worker.best().metric;
  result.code = worker.best().code;
  result.leaves = worker.leaves();
  result.nodes_expanded = shared.expanded.load(std::memory_order_relaxed);
  result.subtrees_pruned = worker.pruned();
  result.budget_tripped =
      shared.budget_tripped.load(std::memory_order_relaxed);
  return result;
}

}  // namespace dominosyn
