/// \file minpower.cpp
/// The paper's minimum-power phase assignment heuristic (§4.1).
///
/// Loop (paper steps 1-7): from an initial assignment, repeatedly evaluate
/// the pairwise cost function
///   K(i±, j±) = |Di|·Ai± + |Dj|·Aj± + 0.5·O(i,j)·(Ai± + Aj±)
/// over all remaining candidate pairs, where Ai+ = Ai (retain phase) and
/// Ai- = 1 - Ai (flip; Property 4.1), pick the globally cheapest (pair,
/// combination), *measure* the resulting realization's power, commit only if
/// it improves, and remove the pair from the candidate set either way.
///
/// Measurements run on the incremental engine: a trial is one or two
/// O(|cone|) flips on a persistent EvalState, undone unless committed.
///
/// Commits are as cheap as trials: A_i depends only on output i's own phase
/// (both values precomputed in EvalContext with the reference walk's
/// summation order), so a commit refreshes the averages of just the flipped
/// outputs in O(1) each, re-scores only the candidate pairs touching them,
/// and fixes the K-queue — a lazy-deletion binary min-heap on (K, candidate
/// index), the same lexicographic order the seed's full re-sort produced —
/// with O(Δ · log C) pushes instead of an O(P·|circuit| + C·log C) rebuild.

#include <bit>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "phase/eval.hpp"
#include "phase/search.hpp"
#include "util/rng.hpp"

namespace dominosyn {

namespace {

constexpr double kImprovementEps = 1e-12;

/// Fenwick-tree order-statistic set over candidate indices [0, n): erase and
/// "k-th live index in ascending order" in O(log n).  Replaces the seed's
/// O(candidates) scans — kRandom's nth-live-candidate walk and kMeasureAll's
/// restart-from-zero first-live loop — while picking the exact same
/// candidate, so rng-driven trajectories are unchanged.
class LiveCandidateSet {
 public:
  explicit LiveCandidateSet(std::size_t n) : n_(n), tree_(n + 1, 1) {
    tree_[0] = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      const std::size_t parent = i + (i & (~i + 1));
      if (parent <= n) tree_[parent] += tree_[i];
    }
  }

  void erase(std::size_t index) {
    for (std::size_t i = index + 1; i <= n_; i += i & (~i + 1)) --tree_[i];
  }

  /// k-th (0-based) live index in ascending index order.
  [[nodiscard]] std::size_t nth(std::size_t k) const {
    std::size_t pos = 0;
    std::size_t need = k + 1;
    for (std::size_t step = std::bit_floor(n_); step > 0; step >>= 1) {
      const std::size_t next = pos + step;
      if (next <= n_ && tree_[next] < need) {
        pos = next;
        need -= tree_[next];
      }
    }
    return pos;  // 1-based position pos+1 holds the k-th live index
  }

 private:
  std::size_t n_;
  std::vector<std::size_t> tree_;
};

}  // namespace

MinPowerResult min_power_assignment(const AssignmentEvaluator& evaluator,
                                    const ConeOverlap& overlap,
                                    const MinPowerOptions& options) {
  const Network& net = evaluator.network();
  const std::size_t num_pos = net.num_pos();
  if (overlap.num_outputs() != num_pos)
    throw std::runtime_error("min_power_assignment: overlap/network mismatch");

  MinPowerResult result;
  result.assignment = options.initial.empty() ? all_positive(net) : options.initial;
  if (result.assignment.size() != num_pos)
    throw std::runtime_error("min_power_assignment: initial assignment size mismatch");

  EvalState state(evaluator.context(), result.assignment);
  result.cost = state.cost();
  result.initial_power = result.cost.power.total();
  result.final_power = result.initial_power;

  // Measures the current assignment with flips applied, then reverts.
  const auto measure_flips = [&state](std::size_t i, bool flip_i, std::size_t j,
                                      bool flip_j) {
    unsigned applied = 0;
    if (flip_i) { state.apply_flip(i); ++applied; }
    if (flip_j) { state.apply_flip(j); ++applied; }
    const AssignmentCost cost = state.cost();
    while (applied-- > 0) state.undo();
    return cost;
  };

  // Commits the current EvalState position as the new best.
  const auto commit = [&](const AssignmentCost& cost) {
    result.assignment = state.assignment();
    result.cost = cost;
    result.final_power = cost.power.total();
    ++result.counters.commits;
  };

  if (num_pos < 2) return result;

  // Candidate set: all unordered output pairs.
  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  candidates.reserve(num_pos * (num_pos - 1) / 2);
  for (std::size_t i = 0; i < num_pos; ++i)
    for (std::size_t j = i + 1; j < num_pos; ++j) candidates.emplace_back(i, j);

  // Precompute |Di| and O(i,j).  The averages come from the EvalContext's
  // per-phase table (bit-identical to the from-scratch walk); a commit
  // refreshes only the flipped outputs' entries.
  std::vector<double> cone_size(num_pos);
  for (std::size_t i = 0; i < num_pos; ++i)
    cone_size[i] = static_cast<double>(overlap.cone_size(i));
  std::vector<double> avg = state.cone_average_probs();

  // Best (K, flips) for one pair under the current averages.
  struct Scored {
    double k = 0.0;
    bool flip_i = false;
    bool flip_j = false;
  };
  const auto score_pair = [&](std::size_t i, std::size_t j) {
    Scored best;
    best.k = std::numeric_limits<double>::infinity();
    const double o = overlap.overlap(i, j);
    for (const bool fi : {false, true}) {
      const double ai = fi ? 1.0 - avg[i] : avg[i];
      for (const bool fj : {false, true}) {
        const double aj = fj ? 1.0 - avg[j] : avg[j];
        const double k =
            cone_size[i] * ai + cone_size[j] * aj + 0.5 * o * (ai + aj);
        if (k < best.k) best = Scored{k, fi, fj};
      }
    }
    return best;
  };

  // K only changes when a commit changes a flipped output's average, so keep
  // candidates in a lazy-deletion binary min-heap on (K, candidate index) —
  // the lexicographic order the seed's sorted-queue rebuild produced.  An
  // entry is stale iff its candidate was consumed or its key no longer
  // equals current_k.  Invariant: every live candidate has exactly one entry
  // whose key equals its current_k, so the heap top always yields the
  // globally cheapest live (K, pair) without ever rebuilding.
  std::vector<bool> consumed(candidates.size(), false);
  std::vector<double> current_k(candidates.size());
  using HeapEntry = std::pair<double, std::size_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  // Candidate pairs touching each output — the K entries a flip invalidates.
  std::vector<std::vector<std::uint32_t>> pairs_of_output;
  // Last commit that re-scored a candidate, so a two-output commit scores
  // pairs containing both flipped outputs once.
  std::vector<std::uint32_t> rescored_at(candidates.size(), 0);
  std::uint32_t commit_id = 0;

  if (options.guidance == GuidanceMode::kCostFunction) {
    pairs_of_output.resize(num_pos);
    std::vector<HeapEntry> entries;
    entries.reserve(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const auto [i, j] = candidates[c];
      pairs_of_output[i].push_back(static_cast<std::uint32_t>(c));
      pairs_of_output[j].push_back(static_cast<std::uint32_t>(c));
      current_k[c] = score_pair(i, j).k;
      entries.emplace_back(current_k[c], c);
    }
    heap = decltype(heap)(std::greater<>{}, std::move(entries));  // O(C) make_heap
  }

  Rng rng(options.seed);
  LiveCandidateSet live(candidates.size());
  std::size_t remaining = candidates.size();

  // Commit bookkeeping: refresh the flipped outputs' averages and re-score
  // the surviving pairs touching them.
  const auto after_commit = [&](std::size_t i, bool flip_i, std::size_t j,
                                bool flip_j) {
    // One span per accepted commit, covering the incremental re-score —
    // pure observation, so trajectories stay bit-identical with tracing on.
    const obs::TraceSpan span("search.commit", obs::SpanCat::kSearch);
    ++commit_id;
    // A_i changed only at the flipped outputs (a commit always flips at
    // least one: a no-flip trial cannot improve).  Refresh those entries
    // from the maintained state and re-score exactly the surviving pairs
    // that touch them.
    std::size_t changed[2];
    std::size_t num_changed = 0;
    if (flip_i) changed[num_changed++] = i;
    if (flip_j) changed[num_changed++] = j;
    for (std::size_t at = 0; at < num_changed; ++at) {
      const std::size_t output = changed[at];
      avg[output] = state.cone_average(output);
      result.counters.avg_update_nodes +=
          state.context().cone_gate_count(output);
    }
    if (options.guidance == GuidanceMode::kCostFunction) {
      for (std::size_t at = 0; at < num_changed; ++at) {
        for (const std::uint32_t c : pairs_of_output[changed[at]]) {
          if (consumed[c] || rescored_at[c] == commit_id) continue;
          rescored_at[c] = commit_id;
          ++result.counters.commit_rescore_pairs;
          const double k =
              score_pair(candidates[c].first, candidates[c].second).k;
          if (k != current_k[c]) {
            current_k[c] = k;
            heap.emplace(k, c);
          }
        }
      }
    }
  };

  while (remaining > 0) {
    std::size_t pick = 0;
    bool flip_i = false;
    bool flip_j = false;

    switch (options.guidance) {
      case GuidanceMode::kCostFunction: {
        for (;;) {
          const auto [k, c] = heap.top();
          heap.pop();
          if (consumed[c] || k != current_k[c]) continue;  // stale entry
          pick = c;
          break;
        }
        const auto [i, j] = candidates[pick];
        const Scored scored = score_pair(i, j);
        flip_i = scored.flip_i;
        flip_j = scored.flip_j;
        break;
      }
      case GuidanceMode::kRandom: {
        pick = live.nth(rng.below(remaining));
        flip_i = rng.bernoulli(0.5);
        flip_j = rng.bernoulli(0.5);
        break;
      }
      case GuidanceMode::kMeasureAll: {
        // Oracle baseline: take the first live pair, measure all four combos.
        pick = live.nth(0);
        double best_power = std::numeric_limits<double>::infinity();
        const auto [i, j] = candidates[pick];
        for (const bool fi : {false, true})
          for (const bool fj : {false, true}) {
            const double power = measure_flips(i, fi, j, fj).power.total();
            ++result.counters.evaluations;
            if (power < best_power) {
              best_power = power;
              flip_i = fi;
              flip_j = fj;
            }
          }
        break;
      }
    }

    const auto [i, j] = candidates[pick];
    unsigned applied = 0;
    if (flip_i) { state.apply_flip(i); ++applied; }
    if (flip_j) { state.apply_flip(j); ++applied; }
    const AssignmentCost trial_cost = state.cost();
    ++result.counters.evaluations;
    consumed[pick] = true;
    --remaining;
    live.erase(pick);
    if (trial_cost.power.total() < result.final_power - kImprovementEps) {
      commit(trial_cost);
      after_commit(i, flip_i, j, flip_j);
    } else {
      while (applied-- > 0) state.undo();
    }
  }

  // Optional polish: greedy first-improvement descent to a local optimum.
  bool improved = options.polish_descent;
  while (improved) {
    improved = false;
    for (std::size_t i = 0; i < num_pos; ++i) {
      state.apply_flip(i);
      const AssignmentCost trial_cost = state.cost();
      ++result.counters.evaluations;
      if (trial_cost.power.total() < result.final_power - kImprovementEps) {
        commit(trial_cost);
        improved = true;
      } else {
        state.undo();
      }
    }
  }
  return result;
}

}  // namespace dominosyn
