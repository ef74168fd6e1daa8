/// \file micro_incremental.cpp
/// Wall-time comparison of the evaluation strategies for the §4.1
/// min-power search and the exhaustive 2^P search:
///   * full       — the seed's code path: every candidate re-scored with
///                  AssignmentEvaluator::evaluate(), O(nodes) per trial
///                  (a faithful local copy of the pre-engine search loop),
///   * incremental — EvalState::apply_flip/undo, O(|cone|) per trial,
///   * parallel   — incremental plus the thread-parallel search layer
///                  (exhaustive search and the batched sweep only; §4.1
///                  runs on one thread).
/// The commit_path section isolates the §4.1 commit cost: the seed's
/// from-scratch A walk + full K-queue rebuild vs the maintained averages +
/// delta-rescored lazy-deletion heap (docs/commit_path.md).
/// Also times a paper-style MA+MP sweep as back-to-back monolithic run_flow
/// calls vs one run_flow_batch over shared FlowSessions (the staged-API
/// amortization win), and measures in-process ServerCore throughput —
/// requests/sec and p50/p95 client-observed latency for N client threads
/// over a cold vs hot SessionCache.  Emits JSON so future PRs can track the
/// perf trajectory.
///
/// The exhaustive_bb section measures the branch-and-bound exact search
/// (docs/search.md) against the unpruned Gray walk on the main circuit
/// family at growing output counts: evaluated-candidate counts pruned vs
/// unpruned, wall time, bound tightness, and the largest P solved exactly
/// within a wall-clock budget.
///
/// The distributed_search section measures the coordinator/worker fabric
/// (docs/distributed.md) over a TCP loopback: a calibrated branch-and-bound
/// job served by one vs two single-threaded DistWorker fleets, with every
/// distributed result verified bit-identical to the local search before the
/// speedup is reported.  speedup_2w is the scaling headline bench_trend.py
/// gates.
///
/// The journal_replay section measures the durability layer's boot path
/// (docs/robustness.md): a synthetic checkpoint log of crashed distributed
/// jobs replayed through CheckpointLog construction — records_per_second is
/// what bench_trend.py gates.
///
/// Usage (positional, CI-compatible):
///   micro_incremental [num_threads] [gate_target] [num_pos]
///                     [sweep_steps] [bb_budget_seconds]
///   num_threads  0 = one per hardware thread (default), 1 = sequential
///   gate_target  synthesis gate budget of the main circuit (default 2000)
///   num_pos      outputs of the main circuit (default 48; >= 32 keeps the
///                acceptance scenario)
///   sweep_steps  simulation steps of the MA+MP sweep / serving jobs
///                (default 256; the nightly long-run raises this)
///   bb_budget_seconds  wall budget of the exhaustive_bb P-climb
///                (default 20; the nightly long-run raises this)
/// or flag form (any argument starting with "--" selects it):
///   micro_incremental [--threads N] [--gates N] [--pos N] [--steps N]
///                     [--bb-budget S]

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "bdd/netbdd.hpp"
#include "benchgen/benchgen.hpp"
#include "dist/checkpoint.hpp"
#include "dist/search.hpp"
#include "dist/worker.hpp"
#include "flow/batch.hpp"
#include "network/synth.hpp"
#include "obs/trace.hpp"
#include "phase/assignment.hpp"
#include "phase/eval.hpp"
#include "phase/search.hpp"
#include "server/core.hpp"
#include "server/transport.hpp"
#include "sgraph/partition.hpp"
#include "util/cli.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dominosyn;

/// The seed's min_power_assignment (§4.1 pairwise loop + polish descent),
/// kept verbatim except that every measurement goes through the full
/// O(nodes) evaluate() — the baseline this PR replaced.
MinPowerResult seed_full_reeval_min_power(const AssignmentEvaluator& evaluator,
                                          const ConeOverlap& overlap) {
  const Network& net = evaluator.network();
  const std::size_t num_pos = net.num_pos();
  constexpr double kEps = 1e-12;

  MinPowerResult result;
  result.assignment = all_positive(net);
  result.cost = evaluator.evaluate(result.assignment);
  result.initial_power = result.cost.power.total();
  result.final_power = result.initial_power;
  if (num_pos < 2) return result;

  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  candidates.reserve(num_pos * (num_pos - 1) / 2);
  for (std::size_t i = 0; i < num_pos; ++i)
    for (std::size_t j = i + 1; j < num_pos; ++j) candidates.emplace_back(i, j);

  std::vector<double> cone_size(num_pos);
  for (std::size_t i = 0; i < num_pos; ++i)
    cone_size[i] = static_cast<double>(overlap.cone_size(i));
  std::vector<double> avg = evaluator.cone_average_probs(result.assignment);

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

  std::vector<std::pair<double, std::size_t>> queue;
  std::vector<bool> consumed(candidates.size(), false);
  const auto rebuild_queue = [&] {
    queue.clear();
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (consumed[c]) continue;
      queue.emplace_back(score_pair(candidates[c].first, candidates[c].second).k,
                         c);
    }
    std::sort(queue.begin(), queue.end());
  };
  rebuild_queue();
  std::size_t queue_head = 0;
  std::size_t remaining = candidates.size();

  const auto with_flips = [](PhaseAssignment phases, std::size_t i, bool fi,
                             std::size_t j, bool fj) {
    const auto flip = [](Phase p) {
      return p == Phase::kPositive ? Phase::kNegative : Phase::kPositive;
    };
    if (fi) phases[i] = flip(phases[i]);
    if (fj) phases[j] = flip(phases[j]);
    return phases;
  };

  while (remaining > 0) {
    while (queue_head < queue.size() && consumed[queue[queue_head].second])
      ++queue_head;
    if (queue_head >= queue.size()) {
      rebuild_queue();
      queue_head = 0;
    }
    const std::size_t pick = queue[queue_head].second;
    const auto [i, j] = candidates[pick];
    const Scored scored = score_pair(i, j);

    const PhaseAssignment trial =
        with_flips(result.assignment, i, scored.flip_i, j, scored.flip_j);
    const AssignmentCost trial_cost = evaluator.evaluate(trial);  // O(nodes)
    ++result.counters.evaluations;
    consumed[pick] = true;
    --remaining;
    if (trial_cost.power.total() < result.final_power - kEps) {
      result.assignment = trial;
      result.cost = trial_cost;
      result.final_power = trial_cost.power.total();
      ++result.counters.commits;
      avg = evaluator.cone_average_probs(result.assignment);
      rebuild_queue();
      queue_head = 0;
    }
  }

  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t i = 0; i < num_pos; ++i) {
      PhaseAssignment trial = result.assignment;
      trial[i] = trial[i] == Phase::kPositive ? Phase::kNegative
                                              : Phase::kPositive;
      const AssignmentCost trial_cost = evaluator.evaluate(trial);  // O(nodes)
      ++result.counters.evaluations;
      if (trial_cost.power.total() < result.final_power - kEps) {
        result.assignment = std::move(trial);
        result.cost = trial_cost;
        result.final_power = trial_cost.power.total();
        ++result.counters.commits;
        improved = true;
      }
    }
  }
  return result;
}

Network make_circuit(const std::string& name, std::size_t gates,
                     std::size_t pos) {
  BenchSpec spec;
  spec.name = name;
  spec.num_pis = 24;
  spec.num_pos = pos;
  spec.gate_target = gates;
  spec.seed = 77;
  return generate_benchmark(spec);
}

}  // namespace

int main(int argc, char** argv) {
  // Hybrid argv: the historical positional form stays CI-compatible; any
  // "--" argument switches to named flags.
  bool flag_form = false;
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]).rfind("--", 0) == 0) flag_form = true;

  std::optional<long> threads_arg, gates_arg, pos_arg, steps_arg,
      bb_budget_arg;
  if (flag_form) {
    const auto flags = cli::FlagSet::parse(argc, argv);
    if (flags && flags->only({"threads", "gates", "pos", "steps", "bb-budget"})) {
      threads_arg = flags->get_long("threads", 0, 0, 1024);
      gates_arg = flags->get_long("gates", 2000, 1,
                                  std::numeric_limits<long>::max());
      pos_arg = flags->get_long("pos", 48, 1,
                                std::numeric_limits<long>::max());
      steps_arg = flags->get_long("steps", 256, 1, 1 << 24);
      bb_budget_arg = flags->get_long("bb-budget", 20, 1, 3600);
    }
  } else {
    threads_arg = cli::parse_long_arg(argc, argv, 1, 0, 0, 1024);
    gates_arg = cli::parse_long_arg(argc, argv, 2, 2000, 1);
    pos_arg = cli::parse_long_arg(argc, argv, 3, 48, 1);
    steps_arg = cli::parse_long_arg(argc, argv, 4, 256, 1, 1 << 24);
    bb_budget_arg = cli::parse_long_arg(argc, argv, 5, 20, 1, 3600);
  }
  if (!threads_arg || !gates_arg || !pos_arg || !steps_arg || !bb_budget_arg) {
    std::cerr << "usage: micro_incremental [num_threads 0..1024] "
                 "[gate_target>=1] [num_pos>=1] [sweep_steps>=1] "
                 "[bb_budget_seconds 1..3600]\n"
                 "   or: micro_incremental [--threads N] [--gates N] "
                 "[--pos N] [--steps N] [--bb-budget S]\n";
    return 2;
  }
  const unsigned num_threads = static_cast<unsigned>(*threads_arg);
  const std::size_t gate_target = static_cast<std::size_t>(*gates_arg);
  const std::size_t num_pos = static_cast<std::size_t>(*pos_arg);
  const std::size_t sweep_steps = static_cast<std::size_t>(*steps_arg);
  const double bb_budget_seconds = static_cast<double>(*bb_budget_arg);

  const Network net = make_circuit("inc", gate_target, num_pos);
  const std::vector<double> pi_probs(net.num_pis(), 0.5);
  const AssignmentEvaluator evaluator(net, signal_probabilities(net, pi_probs));
  const ConeOverlap overlap(net);
  Stopwatch stopwatch;

  // -- raw candidate-evaluation throughput ------------------------------------
  const std::size_t walk = 2000;
  Rng rng(5);
  std::vector<std::size_t> flips(walk);
  for (auto& f : flips) f = rng.below(net.num_pos());

  PhaseAssignment phases = all_positive(net);
  stopwatch.restart();
  double sink = 0.0;
  for (const std::size_t f : flips) {
    phases[f] = phases[f] == Phase::kPositive ? Phase::kNegative
                                              : Phase::kPositive;
    sink += evaluator.evaluate(phases).power.total();
  }
  const double full_eval_seconds = stopwatch.seconds();

  EvalState state(evaluator.context(), all_positive(net));
  stopwatch.restart();
  double sink2 = 0.0;
  for (const std::size_t f : flips) {
    state.apply_flip(f);
    sink2 += state.power_total();
  }
  const double incremental_eval_seconds = stopwatch.seconds();
  if (sink != sink2) {
    std::cerr << "FATAL: incremental walk diverged from full evaluation\n";
    return 1;
  }

  // -- §4.1 min-power search --------------------------------------------------
  stopwatch.restart();
  const MinPowerResult full = seed_full_reeval_min_power(evaluator, overlap);
  const double full_search_seconds = stopwatch.seconds();

  stopwatch.restart();
  const MinPowerResult incremental = min_power_assignment(evaluator, overlap);
  const double incremental_search_seconds = stopwatch.seconds();

  if (incremental.final_power != full.final_power) {
    std::cerr << "FATAL: search arms disagree on the final power\n";
    return 1;
  }

  // -- per-commit cost: seed rebuild vs incremental delta update --------------
  // Replays the two generations of commit work over real data structures.
  // Seed: a from-scratch A walk over every PO cone plus a full re-score +
  // re-sort of all surviving pairs.  Incremental: refresh the two flipped
  // outputs' averages from the EvalContext table, re-score only the pairs
  // touching them, and push the changed keys into a binary heap.
  const std::size_t cp_pairs = net.num_pos() * (net.num_pos() - 1) / 2;
  std::vector<std::pair<std::size_t, std::size_t>> cp_candidates;
  cp_candidates.reserve(cp_pairs);
  for (std::size_t i = 0; i < net.num_pos(); ++i)
    for (std::size_t j = i + 1; j < net.num_pos(); ++j)
      cp_candidates.emplace_back(i, j);
  std::vector<double> cp_cone(net.num_pos());
  for (std::size_t i = 0; i < net.num_pos(); ++i)
    cp_cone[i] = static_cast<double>(overlap.cone_size(i));
  std::vector<double> cp_avg =
      evaluator.cone_average_probs(incremental.assignment);
  const auto cp_score = [&](std::size_t i, std::size_t j) {
    double best = std::numeric_limits<double>::infinity();
    const double o = overlap.overlap(i, j);
    for (const bool fi : {false, true}) {
      const double ai = fi ? 1.0 - cp_avg[i] : cp_avg[i];
      for (const bool fj : {false, true}) {
        const double aj = fj ? 1.0 - cp_avg[j] : cp_avg[j];
        best = std::min(best,
                        cp_cone[i] * ai + cp_cone[j] * aj + 0.5 * o * (ai + aj));
      }
    }
    return best;
  };

  const std::size_t cold_reps = 50;
  std::vector<std::pair<double, std::size_t>> cp_queue;
  stopwatch.restart();
  for (std::size_t rep = 0; rep < cold_reps; ++rep) {
    cp_avg = evaluator.cone_average_probs(incremental.assignment);
    cp_queue.clear();
    for (std::size_t c = 0; c < cp_candidates.size(); ++c)
      cp_queue.emplace_back(cp_score(cp_candidates[c].first,
                                     cp_candidates[c].second), c);
    std::sort(cp_queue.begin(), cp_queue.end());
    sink += cp_queue.front().first;
  }
  const double cold_commit_seconds = stopwatch.seconds() / cold_reps;

  std::vector<std::vector<std::uint32_t>> cp_pairs_of_output(net.num_pos());
  for (std::size_t c = 0; c < cp_candidates.size(); ++c) {
    cp_pairs_of_output[cp_candidates[c].first].push_back(
        static_cast<std::uint32_t>(c));
    cp_pairs_of_output[cp_candidates[c].second].push_back(
        static_cast<std::uint32_t>(c));
  }
  EvalState cp_state(evaluator.context(), incremental.assignment);
  std::vector<std::pair<double, std::size_t>> cp_heap(cp_queue);
  std::make_heap(cp_heap.begin(), cp_heap.end(), std::greater<>{});
  const std::size_t inc_reps = 20000;
  stopwatch.restart();
  for (std::size_t rep = 0; rep < inc_reps; ++rep) {
    // A commit flips at most two outputs; walk distinct pairs per rep.
    const std::size_t oi = rep % net.num_pos();
    const std::size_t oj = (rep + 1 + rep / net.num_pos()) % net.num_pos();
    for (const std::size_t output : {oi, oj}) {
      cp_avg[output] = cp_state.cone_average(output);
      for (const std::uint32_t c : cp_pairs_of_output[output]) {
        cp_heap.emplace_back(cp_score(cp_candidates[c].first,
                                      cp_candidates[c].second), c);
        std::push_heap(cp_heap.begin(), cp_heap.end(), std::greater<>{});
      }
    }
    if (cp_heap.size() > cp_pairs * 2) {
      // Lazy deletion keeps the real heap near the live-candidate count;
      // mirror that by periodically dropping the replay's stale tail.
      cp_heap.resize(cp_pairs);
      std::make_heap(cp_heap.begin(), cp_heap.end(), std::greater<>{});
    }
  }
  const double incremental_commit_seconds = stopwatch.seconds() / inc_reps;
  sink += cp_heap.front().first;

  // -- exhaustive 2^P sharding (secondary circuit) ----------------------------
  const Network small = make_circuit("exh", 600, 14);
  const AssignmentEvaluator small_eval(
      small, signal_probabilities(small, std::vector<double>(small.num_pis(), 0.5)));

  stopwatch.restart();
  {  // seed path: binary-order scan, full evaluation per code
    PhaseAssignment scan(small.num_pos(), Phase::kPositive);
    double best = std::numeric_limits<double>::infinity();
    for (std::uint64_t code = 0; code < (1ULL << small.num_pos()); ++code) {
      for (std::size_t i = 0; i < small.num_pos(); ++i)
        scan[i] = ((code >> i) & 1ULL) != 0 ? Phase::kNegative : Phase::kPositive;
      best = std::min(best, small_eval.evaluate(scan).power.total());
    }
    sink += best;
  }
  const double exhaustive_full_seconds = stopwatch.seconds();

  ExhaustiveOptions exh_seq;
  exh_seq.num_threads = 1;
  stopwatch.restart();
  const SearchResult exh_inc = exhaustive_min_power(small_eval, exh_seq);
  const double exhaustive_incremental_seconds = stopwatch.seconds();

  ExhaustiveOptions exh_par;
  exh_par.num_threads = num_threads;
  stopwatch.restart();
  const SearchResult exh_shard = exhaustive_min_power(small_eval, exh_par);
  const double exhaustive_parallel_seconds = stopwatch.seconds();
  if (exh_shard.cost.power.total() != exh_inc.cost.power.total()) {
    std::cerr << "FATAL: sharded exhaustive disagrees\n";
    return 1;
  }

  // -- branch-and-bound exact search: pushing the tractable 2^P frontier ------
  // The main circuit family (same PI count / gate budget / generator seed) at
  // growing output counts.  Every level runs the pruned search; levels small
  // enough for the unpruned Gray walk also run it, both for the wall-time
  // comparison and as a bit-identity check.  The climb stops when the wall
  // budget is spent — largest_tractable_pos is the headline number.
  struct BbRun {
    std::size_t pos = 0;
    std::uint64_t unpruned = 0;
    SearchResult result;
    double bb_seconds = 0.0;
    double gray_seconds = -1.0;  // < 0: not run
  };
  std::vector<BbRun> bb_runs;
  Stopwatch bb_total;
  for (const std::size_t bb_pos : {12u, 16u, 20u, 22u, 24u, 26u, 28u}) {
    // Always measure the first levels (the acceptance scenario needs P=20);
    // climb past them only while budget remains.
    if (bb_pos > 20 && bb_total.seconds() >= bb_budget_seconds) break;
    const Network bb_net = make_circuit("bb", gate_target, bb_pos);
    const AssignmentEvaluator bb_eval(
        bb_net,
        signal_probabilities(bb_net, std::vector<double>(bb_net.num_pis(), 0.5)));
    BbRun run;
    run.pos = bb_pos;
    run.unpruned = 1ULL << bb_pos;

    ExhaustiveOptions bb_options;
    bb_options.max_outputs = 28;
    bb_options.num_threads = num_threads;
    // Wall budget alone cannot stop a level mid-run, so cap each level's
    // work in nodes too (~16x the default auto-select budget): a
    // loose-bound circuit ends the climb instead of hanging the bench.
    bb_options.node_budget = 1ULL << 25;
    stopwatch.restart();
    try {
      run.result = exhaustive_min_power(bb_eval, bb_options);
    } catch (const ExhaustiveBudgetError&) {
      break;  // bound too loose at this size: the climb is over
    }
    run.bb_seconds = stopwatch.seconds();

    if (bb_pos <= 16) {
      stopwatch.restart();
      const SearchResult gray =
          exhaustive_gray_walk(bb_eval, /*by_power=*/true, bb_options);
      run.gray_seconds = stopwatch.seconds();
      if (gray.assignment != run.result.assignment ||
          gray.cost.power.total() != run.result.cost.power.total()) {
        std::cerr << "FATAL: branch-and-bound disagrees with the Gray walk\n";
        return 1;
      }
    }
    bb_runs.push_back(std::move(run));
  }
  const double bb_elapsed_seconds = bb_total.seconds();

  // -- batched MA+MP sweep vs back-to-back monolithic run_flow ---------------
  // Each monolithic call re-synthesizes, re-extracts BDD probabilities and
  // rebuilds the EvalContext; the batch shares one FlowSession per circuit
  // and seeds MP from the cached MA stage.
  std::vector<BenchSpec> sweep_specs;
  for (const char* name : {"apex7", "frg1", "x1", "x3"}) {
    BenchSpec spec = paper_spec(name);
    spec.gate_target = std::min<std::size_t>(spec.gate_target, 800);
    sweep_specs.push_back(spec);
  }
  std::vector<Network> sweep_nets;
  sweep_nets.reserve(sweep_specs.size());
  for (const BenchSpec& spec : sweep_specs)
    sweep_nets.push_back(generate_benchmark(spec));

  std::vector<FlowJob> sweep_jobs;
  for (const Network& job_net : sweep_nets) {
    for (const PhaseMode mode : {PhaseMode::kMinArea, PhaseMode::kMinPower}) {
      FlowJob job;
      job.network = &job_net;
      job.options.sim.steps = sweep_steps;
      job.options.sim.warmup = 8;
      job.options.mode = mode;
      sweep_jobs.push_back(std::move(job));
    }
  }

  stopwatch.restart();
  std::vector<FlowReport> monolithic;
  monolithic.reserve(sweep_jobs.size());
  for (const FlowJob& job : sweep_jobs)
    monolithic.push_back(run_flow(*job.network, job.options));
  const double sweep_monolithic_seconds = stopwatch.seconds();

  BatchOptions sweep_seq;
  sweep_seq.num_threads = 1;
  stopwatch.restart();
  const std::vector<FlowReport> batched = run_flow_batch(sweep_jobs, sweep_seq);
  const double sweep_batch_seconds = stopwatch.seconds();

  BatchOptions sweep_par;
  sweep_par.num_threads = num_threads;
  stopwatch.restart();
  const std::vector<FlowReport> batched_par =
      run_flow_batch(sweep_jobs, sweep_par);
  const double sweep_batch_parallel_seconds = stopwatch.seconds();

  for (std::size_t i = 0; i < sweep_jobs.size(); ++i) {
    const bool same =
        batched[i].est_power == monolithic[i].est_power &&
        batched[i].sim_power == monolithic[i].sim_power &&
        batched[i].cells == monolithic[i].cells &&
        batched[i].assignment == monolithic[i].assignment &&
        batched_par[i].sim_power == monolithic[i].sim_power &&
        batched_par[i].assignment == monolithic[i].assignment;
    if (!same) {
      std::cerr << "FATAL: batched sweep diverged from monolithic run_flow\n";
      return 1;
    }
  }

  // -- in-process serving throughput (ServerCore over the sweep circuits) ----
  // Four client threads block on one request each at a time, round-robining
  // over the sweep's (circuit, mode) jobs.  The cold wave starts from an
  // empty SessionCache (every circuit's staged prefix is built once,
  // mid-wave requests pile onto the hot sessions); the hot wave repeats the
  // identical requests against the now-warm cache.
  const std::size_t server_clients = 4;
  const std::size_t requests_per_client = 6;
  struct Wave {
    double seconds = 0.0;
    std::vector<double> latencies;  // client-observed submit -> response
  };
  const auto run_wave = [&](ServerCore& core) {
    Wave wave;
    std::vector<std::vector<double>> latencies(server_clients);
    std::vector<std::thread> clients;
    clients.reserve(server_clients);
    Stopwatch wave_timer;
    for (std::size_t c = 0; c < server_clients; ++c)
      clients.emplace_back([&, c] {
        for (std::size_t r = 0; r < requests_per_client; ++r) {
          const FlowJob& job = sweep_jobs[(c + r * server_clients) %
                                          sweep_jobs.size()];
          ServerRequest request;
          request.network = std::shared_ptr<const Network>(
              std::shared_ptr<void>(), job.network);
          request.options = job.options;
          Stopwatch latency;
          const ServerResponse response = core.submit(std::move(request)).get();
          latencies[c].push_back(latency.seconds());
          if (response.status != ServerStatus::kOk) std::abort();
        }
      });
    for (std::thread& client : clients) client.join();
    wave.seconds = wave_timer.seconds();
    for (const auto& per_client : latencies)
      wave.latencies.insert(wave.latencies.end(), per_client.begin(),
                            per_client.end());
    std::sort(wave.latencies.begin(), wave.latencies.end());
    return wave;
  };
  const auto quantile_ms = [](const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const std::size_t index = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[index] * 1e3;
  };

  ServerConfig server_config;
  server_config.num_workers = num_threads;
  server_config.queue_capacity = server_clients * 2;
  ServerCore server(server_config);
  const Wave cold_wave = run_wave(server);
  const Wave hot_wave = run_wave(server);
  const std::size_t wave_requests = server_clients * requests_per_client;
  server.shutdown();
  if (server.stats().completed != 2 * wave_requests) {
    std::cerr << "FATAL: server waves lost requests\n";
    return 1;
  }

  // -- distributed search fabric: 1 vs 2 TCP-loopback workers ----------------
  // Calibration first: climb the output count until the local single-thread
  // branch-and-bound takes >= 0.3 s of real search — below that the lease
  // round trips dominate and the "speedup" would measure protocol overhead,
  // not the fabric.  Workers rebuild their evaluator from the generator spec
  // exactly like a remote `dominod --worker` process, and every distributed
  // result is checked bit-identical (deterministic mode: counters included)
  // against the local reference before any number is reported.
  struct DistPrepared {
    Network net;
    std::unique_ptr<AssignmentEvaluator> evaluator;
  };
  const auto prepare_dist = [&](std::size_t pos) {
    BenchSpec spec;
    spec.name = "dist" + std::to_string(pos);
    spec.num_pis = 24;
    spec.num_pos = pos;
    // Big cones on purpose: the admissible bound prunes the tree to
    // near-linear size on this family, so the calibrated runtime has to come
    // from per-node evaluation cost, not node count.
    spec.gate_target = 12000;
    spec.seed = 77;
    auto prepared = std::make_unique<DistPrepared>();
    // The worker-side preparation (FlowSession's own): compact copy,
    // standard synthesis, sequential probabilities.
    Network dist_net = compact_copy(generate_benchmark(spec));
    try {
      check_phase_ready(dist_net);
    } catch (const std::runtime_error&) {
      standard_synthesis(dist_net);
    }
    prepared->net = std::move(dist_net);
    const SeqProbResult probs = sequential_signal_probabilities(
        prepared->net, std::vector<double>(prepared->net.num_pis(), 0.5), {});
    prepared->evaluator = std::make_unique<AssignmentEvaluator>(
        prepared->net, probs.node_probs, default_flow_power_model());
    return std::make_pair(spec, std::move(prepared));
  };

  constexpr double kDistCalibrationSeconds = 0.3;
  BenchSpec dist_spec;
  std::unique_ptr<DistPrepared> dist_prepared;
  SearchResult dist_reference;
  double dist_local_seconds = 0.0;
  ExhaustiveOptions dist_search_options;
  dist_search_options.num_threads = 1;
  dist_search_options.max_outputs = 34;  // let the climb pass the default 24
  for (const std::size_t pos : {24u, 26u, 28u, 30u, 32u}) {
    auto [spec, prepared] = prepare_dist(pos);
    stopwatch.restart();
    const SearchResult local =
        exhaustive_min_power(*prepared->evaluator, dist_search_options);
    dist_local_seconds = stopwatch.seconds();
    dist_spec = spec;
    dist_prepared = std::move(prepared);
    dist_reference = local;
    if (dist_local_seconds >= kDistCalibrationSeconds) break;
  }

  constexpr std::size_t kDistFrontier = 6;
  double dist_worker_seconds[3] = {0.0, 0.0, 0.0};  // [workers]
  SearchResult dist_timed[3];
  for (const unsigned dist_workers : {1u, 2u}) {
    ServerCore dist_core(ServerConfig{});
    TransportConfig dist_transport;  // ephemeral TCP loopback
    SocketServer dist_server(dist_core, dist_transport);
    std::vector<std::unique_ptr<dist::DistWorker>> fleet;
    for (unsigned w = 0; w < dist_workers; ++w) {
      dist::WorkerConfig worker_config;
      worker_config.port = dist_server.port();
      worker_config.num_threads = 1;
      worker_config.idle_poll_ms = 2;
      worker_config.name = "bench" + std::to_string(w);
      fleet.push_back(std::make_unique<dist::DistWorker>(worker_config));
      fleet.back()->start();
    }

    dist::DistSearchOptions dist_options;
    dist_options.enabled = true;
    dist_options.coordinator = &dist_core.coordinator();
    dist_options.frontier_depth = kDistFrontier;
    dist_options.participate = false;  // the fabric does all the work
    dist_options.stall_takeover_ms = 60'000;

    // Warm-up run: each worker reads + caches its evaluator once.
    const SearchResult warm = dist::dist_exhaustive_search(
        *dist_prepared->evaluator, true, dist_search_options, dist_options);
    stopwatch.restart();
    const SearchResult timed = dist::dist_exhaustive_search(
        *dist_prepared->evaluator, true, dist_search_options, dist_options);
    dist_worker_seconds[dist_workers] = stopwatch.seconds();
    dist_timed[dist_workers] = timed;

    // The answer must match the local search bit-for-bit; the work counters
    // follow the per-unit pruning schedule, so they are compared across
    // worker counts below rather than against the undivided local search.
    for (const SearchResult* got : {&warm, &timed}) {
      if (got->assignment != dist_reference.assignment ||
          got->cost.power.total() != dist_reference.cost.power.total()) {
        std::cerr << "FATAL: distributed search diverged from the local "
                     "reference at "
                  << dist_workers << " worker(s)\n";
        return 1;
      }
    }
    for (auto& dist_worker : fleet) {
      if (dist_worker->telemetry().units_failed != 0) {
        std::cerr << "FATAL: distributed worker reported failed units\n";
        return 1;
      }
      dist_worker->stop();
    }
    dist_server.stop();
    dist_core.shutdown();
  }
  // Deterministic mode: the same frontier split must produce the same work
  // regardless of how many workers raced over it.
  if (dist_timed[1].counters.evaluations !=
          dist_timed[2].counters.evaluations ||
      dist_timed[1].counters.nodes_expanded !=
          dist_timed[2].counters.nodes_expanded ||
      dist_timed[1].counters.subtrees_pruned !=
          dist_timed[2].counters.subtrees_pruned) {
    std::cerr << "FATAL: distributed work counters differ between 1 and 2 "
                 "workers\n";
    return 1;
  }

  // -- tracing overhead -------------------------------------------------------
  // The §4.1 commit-path search re-run with spans runtime-enabled
  // vs runtime-disabled, arms interleaved, best-of-9 wall times compared
  // (the search is ~1 ms, so a single sample is at the mercy of scheduler
  // jitter — the interleaved minimum converges on the true floor of each
  // arm).  Tracing is pure observation: both arms must produce bit-identical
  // results.  Under DOMINOSYN_NO_TRACING both arms run the same (empty)
  // span code and the trend gate expects a ~1.0 ratio.
  double traced_seconds = std::numeric_limits<double>::infinity();
  double untraced_seconds = std::numeric_limits<double>::infinity();
  MinPowerResult traced_result, untraced_result;
  (void)min_power_assignment(evaluator, overlap);  // warm caches
  const std::uint64_t spans_before = obs::total_spans();
  for (int rep = 0; rep < 9; ++rep) {
    obs::set_tracing_enabled(true);
    stopwatch.restart();
    traced_result = min_power_assignment(evaluator, overlap);
    traced_seconds = std::min(traced_seconds, stopwatch.seconds());
    obs::set_tracing_enabled(false);
    stopwatch.restart();
    untraced_result = min_power_assignment(evaluator, overlap);
    untraced_seconds = std::min(untraced_seconds, stopwatch.seconds());
  }
  obs::set_tracing_enabled(true);
  const std::uint64_t tracing_events = obs::total_spans() - spans_before;
  if (traced_result.final_power != untraced_result.final_power ||
      traced_result.assignment != untraced_result.assignment ||
      traced_result.final_power != incremental.final_power) {
    std::cerr << "FATAL: tracing changed the search result\n";
    return 1;
  }
  if (!obs::kTracingCompiledOut && tracing_events == 0) {
    std::cerr << "FATAL: traced arm recorded no spans\n";
    return 1;
  }

  // -- journal replay ---------------------------------------------------------
  // Boot cost of the durability layer (docs/robustness.md): a synthetic
  // checkpoint log of in-flight distributed jobs — the state a crashed
  // daemon leaves behind — replayed through the full CheckpointLog
  // construction path (scan, CRC checks, codec decode, compaction),
  // best-of-3.  A restarted daemon pays exactly this before it can serve.
  constexpr std::size_t kJournalJobs = 48;
  constexpr std::size_t kJournalUnitsPerJob = 32;
  char journal_template[] = "/tmp/dominosyn_bench_journal_XXXXXX";
  if (::mkdtemp(journal_template) == nullptr) {
    std::cerr << "FATAL: cannot create journal scratch dir\n";
    return 1;
  }
  const std::string journal_dir = journal_template;
  {
    dist::checkpoint::CheckpointLog::Options seed_options;
    // Keep every record in the journal (no mid-seed compaction) so the
    // timed replay reads the worst-case append-only history.
    seed_options.compact_after_records =
        std::numeric_limits<std::uint64_t>::max();
    seed_options.keep_finished = kJournalJobs;
    dist::checkpoint::CheckpointLog log(journal_dir, seed_options);
    for (std::size_t j = 1; j <= kJournalJobs; ++j) {
      std::vector<dist::WorkUnit> units(kJournalUnitsPerJob);
      for (std::size_t u = 0; u < units.size(); ++u) {
        dist::WorkUnit& unit = units[u];
        unit.job_id = j;
        unit.unit_id = u;
        unit.by_power = true;
        unit.task = (j << 10) | u;
        unit.frontier_depth = 5;
        unit.bound_snapshot = 100.0 + static_cast<double>(j);
        unit.node_budget = 1 << 16;
        unit.circuit.fingerprint = 0x1234 + j;
      }
      log.record_open(j, "bench-rid-" + std::to_string(j), 30'000, units);
      for (std::size_t u = 0; u < units.size(); ++u) {
        dist::UnitResult result;
        result.job_id = j;
        result.unit_id = u;
        result.metric = 90.0 + static_cast<double>(u);
        result.code = u;
        result.leaves = u;
        result.nodes_expanded = u * 3;
        log.record_complete(result);
      }
      if (j % 4 == 0) log.record_finish(j, /*failed=*/false);
    }
    log.sync();
  }
  const std::uint64_t journal_bytes =
      journal::scan_file(journal_dir + "/journal.djl").valid_bytes;
  double replay_seconds = std::numeric_limits<double>::infinity();
  dist::checkpoint::ReplayStats replay_stats;
  for (int rep = 0; rep < 3; ++rep) {
    stopwatch.restart();
    dist::checkpoint::CheckpointLog log(journal_dir);
    replay_seconds = std::min(replay_seconds, stopwatch.seconds());
    replay_stats = log.replay_stats();
    if (replay_stats.completed_units !=
            kJournalJobs * kJournalUnitsPerJob ||
        replay_stats.torn_tail) {
      std::cerr << "FATAL: journal replay lost records\n";
      return 1;
    }
  }
  std::remove((journal_dir + "/journal.djl").c_str());
  std::remove((journal_dir + "/snapshot.djl").c_str());
  ::rmdir(journal_dir.c_str());

  const unsigned resolved = ThreadPool::resolve_threads(num_threads);
  std::cout.precision(6);
  std::cout << "{\n"
            << "  \"bench\": \"micro_incremental\",\n"
            << "  \"num_threads\": " << resolved << ",\n"
            << "  \"hardware_threads\": " << ThreadPool::resolve_threads(0) << ",\n"
            << "  \"circuit\": {\"name\": \"" << net.name() << "\", \"gates\": "
            << net.num_gates() << ", \"pis\": " << net.num_pis()
            << ", \"pos\": " << net.num_pos() << "},\n"
            << "  \"candidate_eval\": {\n"
            << "    \"walk_flips\": " << walk << ",\n"
            << "    \"full_seconds\": " << full_eval_seconds << ",\n"
            << "    \"incremental_seconds\": " << incremental_eval_seconds
            << ",\n"
            << "    \"speedup\": "
            << full_eval_seconds / incremental_eval_seconds << "\n"
            << "  },\n"
            << "  \"minpower_search\": {\n"
            << "    \"trials\": " << incremental.counters.evaluations << ",\n"
            << "    \"commits\": " << incremental.counters.commits << ",\n"
            << "    \"final_power\": " << incremental.final_power << ",\n"
            << "    \"full_reeval_seconds\": " << full_search_seconds
            << ",\n"
            << "    \"incremental_seconds\": "
            << incremental_search_seconds << ",\n"
            << "    \"speedup_incremental\": "
            << full_search_seconds / incremental_search_seconds << "\n"
            << "  },\n"
            << "  \"commit_path\": {\n"
            << "    \"commits\": " << incremental.counters.commits << ",\n"
            << "    \"candidate_pairs\": " << cp_pairs << ",\n"
            << "    \"commit_rescore_pairs\": "
            << incremental.counters.commit_rescore_pairs << ",\n"
            << "    \"avg_update_nodes\": "
            << incremental.counters.avg_update_nodes << ",\n"
            << "    \"cold_commit_seconds\": " << cold_commit_seconds << ",\n"
            << "    \"incremental_commit_seconds\": "
            << incremental_commit_seconds << ",\n"
            << "    \"speedup_per_commit\": "
            << cold_commit_seconds / incremental_commit_seconds << ",\n"
            << "    \"commits_per_second\": "
            << static_cast<double>(incremental.counters.commits) /
                   incremental_search_seconds << ",\n"
            << "    \"end_to_end_mp_seconds\": " << incremental_search_seconds
            << ",\n"
            << "    \"end_to_end_mp_speedup_vs_seed\": "
            << full_search_seconds / incremental_search_seconds << "\n"
            << "  },\n"
            << "  \"exhaustive_search\": {\n"
            << "    \"circuit\": {\"name\": \"" << small.name()
            << "\", \"gates\": " << small.num_gates() << ", \"pos\": "
            << small.num_pos() << "},\n"
            << "    \"candidates\": " << (1ULL << small.num_pos()) << ",\n"
            << "    \"full_seconds\": " << exhaustive_full_seconds
            << ",\n"
            << "    \"incremental_seconds\": "
            << exhaustive_incremental_seconds << ",\n"
            << "    \"parallel_seconds\": "
            << exhaustive_parallel_seconds << ",\n"
            << "    \"speedup_incremental\": "
            << exhaustive_full_seconds / exhaustive_incremental_seconds
            << ",\n"
            << "    \"speedup_parallel\": "
            << exhaustive_full_seconds / exhaustive_parallel_seconds
            << "\n"
            << "  },\n"
            << "  \"exhaustive_bb\": {\n"
            << "    \"gate_target\": " << gate_target << ",\n"
            << "    \"time_budget_seconds\": " << bb_budget_seconds << ",\n"
            << "    \"elapsed_seconds\": " << bb_elapsed_seconds << ",\n"
            << "    \"largest_tractable_pos\": "
            << (bb_runs.empty() ? 0 : bb_runs.back().pos) << ",\n"
            << "    \"runs\": [";
  for (std::size_t i = 0; i < bb_runs.size(); ++i) {
    const BbRun& run = bb_runs[i];
    std::cout << (i == 0 ? "\n" : ",\n")
              << "      {\"pos\": " << run.pos
              << ", \"candidates_unpruned\": " << run.unpruned
              << ", \"nodes_expanded\": "
              << run.result.counters.nodes_expanded
              << ", \"evaluated_candidates\": "
              << run.result.counters.evaluations
              << ", \"subtrees_pruned\": "
              << run.result.counters.subtrees_pruned
              << ", \"prune_factor\": "
              << static_cast<double>(run.unpruned) /
                     static_cast<double>(std::max<std::size_t>(
                         run.result.counters.nodes_expanded, 1))
              << ", \"bound_tightness\": "
              << run.result.counters.bound_tightness
              << ", \"bb_seconds\": " << run.bb_seconds;
    if (run.gray_seconds >= 0.0)
      std::cout << ", \"gray_seconds\": " << run.gray_seconds
                << ", \"speedup_vs_gray\": "
                << run.gray_seconds / run.bb_seconds;
    std::cout << "}";
  }
  std::cout << "\n    ]\n"
            << "  },\n"
            << "  \"batched_sweep\": {\n"
            << "    \"circuits\": " << sweep_nets.size() << ",\n"
            << "    \"jobs\": " << sweep_jobs.size() << ",\n"
            << "    \"sim_steps\": " << sweep_steps << ",\n"
            << "    \"monolithic_seconds\": " << sweep_monolithic_seconds
            << ",\n"
            << "    \"batch_seconds\": " << sweep_batch_seconds << ",\n"
            << "    \"batch_parallel_seconds\": "
            << sweep_batch_parallel_seconds << ",\n"
            << "    \"speedup_amortization\": "
            << sweep_monolithic_seconds / sweep_batch_seconds << ",\n"
            << "    \"speedup_parallel\": "
            << sweep_monolithic_seconds / sweep_batch_parallel_seconds << "\n"
            << "  },\n"
            << "  \"server_throughput\": {\n"
            << "    \"workers\": " << resolved << ",\n"
            << "    \"client_threads\": " << server_clients << ",\n"
            << "    \"requests_per_wave\": " << wave_requests << ",\n"
            << "    \"cold\": {\n"
            << "      \"seconds\": " << cold_wave.seconds << ",\n"
            << "      \"requests_per_second\": "
            << static_cast<double>(wave_requests) / cold_wave.seconds << ",\n"
            << "      \"p50_ms\": " << quantile_ms(cold_wave.latencies, 0.5)
            << ",\n"
            << "      \"p95_ms\": " << quantile_ms(cold_wave.latencies, 0.95)
            << "\n    },\n"
            << "    \"hot\": {\n"
            << "      \"seconds\": " << hot_wave.seconds << ",\n"
            << "      \"requests_per_second\": "
            << static_cast<double>(wave_requests) / hot_wave.seconds << ",\n"
            << "      \"p50_ms\": " << quantile_ms(hot_wave.latencies, 0.5)
            << ",\n"
            << "      \"p95_ms\": " << quantile_ms(hot_wave.latencies, 0.95)
            << "\n    },\n"
            << "    \"speedup_hot\": " << cold_wave.seconds / hot_wave.seconds
            << "\n"
            << "  },\n"
            << "  \"distributed_search\": {\n"
            << "    \"circuit\": {\"name\": \"" << dist_spec.name
            << "\", \"gates\": " << dist_prepared->net.num_gates()
            << ", \"pos\": " << dist_spec.num_pos << "},\n"
            << "    \"frontier_depth\": " << kDistFrontier << ",\n"
            << "    \"units\": " << (1ULL << kDistFrontier) << ",\n"
            << "    \"hardware_threads\": "
            << std::thread::hardware_concurrency() << ",\n"
            << "    \"local_seconds\": " << dist_local_seconds << ",\n"
            << "    \"one_worker_seconds\": " << dist_worker_seconds[1]
            << ",\n"
            << "    \"two_worker_seconds\": " << dist_worker_seconds[2]
            << ",\n"
            << "    \"fabric_overhead_1w\": "
            << dist_worker_seconds[1] / dist_local_seconds << ",\n"
            << "    \"speedup_2w\": "
            << dist_worker_seconds[1] / dist_worker_seconds[2] << "\n"
            << "  },\n"
            << "  \"tracing_overhead\": {\n"
            << "    \"workload\": \"commit_path\",\n"
            << "    \"compiled_out\": "
            << (obs::kTracingCompiledOut ? "true" : "false") << ",\n"
            << "    \"commit_path_traced_seconds\": " << traced_seconds
            << ",\n"
            << "    \"commit_path_untraced_seconds\": " << untraced_seconds
            << ",\n"
            << "    \"overhead_ratio\": " << traced_seconds / untraced_seconds
            << ",\n"
            << "    \"events_recorded\": " << tracing_events << "\n"
            << "  },\n"
            << "  \"journal_replay\": {\n"
            << "    \"jobs\": " << kJournalJobs << ",\n"
            << "    \"units_per_job\": " << kJournalUnitsPerJob << ",\n"
            << "    \"records\": " << replay_stats.records << ",\n"
            << "    \"journal_bytes\": " << journal_bytes << ",\n"
            << "    \"replay_seconds\": " << replay_seconds << ",\n"
            << "    \"records_per_second\": "
            << static_cast<double>(replay_stats.records) / replay_seconds
            << "\n"
            << "  }\n"
            << "}\n";
  return 0;
}
