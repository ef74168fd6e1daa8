/// \file micro_phase_sim.cpp
/// google-benchmark microbenchmarks for the phase-assignment engine and the
/// power simulator: per-candidate evaluation cost (the inner loop of §4.1),
/// full search cost, domino synthesis, MFVS, and simulator throughput.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "benchgen/benchgen.hpp"
#include "bdd/netbdd.hpp"
#include "flow/session.hpp"
#include "phase/search.hpp"
#include "sgraph/mfvs.hpp"
#include "sgraph/partition.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace dominosyn;

Network sized_network(std::size_t gates, std::size_t pos, std::size_t latches = 0) {
  BenchSpec spec;
  spec.name = "micro";
  spec.num_pis = 20;
  spec.num_pos = pos;
  spec.num_latches = latches;
  spec.gate_target = gates;
  spec.seed = 77;
  return generate_benchmark(spec);
}

void BM_EvaluateAssignment(benchmark::State& state) {
  const Network net = sized_network(static_cast<std::size_t>(state.range(0)), 12);
  const std::vector<double> pi_probs(net.num_pis(), 0.5);
  const AssignmentEvaluator evaluator(net, signal_probabilities(net, pi_probs));
  Rng rng(5);
  PhaseAssignment phases(net.num_pos());
  for (auto _ : state) {
    for (auto& p : phases)
      p = rng.bernoulli(0.5) ? Phase::kNegative : Phase::kPositive;
    const auto cost = evaluator.evaluate(phases);
    benchmark::DoNotOptimize(cost.power.domino_block);
  }
  state.counters["gates"] = static_cast<double>(net.num_gates());
}
BENCHMARK(BM_EvaluateAssignment)->Arg(200)->Arg(800)->Arg(2000);

void BM_MinPowerSearch(benchmark::State& state) {
  const Network net =
      sized_network(400, static_cast<std::size_t>(state.range(0)));
  const std::vector<double> pi_probs(net.num_pis(), 0.5);
  const AssignmentEvaluator evaluator(net, signal_probabilities(net, pi_probs));
  const ConeOverlap overlap(net);
  for (auto _ : state) {
    const auto result = min_power_assignment(evaluator, overlap);
    benchmark::DoNotOptimize(result.final_power);
  }
}
BENCHMARK(BM_MinPowerSearch)->Arg(8)->Arg(16)->Arg(32);

void BM_SynthesizeDomino(benchmark::State& state) {
  const Network net = sized_network(static_cast<std::size_t>(state.range(0)), 10);
  Rng rng(9);
  PhaseAssignment phases(net.num_pos());
  for (auto& p : phases)
    p = rng.bernoulli(0.5) ? Phase::kNegative : Phase::kPositive;
  for (auto _ : state) {
    const auto result = synthesize_domino(net, phases);
    benchmark::DoNotOptimize(result.net.num_nodes());
  }
}
BENCHMARK(BM_SynthesizeDomino)->Arg(200)->Arg(800);

void BM_MfvsHeuristic(benchmark::State& state) {
  const bool symmetry = state.range(1) != 0;
  Rng rng(31);
  const auto n = static_cast<std::size_t>(state.range(0));
  SGraph graph(n);
  for (std::size_t e = 0; e < 3 * n; ++e)
    graph.add_edge(static_cast<std::uint32_t>(rng.below(n)),
                   static_cast<std::uint32_t>(rng.below(n)));
  MfvsOptions options;
  options.use_symmetry = symmetry;
  options.verify = false;
  for (auto _ : state) {
    const auto result = mfvs_heuristic(graph, options);
    benchmark::DoNotOptimize(result.fvs.size());
  }
}
BENCHMARK(BM_MfvsHeuristic)
    ->Args({50, 0})
    ->Args({50, 1})
    ->Args({200, 0})
    ->Args({200, 1});

void BM_DominoSimulator(benchmark::State& state) {
  const Network net = sized_network(static_cast<std::size_t>(state.range(0)), 10);
  const auto domino = synthesize_domino(net, all_positive(net));
  const std::vector<double> pi_probs(net.num_pis(), 0.5);
  SimPowerOptions options;
  options.steps = 128;
  options.warmup = 8;
  for (auto _ : state) {
    const auto result = simulate_domino_power(domino.net, pi_probs, options);
    benchmark::DoNotOptimize(result.per_cycle.domino_block);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 128 * 64);
  state.counters["gates"] = static_cast<double>(domino.net.num_gates());
}
BENCHMARK(BM_DominoSimulator)->Arg(200)->Arg(800);

/// The session that maps a paper circuit, built once per process: google-
/// benchmark calls a benchmark several times, and x3's set-up alone takes
/// about a second.
FlowSession& paper_session(const std::string& circuit) {
  static std::map<std::string, std::unique_ptr<FlowSession>> sessions;
  auto& session = sessions[circuit];
  if (!session)
    session = std::make_unique<FlowSession>(*paper_network(circuit), FlowOptions{});
  return *session;
}

// What a served what-if rebuild measures: the MP netlist of a paper circuit,
// mapped and loaded as FlowSession::measure loads it, at 1024 steps.
void BM_MeasureMappedCircuit(benchmark::State& state, const char* circuit) {
  FlowSession& session = paper_session(circuit);
  const MappedNetlist& mapped = session.map(PhaseMode::kMinPower).netlist;
  SimPowerOptions options = session.options().sim;
  options.steps = 1024;
  options.warmup = 16;
  options.node_caps = mapped.node_loads(0.2);
  const std::vector<double> pi_probs(mapped.net.num_pis(), session.options().pi_prob);
  for (auto _ : state) {
    const auto result = simulate_domino_power(mapped.net, pi_probs, options);
    benchmark::DoNotOptimize(result.per_cycle.domino_block);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024 * 64);
  state.counters["gates"] = static_cast<double>(mapped.net.num_gates());
}
BENCHMARK_CAPTURE(BM_MeasureMappedCircuit, x1, "x1")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MeasureMappedCircuit, x3, "x3")->Unit(benchmark::kMillisecond);

void BM_SequentialProbabilities(benchmark::State& state) {
  const Network net = sized_network(500, 8, /*latches=*/12);
  const std::vector<double> pi_probs(net.num_pis(), 0.5);
  for (auto _ : state) {
    const auto result = sequential_signal_probabilities(net, pi_probs);
    benchmark::DoNotOptimize(result.node_probs.data());
  }
}
BENCHMARK(BM_SequentialProbabilities);

}  // namespace

BENCHMARK_MAIN();
