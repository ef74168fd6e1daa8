/// \file paper_cold.cpp
/// `paper_cold`: the Table 1 sweep.  Each of the seven paper circuits goes in
/// as a cold `mode=mp` submit on a fresh session key, then `mode=ma` on the
/// now-warm session, from one closed-loop client.  The seed sets the circuit
/// order and the simulation seed.

#include <optional>
#include <random>

#include "bench.hpp"
#include "benchgen/benchgen.hpp"
#include "blif/blif.hpp"
#include "flow/session.hpp"
#include "server/protocol.hpp"

namespace perfbench {

namespace {

using dominosyn::protocol::find_bool;
using dominosyn::protocol::find_number;

struct Circuit {
  std::string name;  ///< paper name, may contain a space
  std::string key;   ///< space-free session-key stem
  std::string blif;
};

struct SweepAnswers {
  std::vector<Reply> mp;  ///< per circuit, in sweep order
  std::vector<Reply> ma;
  double seconds = 0.0;
};

std::string space_free(std::string name) {
  for (char& c : name)
    if (c == ' ') c = '_';
  return name;
}

double field(const Reply& reply, const char* key) {
  return find_number(reply.summary.raw, key).value_or(0.0);
}

}  // namespace

void run_paper_cold(const RunArgs& args, Result& result) {
  std::mt19937_64 rng(args.seed);
  const std::uint64_t sim_seed = 1 + rng() % 1000;
  std::vector<std::size_t> order(dominosyn::paper_suite().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng() % i]);

  std::vector<Circuit> circuits;
  std::unique_ptr<Daemon> daemon;
  std::optional<dominosyn::Client> client;
  const double setup_s = timed_setup(
      [&] {
        dominosyn::ServerConfig config;
        config.num_workers = 1;
        daemon = std::make_unique<Daemon>(config);
        client.emplace(daemon->connect());
        for (const std::size_t index : order) {
          const dominosyn::BenchSpec& spec = dominosyn::paper_suite()[index];
          circuits.push_back(Circuit{
              spec.name, space_free(spec.name),
              dominosyn::blif::write_string(dominosyn::generate_benchmark(spec))});
        }
      },
      [&] {
        client.reset();
        daemon.reset();
        circuits.clear();
      });

  const std::string options = " sim_steps=1024 sim_warmup=16 sim_seed=" +
                              std::to_string(sim_seed);
  std::size_t sweep_index = 0;
  std::uint64_t request_id = 0;
  const auto run_sweep = [&] {
    const ScopedSpan sweep_span("bench.sweep");
    SweepAnswers answers;
    const auto start = Clock::now();
    for (const Circuit& circuit : circuits) {
      const std::string head = "submit blif=inline circuit=" + circuit.key + ".s" +
                               std::to_string(sweep_index);
      answers.mp.push_back(submit(*client, head + " mode=mp" + options,
                                  circuit.blif, ++request_id));
      answers.ma.push_back(submit(*client, head + " mode=ma" + options,
                                  circuit.blif, ++request_id));
    }
    answers.seconds = seconds_between(start, Clock::now());
    ++sweep_index;
    return answers;
  };
  // Whole sweeps until the budget is spent (at least one).
  const auto run_for = [&](double budget_s) {
    std::vector<SweepAnswers> sweeps;
    const auto start = Clock::now();
    do {
      sweeps.push_back(run_sweep());
    } while (seconds_between(start, Clock::now()) < budget_s);
    return sweeps;
  };

  std::vector<SweepAnswers> untraced;
  std::vector<SweepAnswers> traced;
  if (args.trace) {
    untraced = run_for(args.seconds / 2);
    spans().enable(true);
    traced = run_for(args.seconds / 2);
  } else {
    untraced = run_for(args.seconds);
  }

  // -- correctness: every answer ok, every sweep identical --------------------
  const SweepAnswers& reference = untraced.front();
  for (const auto* pass : {&untraced, &traced}) {
    for (const SweepAnswers& sweep : *pass) {
      for (std::size_t c = 0; c < circuits.size(); ++c) {
        for (const auto& [reply, ref] :
             {std::pair{&sweep.mp[c], &reference.mp[c]},
              std::pair{&sweep.ma[c], &reference.ma[c]}}) {
          ++result.attempted;
          if (!answered_ok(*reply)) {
            ++result.failed;
            result.wrong(circuits[c].name + ": " + reply->summary.status + " " +
                         reply->summary.error);
          } else if (report_body(reply->summary.raw) !=
                     report_body(ref->summary.raw)) {
            ++result.failed;
            result.wrong(circuits[c].name + ": report differs between sweeps");
          }
        }
      }
    }
  }

  // The job-set time sums, over circuits, each circuit's median (over the
  // run's sweeps) of its cold mp plus warm ma round trips: one slow circuit
  // in one sweep moves it less than it moves a median of whole sweeps.
  const auto jobset_of = [&](const std::vector<SweepAnswers>& sweeps) {
    double total = 0.0;
    for (std::size_t c = 0; c < circuits.size(); ++c) {
      std::vector<double> pair_s;
      for (const SweepAnswers& sweep : sweeps)
        pair_s.push_back(sweep.mp[c].round_trip_s + sweep.ma[c].round_trip_s);
      total += median(pair_s);
    }
    return total;
  };
  // The cold-submit p50 is the median over circuits of each circuit's median
  // cold latency; the seven circuits differ by three orders of magnitude, so
  // a pooled median would jump between circuits with the sweep count.
  std::vector<double> sweep_s;
  for (const SweepAnswers& sweep : untraced) sweep_s.push_back(sweep.seconds);
  std::vector<double> cold_s;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    std::vector<double> circuit_s;
    for (const SweepAnswers& sweep : untraced)
      circuit_s.push_back(sweep.mp[c].round_trip_s);
    cold_s.push_back(median(circuit_s));
  }
  const double jobset_s = jobset_of(untraced);
  double saving_pct = 0.0;
  std::size_t exact = 0;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const double ma_power = field(reference.ma[c], "sim_power");
    const double mp_power = field(reference.mp[c], "sim_power");
    if (ma_power > 0.0) saving_pct += 100.0 * (ma_power - mp_power) / ma_power;
    if (find_bool(reference.mp[c].summary.raw, "used_exact_bdd").value_or(false))
      ++exact;
  }
  saving_pct /= static_cast<double>(circuits.size());

  result.set("setup_s", setup_s, "s");
  result.set("jobset_s", jobset_s, "s");
  result.note("sweep_s = " + std::to_string(median(sweep_s)) + " s (median of " +
              std::to_string(sweep_s.size()) + " sweeps)");
  result.note("cold_submit_s.p50 = " + std::to_string(median(cold_s)) +
              " s (median of per-circuit medians, n=" +
              std::to_string(sweep_s.size() * circuits.size()) + ")");
  result.note("mp_power_saving_pct = " + std::to_string(saving_pct) +
              " % (Table 1 average over " + std::to_string(circuits.size()) +
              " circuits, sim_seed=" + std::to_string(sim_seed) + ")");
  result.note("exact_prob_circuits = " + std::to_string(exact) + " of " +
              std::to_string(circuits.size()));
  for (std::size_t c = 0; c < circuits.size(); ++c)
    result.note("  " + circuits[c].name + ": cold mp " +
                std::to_string(reference.mp[c].round_trip_s) + " s, warm ma " +
                std::to_string(reference.ma[c].round_trip_s) + " s, exact_bdd=" +
                (find_bool(reference.mp[c].summary.raw, "used_exact_bdd")
                         .value_or(false)
                     ? "yes"
                     : "no"));
  if (!args.trace) return;

  // -- traced run: per-layer numbers -------------------------------------------
  result.set("trace.overhead_s", jobset_of(traced) - jobset_s, "s");
  result.set("flow.mp_saving_pct", saving_pct, "%");
  result.set("sweep.cold_submit_s.p50", median(cold_s), "s");
  result.set("flow.exact_prob_circuits", static_cast<double>(exact), "count");

  // Serving-side telemetry of the traced sweeps, per sweep.
  std::vector<const Reply*> replies;
  for (const SweepAnswers& sweep : traced) {
    for (const Reply& reply : sweep.mp) replies.push_back(&reply);
    for (const Reply& reply : sweep.ma) replies.push_back(&reply);
  }
  record_serving_layers(replies, static_cast<double>(traced.size()), result);
  double evaluations = 0, walks = 0, batched = 0, cells = 0, nodes = 0;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    for (const Reply* reply : {&reference.mp[c], &reference.ma[c]}) {
      evaluations += field(*reply, "search_evaluations");
      walks += field(*reply, "search_batch_walks");
      batched += field(*reply, "search_batched_trials");
      nodes += field(*reply, "search_nodes_expanded");
    }
    cells += field(reference.mp[c], "cells");
  }
  result.set("search.evaluations", evaluations, "count");
  result.set("search.batch_walks", walks, "count");
  result.set("search.batched_trials", batched, "count");
  result.set("search.nodes_expanded", nodes, "count");
  result.set("map.mp_cells_total", cells, "count");

  // In-process replay of one sweep through the FlowSession stage entry
  // points: times each layer and must reproduce the wire reports exactly.
  double wasted_s = 0.0;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const std::uint64_t id = ++request_id;
    const ScopedSpan circuit_span("replay." + circuits[c].key, id);
    std::optional<dominosyn::Network> net;
    {
      const ScopedSpan span("blif.parse");
      net.emplace(dominosyn::blif::read_string(circuits[c].blif));
    }
    dominosyn::FlowOptions flow;
    flow.mode = dominosyn::PhaseMode::kMinPower;
    flow.sim.steps = 1024;
    flow.sim.warmup = 16;
    flow.sim.seed = sim_seed;
    dominosyn::FlowSession session(*net, flow);
    const double probs_s = replay_shared_stages(session);
    if (!session.probabilities().used_exact_bdd) wasted_s += probs_s;
    {
      const ScopedSpan span("flow.assign_ma");
      (void)session.assign(dominosyn::PhaseMode::kMinArea);
    }
    {
      const ScopedSpan span("flow.assign_mp");
      (void)session.assign(dominosyn::PhaseMode::kMinPower);
    }
    for (const auto mode :
         {dominosyn::PhaseMode::kMinPower, dominosyn::PhaseMode::kMinArea}) {
      {
        const ScopedSpan span("flow.map");
        (void)session.map(mode);
      }
      {
        const ScopedSpan span("flow.measure");
        (void)session.measure(mode);
      }
      const Reply& wire =
          mode == dominosyn::PhaseMode::kMinPower ? reference.mp[c] : reference.ma[c];
      if (report_body(session.report(mode)) != report_body(wire.summary.raw))
        result.wrong(circuits[c].name + ": wire report differs from the " +
                     "in-process FlowSession (" + std::string(to_string(mode)) +
                     ")");
    }
  }
  record_flow_layers(result);
  result.set("probs.wasted_s", wasted_s, "s");
  result.set("probs.exact_ratio",
             static_cast<double>(exact) / static_cast<double>(circuits.size()),
             "ratio");
}

}  // namespace perfbench
