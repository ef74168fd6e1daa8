/// \file serve_whatif.cpp
/// `serve_whatif`: a warm daemon (two server workers) with apex7, frg1, x1
/// and x3 built during set-up, serving a seeded mix of re-queries and
/// what-ifs by `corpus=` name.  A what-if asks for a Table 2 clock target
/// (the untimed min-area critical delay times 1.00, 1.05 or 1.10), which
/// invalidates only the session's map and measure stages.
///
/// Two kinds of load, both from at most two connections:
///   * closed loop — a fixed batch drained as fast as two clients can; its
///     wall time is the workload's job-set time (the inverse of capacity);
///   * open loop — a seeded Poisson arrival schedule at each rung of a fixed
///     rate ladder, dealt to two connections.  Latency is timed from when a
///     request was due, so a stalled connection charges the wait to every
///     request behind it.

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "bench.hpp"
#include "benchgen/benchgen.hpp"
#include "flow/session.hpp"
#include "server/protocol.hpp"

namespace perfbench {

namespace {

using dominosyn::protocol::find_number;

const std::vector<std::string> kCircuits = {"apex7", "frg1", "x1", "x3"};
constexpr double kClockFactors[] = {1.00, 1.05, 1.10};
/// Untimed re-queries per what-if: one request in ten is a what-if.
constexpr std::size_t kRequeries = 9;
/// Rounds of the mix in one closed-loop batch (40 requests each).
constexpr std::size_t kBatchRounds = 6;

/// Open-loop rate ladder (requests per second) and the p99 latency limit a
/// rung must meet; README.md records how they were fixed from capacity.
struct Rung {
  const char* name;
  double rate;
};
constexpr Rung kLadder[] = {{"low", 15.0}, {"mid", 30.0}, {"high", 45.0}};
constexpr double kP99LimitMs = 500.0;

struct Request {
  std::size_t circuit = 0;
  bool min_power = true;
  std::size_t clock = 0;  ///< 0 = untimed, else 1 + index into kClockFactors
};

struct Sent {
  std::string command;
  Reply reply;
  double latency_s = 0.0;  ///< from due time (open loop) or send (closed)
  double late_s = 0.0;     ///< how late the generator sent it
};

struct RungResult {
  std::vector<Sent> sent;
  double window_s = 0.0;  ///< first due time to last response
};

/// `count` rounds of the request mix.  In a round every circuit gets one
/// what-if (a clock target, cycling through kClockFactors) and then
/// kRequeries untimed re-queries alternating ma/mp, circuits interleaved in
/// seeded order.  Each round therefore costs each circuit exactly three
/// map+measure rebuilds (the what-if and the first untimed answer of each
/// mode), so the seed moves the order of the work but not its amount.
std::vector<Request> rounds(std::mt19937_64& rng, std::size_t count) {
  std::vector<Request> out;
  std::vector<std::size_t> order(kCircuits.size());
  for (std::size_t round = 0; round < count; ++round) {
    std::vector<bool> first_mp(kCircuits.size());
    for (std::size_t c = 0; c < kCircuits.size(); ++c) first_mp[c] = rng() % 2 == 0;
    for (std::size_t step = 0; step <= kRequeries; ++step) {
      for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
      for (const std::size_t c : order) {
        Request request;
        request.circuit = c;
        request.min_power = first_mp[c] == (step % 2 == 0);
        if (step == 0) request.clock = 1 + (round + c) % std::size(kClockFactors);
        out.push_back(request);
      }
    }
  }
  return out;
}

}  // namespace

void run_serve_whatif(const RunArgs& args, Result& result) {
  std::mt19937_64 rng(args.seed);
  const std::uint64_t sim_seed = 1 + rng() % 1000;
  const std::string options =
      " sim_steps=1024 sim_warmup=16 sim_seed=" + std::to_string(sim_seed);

  std::unique_ptr<Daemon> daemon;
  std::vector<double> ma_delay(kCircuits.size(), 0.0);
  std::vector<Sent> prebuilt;
  const auto command_of = [&](const Request& request) {
    std::string command = "submit corpus=" + kCircuits[request.circuit] +
                          (request.min_power ? " mode=mp" : " mode=ma") + options;
    if (request.clock > 0)
      command += " clock=" + number(ma_delay[request.circuit] *
                                    kClockFactors[request.clock - 1]);
    return command;
  };
  const double setup_s = timed_setup(
      [&] {
        dominosyn::ServerConfig config;
        config.num_workers = 2;
        daemon = std::make_unique<Daemon>(config);
        dominosyn::Client client = daemon->connect();
        for (std::size_t c = 0; c < kCircuits.size(); ++c) {
          for (const bool min_power : {false, true}) {
            const std::string command = command_of(Request{c, min_power, 0});
            prebuilt.push_back(Sent{command, submit(client, command), 0.0, 0.0});
          }
          ma_delay[c] =
              find_number(prebuilt[prebuilt.size() - 2].reply.summary.raw,
                          "critical_delay")
                  .value_or(0.0);
        }
      },
      [&] {
        daemon.reset();
        prebuilt.clear();
      });

  // Closed loop: two clients drain one fixed batch.  Its order does not
  // depend on the workload seed: with two clients, the order decides how
  // often both wait on the same circuit, which moved the drain time between
  // seeds by more than the machine did.
  std::mt19937_64 batch_rng(kBatchRounds);
  const std::vector<Request> batch = rounds(batch_rng, kBatchRounds);
  const auto run_batch = [&](std::vector<Sent>& log) {
    const ScopedSpan span("bench.batch");
    std::vector<Sent> sent(batch.size());
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now();
    const auto client_loop = [&](dominosyn::Client& client) {
      for (std::size_t i = next++; i < batch.size(); i = next++) {
        sent[i].command = command_of(batch[i]);
        sent[i].reply = submit(client, sent[i].command);
        sent[i].latency_s = sent[i].reply.round_trip_s;
      }
    };
    // Connect on this thread, so a failed connect throws here, not in a
    // thread; submit() turns transport errors into failed replies.
    dominosyn::Client first = daemon->connect();
    dominosyn::Client second = daemon->connect();
    {
      const std::jthread other([&] { client_loop(second); });
      client_loop(first);
    }
    const double seconds = seconds_between(start, Clock::now());
    log.insert(log.end(), sent.begin(), sent.end());
    return seconds;
  };

  // Open loop: Poisson arrivals at `rate` for `duration_s`, dealt
  // alternately to two connections.
  const auto run_rung = [&](double rate, double duration_s, std::uint64_t stream) {
    const ScopedSpan span("bench.rung");
    std::mt19937_64 arrivals(args.seed * 1000 + stream);
    std::exponential_distribution<double> gap(rate);
    std::vector<double> due_s;
    for (double at = gap(arrivals); at < duration_s; at += gap(arrivals))
      due_s.push_back(at);
    const std::vector<Request> mix =
        rounds(arrivals, due_s.size() / (kCircuits.size() * (kRequeries + 1)) + 1);
    std::vector<std::pair<double, Request>> schedule;
    for (std::size_t i = 0; i < due_s.size(); ++i) schedule.emplace_back(due_s[i], mix[i]);
    RungResult rung;
    rung.sent.resize(schedule.size());
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    const auto connection = [&](dominosyn::Client& client, std::size_t first) {
      for (std::size_t i = first; i < schedule.size(); i += 2) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[i].first));
        std::this_thread::sleep_until(due);
        Sent& sent = rung.sent[i];
        sent.late_s = seconds_between(due, Clock::now());
        sent.command = command_of(schedule[i].second);
        sent.reply = submit(client, sent.command);
        sent.latency_s = seconds_between(due, Clock::now());
      }
    };
    dominosyn::Client even = daemon->connect();
    dominosyn::Client odd = daemon->connect();
    {
      const std::jthread other([&] { connection(odd, 1); });
      connection(even, 0);
    }
    rung.window_s = seconds_between(start, Clock::now());
    return rung;
  };

  struct PassResult {
    std::vector<double> batch_s;
    std::vector<Sent> batch_log;
    std::vector<RungResult> rungs;
  };
  std::uint64_t stream = 0;
  const auto run_pass = [&](double budget_s) {
    PassResult pass;
    const auto start = Clock::now();
    // Half the budget drains batches (at least three), the rest is split
    // evenly over the rungs.
    do {
      pass.batch_s.push_back(run_batch(pass.batch_log));
    } while (pass.batch_s.size() < 3 ||
             seconds_between(start, Clock::now()) < budget_s / 2);
    const double rung_s = std::max(
        1.0, (budget_s - seconds_between(start, Clock::now())) / std::size(kLadder));
    for (const Rung& rung : kLadder)
      pass.rungs.push_back(run_rung(rung.rate, rung_s, ++stream));
    return pass;
  };

  PassResult untraced;
  PassResult traced;
  if (args.trace) {
    untraced = run_pass(args.seconds / 2);
    spans().enable(true);
    traced = run_pass(args.seconds / 2);
  } else {
    untraced = run_pass(args.seconds);
  }

  // -- correctness: every answer ok; one question, one answer ------------------
  std::map<std::string, std::string> answers;
  const auto check = [&](const Sent& sent) {
    ++result.attempted;
    if (!answered_ok(sent.reply)) {
      ++result.failed;
      if (sent.reply.summary.status != "rejected_queue_full")
        result.wrong(sent.command + ": " + sent.reply.summary.status + " " +
                     sent.reply.summary.error);
      return;
    }
    const std::string body = report_body(sent.reply.summary.raw);
    const auto [it, fresh] = answers.emplace(sent.command, body);
    if (!fresh && it->second != body) {
      ++result.failed;
      result.wrong(sent.command + ": report differs from an earlier answer");
    }
  };
  for (const Sent& sent : prebuilt) check(sent);
  for (const PassResult* pass : {&untraced, &traced}) {
    for (const Sent& sent : pass->batch_log) check(sent);
    for (const RungResult& rung : pass->rungs)
      for (const Sent& sent : rung.sent) check(sent);
  }

  // -- the ladder -----------------------------------------------------------------
  double max_rps = 0.0;
  double late_max_ms = 0.0;
  for (std::size_t r = 0; r < std::size(kLadder); ++r) {
    const RungResult& rung = untraced.rungs[r];
    std::vector<double> latency_ms;
    std::size_t failed = 0;
    bool backlog = false;
    for (std::size_t i = 0; i < rung.sent.size(); ++i) {
      const Sent& sent = rung.sent[i];
      late_max_ms = std::max(late_max_ms, 1e3 * sent.late_s);
      // A refused or failed request misses the limit.
      latency_ms.push_back(answered_ok(sent.reply) ? 1e3 * sent.latency_s : 1e9);
      if (!answered_ok(sent.reply)) ++failed;
      // Backlog: the generator still runs behind by more than the limit in
      // the last quarter of the schedule.
      if (4 * i >= 3 * rung.sent.size() && 1e3 * sent.late_s > kP99LimitMs)
        backlog = true;
    }
    const double p50 = quantile(latency_ms, 0.50);
    const double p99 = quantile(latency_ms, 0.99);
    const double achieved = static_cast<double>(rung.sent.size()) / rung.window_s;
    const bool meets = failed == 0 && !backlog && p99 <= kP99LimitMs;
    if (meets) max_rps = std::max(max_rps, achieved);
    const std::string name = kLadder[r].name;
    result.set("serve.p50_ms." + name, p50, "ms");
    result.set("serve.p99_ms." + name, p99, "ms");
    result.note("rung " + name + " (" + number(kLadder[r].rate) + " req/s offered, " +
                number(achieved) + " achieved): p50 " + number(p50) + " ms, p99 " +
                number(p99) + " ms (n=" + std::to_string(latency_ms.size()) +
                "), failed " + std::to_string(failed) +
                (meets ? ", meets" : ", misses") + " the " + number(kP99LimitMs) +
                " ms p99 limit");
  }
  result.set("serve.max_rps", max_rps, "1/s");
  result.set("generator.late_ms.max", late_max_ms, "ms");
  result.set("setup_s", setup_s, "s");
  result.set("jobset_s", median(untraced.batch_s), "s");
  result.note("closed-loop batch of " + std::to_string(batch.size()) +
              " requests: " + number(median(untraced.batch_s)) + " s (median of " +
              std::to_string(untraced.batch_s.size()) + ")");
  if (!args.trace) return;

  // -- traced run: per-layer numbers -------------------------------------------
  result.set("trace.overhead_s", median(traced.batch_s) - median(untraced.batch_s),
             "s");
  std::vector<const Reply*> replies;
  for (const Sent& sent : traced.batch_log) replies.push_back(&sent.reply);
  for (const RungResult& rung : traced.rungs)
    for (const Sent& sent : rung.sent) replies.push_back(&sent.reply);
  // Counts and wire seconds per batch-sized block of requests: the traced
  // pass sends as many requests as its time allows, so a faster build sends
  // more, and totals would read its speed as more rebuilds.
  record_serving_layers(
      replies, static_cast<double>(replies.size()) / static_cast<double>(batch.size()),
      result);

  // In-process replay: every distinct question once per circuit session,
  // through the FlowSession stage entry points; each must reproduce the
  // wire's answer.
  for (std::size_t c = 0; c < kCircuits.size(); ++c) {
    const ScopedSpan circuit_span("replay." + kCircuits[c]);
    dominosyn::FlowOptions flow;
    flow.sim.steps = 1024;
    flow.sim.warmup = 16;
    flow.sim.seed = sim_seed;
    dominosyn::FlowSession session(
        dominosyn::generate_benchmark(dominosyn::paper_spec(kCircuits[c])), flow);
    (void)replay_shared_stages(session);
    {
      const ScopedSpan span("flow.assign_ma");
      (void)session.assign(dominosyn::PhaseMode::kMinArea);
    }
    {
      const ScopedSpan span("flow.assign_mp");
      (void)session.assign(dominosyn::PhaseMode::kMinPower);
    }
    for (std::size_t clock = 0; clock <= std::size(kClockFactors); ++clock) {
      for (const bool min_power : {false, true}) {
        const std::string command = command_of(Request{c, min_power, clock});
        const auto wire = answers.find(command);
        if (wire == answers.end()) continue;
        flow.mode = min_power ? dominosyn::PhaseMode::kMinPower
                              : dominosyn::PhaseMode::kMinArea;
        flow.clock_period =
            clock == 0 ? 0.0 : ma_delay[c] * kClockFactors[clock - 1];
        session.set_options(flow);
        {
          const ScopedSpan span("flow.map");
          (void)session.map(flow.mode);
        }
        {
          const ScopedSpan span("flow.measure");
          (void)session.measure(flow.mode);
        }
        if (report_body(session.report(flow.mode)) != wire->second)
          result.wrong(command + ": wire report differs from the in-process "
                                 "FlowSession");
      }
    }
  }
  record_flow_layers(result);
}

}  // namespace perfbench
