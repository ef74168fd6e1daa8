/// \file protocol.cpp

#include "server/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <limits>
#include <utility>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "blif/blif.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/fault.hpp"

namespace dominosyn::protocol {

using codec::append_field;

namespace {

PhaseMode parse_mode(std::string_view text) {
  if (text == "allpos" || text == "all-positive") return PhaseMode::kAllPositive;
  if (text == "ma" || text == "min-area") return PhaseMode::kMinArea;
  if (text == "mp" || text == "min-power") return PhaseMode::kMinPower;
  if (text == "exhaustive" || text == "exhaustive-power")
    return PhaseMode::kExhaustivePower;
  throw ProtocolError("unknown mode '" + std::string(text) +
                      "' (allpos|ma|mp|exhaustive)");
}

/// Submit options are user-typed: range-checked by the CLI parsers.
long require_long(const codec::Field& field, long min_value, long max_value) {
  const std::string value(field.value);
  const auto parsed = cli::parse_long(value.c_str(), min_value, max_value);
  if (!parsed)
    throw ProtocolError(std::string(field.key) + " must be an integer in [" +
                        std::to_string(min_value) + ", " +
                        std::to_string(max_value) + "], got '" + value + "'");
  return *parsed;
}

double require_double(const codec::Field& field, double min_value,
                      double max_value) {
  const std::string value(field.value);
  const auto parsed = cli::parse_double(value.c_str(), min_value, max_value);
  if (!parsed)
    throw ProtocolError(std::string(field.key) + " must be a number in [" +
                        std::to_string(min_value) + ", " +
                        std::to_string(max_value) + "], got '" + value + "'");
  return *parsed;
}

/// Consumes an inline-BLIF body up to `.end`; returns the full text.
/// Throws ProtocolError when the input ends first.
std::string read_blif_body(const LineSource& next_line) {
  std::string text;
  while (auto line = next_line()) {
    text += *line;
    text += '\n';
    // Trim trailing whitespace/CR before matching the terminator.
    std::string_view trimmed = *line;
    while (!trimmed.empty() &&
           (trimmed.back() == '\r' || trimmed.back() == ' ' ||
            trimmed.back() == '\t'))
      trimmed.remove_suffix(1);
    if (trimmed == ".end") return text;
  }
  throw ProtocolError("inline BLIF body ended before .end");
}

Command parse_submit_header(const std::vector<std::string_view>& tokens,
                            std::string& corpus, bool& inline_blif) {
  Command command;
  command.kind = CommandKind::kSubmit;
  ServerRequest& request = command.request;

  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const codec::Field field = codec::split_field("submit", tokens[i]);
    const std::string_view key = field.key;
    const std::string_view value = field.value;

    // Names may hold spaces ("Industry 1"), so they travel percent-encoded.
    if (key == "circuit") {
      request.circuit = codec::percent_decode(value);
    } else if (key == "corpus") {
      corpus = codec::percent_decode(value);
    } else if (key == "blif") {
      if (value != "inline")
        throw ProtocolError("blif only supports 'inline' (body until .end)");
      inline_blif = true;
    } else if (key == "mode") {
      request.options.mode = parse_mode(value);
    } else if (key == "threads") {
      request.options.num_threads =
          static_cast<unsigned>(require_long(field, 0, 1024));
    } else if (key == "pi_prob") {
      request.options.pi_prob = require_double(field, 0.0, 1.0);
    } else if (key == "sim_steps") {
      request.options.sim.steps =
          static_cast<std::size_t>(require_long(field, 1, 1 << 24));
    } else if (key == "sim_warmup") {
      request.options.sim.warmup =
          static_cast<std::size_t>(require_long(field, 0, 1 << 24));
    } else if (key == "sim_seed") {
      request.options.sim.seed = static_cast<std::uint64_t>(
          require_long(field, 0, std::numeric_limits<long>::max()));
    } else if (key == "clock") {
      request.options.clock_period = require_double(field, 0.0, 1e9);
    } else if (key == "exh_limit") {
      request.options.exhaustive_pos_limit =
          static_cast<std::size_t>(require_long(field, 0, 62));
    } else if (key == "load_aware") {
      request.options.model.load_aware = require_long(field, 0, 1) != 0;
    } else if (key == "dist") {
      request.options.dist.enabled = require_long(field, 0, 1) != 0;
    } else if (key == "dist_frontier") {
      request.options.dist.frontier_depth = static_cast<std::size_t>(
          require_long(field, 0, dist::kMaxFrontierDepth));
    } else if (key == "dist_shared") {
      request.options.dist.shared_bounds = require_long(field, 0, 1) != 0;
    } else if (key == "dist_participate") {
      request.options.dist.participate = require_long(field, 0, 1) != 0;
    } else if (key == "rid") {
      request.request_id = value;
    } else if (key == "retry") {
      request.retry_attempt =
          static_cast<unsigned>(require_long(field, 0, 1 << 20));
    } else if (key == "deadline_ms") {
      request.deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(
                             require_long(field, 0, 86'400'000));
    } else {
      throw ProtocolError("unknown submit key '" + std::string(key) + "'");
    }
  }

  if (corpus.empty() == !inline_blif)
    throw ProtocolError("submit needs exactly one of corpus=<name> or "
                        "blif=inline");
  // Checked here, on the effective values, so that a request the simulator
  // would refuse is not first synthesized, searched and mapped.
  const SimPowerOptions& sim = request.options.sim;
  if (sim.steps <= sim.warmup)
    throw ProtocolError("sim_steps=" + std::to_string(sim.steps) +
                        " must exceed sim_warmup=" +
                        std::to_string(sim.warmup));
  return command;
}

Command parse_submit(const std::vector<std::string_view>& tokens,
                     const LineSource& next_line) {
  // blif=inline means a body follows regardless of whether the header
  // parses, so on a header error the body must still be consumed — else the
  // connection desynchronizes and BLIF lines get answered as commands.
  const bool inline_requested =
      std::find(tokens.begin(), tokens.end(), "blif=inline") != tokens.end();

  Command command;
  std::string corpus;
  bool inline_blif = false;
  try {
    command = parse_submit_header(tokens, corpus, inline_blif);
  } catch (const ProtocolError&) {
    if (inline_requested) {
      try {
        (void)read_blif_body(next_line);
      } catch (const ProtocolError&) {
        // Input ended mid-body: the header error is the one worth reporting.
      }
    }
    throw;
  }

  if (inline_blif) {
    const std::string text = read_blif_body(next_line);
    try {
      command.request.network =
          std::make_shared<const Network>(blif::read_string(text));
    } catch (const std::exception& e) {
      throw ProtocolError(std::string("BLIF parse failed: ") + e.what());
    }
    // Keep the verbatim text: a dist-enabled request ships it to workers.
    command.request.blif_text = text;
  } else {
    try {
      command.request.network = paper_network(corpus);
    } catch (const std::exception& e) {
      throw ProtocolError(std::string("corpus lookup failed: ") + e.what());
    }
    command.request.corpus = corpus;
  }
  return command;
}

/// Parses the shared `key=value` tail of the single-line dist verbs.
Command parse_dist_verb(const std::vector<std::string_view>& tokens) {
  const std::string_view verb = tokens[0];
  Command command;
  command.kind = verb == "lease_work"      ? CommandKind::kLeaseWork
                 : verb == "steal"         ? CommandKind::kStealWork
                 : verb == "fetch_circuit" ? CommandKind::kFetchCircuit
                 : verb == "complete_work" ? CommandKind::kCompleteWork
                                           : CommandKind::kPushIncumbent;
  if (command.kind == CommandKind::kCompleteWork)
    command.unit_result = dist::parse_complete_tokens(tokens);
  const bool takes_job = command.kind == CommandKind::kPushIncumbent ||
                         command.kind == CommandKind::kFetchCircuit;
  bool saw_job = false;
  bool saw_metric = false;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const codec::Field field = codec::split_field(verb, tokens[i]);
    if (field.key == "worker") {
      command.worker = codec::percent_decode(field.value);
    } else if (takes_job && field.key == "job") {
      command.job_id = codec::decode_u64(field);
      saw_job = true;
    } else if (command.kind == CommandKind::kPushIncumbent &&
               field.key == "metric") {
      command.metric = codec::decode_double(field);
      saw_metric = true;
    } else if (command.kind != CommandKind::kCompleteWork) {
      throw ProtocolError("unknown '" + std::string(verb) + "' key '" +
                          std::string(field.key) + "'");
    }
  }
  if (command.worker.empty())
    throw ProtocolError("'" + std::string(verb) + "' needs worker=<id>");
  if (command.kind == CommandKind::kPushIncumbent && (!saw_job || !saw_metric))
    throw ProtocolError("push_incumbent needs job= and metric=");
  if (command.kind == CommandKind::kFetchCircuit && !saw_job)
    throw ProtocolError("fetch_circuit needs job=");
  return command;
}

void append_report(std::string& out, const FlowReport& report) {
  out += "\"report\":{";
  append_field(out, "circuit", std::string_view(report.circuit));
  append_field(out, "mode", to_string(report.mode));
  append_field(out, "pis", report.pis);
  append_field(out, "pos", report.pos);
  append_field(out, "latches", report.latches);
  append_field(out, "synth_gates", report.synth_gates);
  append_field(out, "block_gates", report.block_gates);
  append_field(out, "boundary_inverters", report.boundary_inverters);
  append_field(out, "cells", report.cells);
  append_field(out, "area", report.area);
  append_field(out, "est_power", report.est_power);
  append_field(out, "sim_power", report.sim_power);
  out += "\"sim_breakdown\":{";
  append_field(out, "domino_block", report.sim_breakdown.domino_block);
  append_field(out, "input_inverters", report.sim_breakdown.input_inverters);
  append_field(out, "output_inverters", report.sim_breakdown.output_inverters);
  append_field(out, "clock_load", report.sim_breakdown.clock_load,
               /*comma=*/false);
  out += "},";
  append_field(out, "critical_delay", report.critical_delay);
  append_field(out, "timing_met", report.timing_met);
  append_field(out, "resize_moves", report.resize_moves);
  std::string assignment;
  assignment.reserve(report.assignment.size());
  for (const Phase phase : report.assignment)
    assignment += phase == Phase::kPositive ? '+' : '-';
  append_field(out, "assignment", std::string_view(assignment));
  append_field(out, "negative_outputs", report.negative_outputs);
#define DOMINOSYN_REPORT_FIELD(rule, type, field, key, ...) \
  append_field(out, #key, report.search.field);
  DOMINOSYN_SEARCH_COUNTERS(DOMINOSYN_REPORT_FIELD)
#undef DOMINOSYN_REPORT_FIELD
  append_field(out, "used_exact_bdd", report.used_exact_bdd);
  append_field(out, "equivalence_ok", report.equivalence_ok);
  append_field(out, "seconds", report.seconds, /*comma=*/false);
  out += '}';
}

void append_telemetry(std::string& out, const ServerTelemetry& telemetry) {
  out += "\"telemetry\":{";
  append_field(out, "cache_hit", telemetry.cache_hit);
  out += "\"stage_builds\":{";
  append_field(out, "synth", telemetry.rebuilt.synth_builds);
  append_field(out, "probs", telemetry.rebuilt.prob_builds);
  append_field(out, "context", telemetry.rebuilt.context_builds);
  append_field(out, "assign", telemetry.rebuilt.assign_searches);
  append_field(out, "map", telemetry.rebuilt.map_runs);
  append_field(out, "measure", telemetry.rebuilt.measure_runs,
               /*comma=*/false);
  out += "},";
  append_field(out, "queue_seconds", telemetry.queue_seconds);
  append_field(out, "service_seconds", telemetry.service_seconds);
  append_field(out, "degraded", telemetry.degraded, /*comma=*/false);
  out += '}';
}

}  // namespace

std::optional<Command> read_command(const LineSource& next_line) {
  for (;;) {
    const auto line = next_line();
    if (!line) return std::nullopt;
    const std::vector<std::string_view> tokens = codec::split_tokens(*line);
    if (tokens.empty()) continue;  // blank line / keep-alive

    const std::string_view verb = tokens[0];
    if (verb == "submit") return parse_submit(tokens, next_line);
    if (verb == "lease_work" || verb == "steal" || verb == "fetch_circuit" ||
        verb == "complete_work" || verb == "push_incumbent")
      return parse_dist_verb(tokens);
    if (verb == "job_status") {
      Command command;
      command.kind = CommandKind::kJobStatus;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const codec::Field field = codec::split_field(verb, tokens[i]);
        if (field.key != "rid")
          throw ProtocolError("unknown job_status key '" +
                              std::string(field.key) + "'");
        command.rid = field.value;
      }
      if (command.rid.empty())
        throw ProtocolError("job_status needs rid=<fingerprint>");
      return command;
    }
    if (verb == "stats" || verb == "metrics" || verb == "trace" ||
        verb == "ping" || verb == "quit") {
      if (tokens.size() != 1)
        throw ProtocolError("'" + std::string(verb) + "' takes no arguments");
      Command command;
      command.kind = verb == "stats"     ? CommandKind::kStats
                     : verb == "metrics" ? CommandKind::kMetrics
                     : verb == "trace"   ? CommandKind::kTrace
                     : verb == "ping"    ? CommandKind::kPing
                                         : CommandKind::kQuit;
      return command;
    }
    throw ProtocolError("unknown command '" + std::string(verb) +
                        "' (submit|job_status|stats|metrics|trace|ping|quit)");
  }
}

std::optional<Command> read_command(std::istream& in) {
  return read_command([&in]() -> std::optional<std::string> {
    std::string line;
    if (!std::getline(in, line)) return std::nullopt;
    return line;
  });
}

std::string format_response(const ServerResponse& response) {
  std::string out = "{";
  append_field(out, "ok", response.status == ServerStatus::kOk);
  append_field(out, "status", to_string(response.status),
               /*comma=*/response.status == ServerStatus::kOk);
  if (response.status == ServerStatus::kOk) {
    append_report(out, response.report);
    out += ',';
    append_telemetry(out, response.telemetry);
  } else if (!response.error_message.empty()) {
    out += ',';
    append_field(out, "error", std::string_view(response.error_message),
                 /*comma=*/false);
  }
  out += '}';
  return out;
}

std::string format_stats(const ServerCore::Stats& stats,
                         const SessionCache& cache) {
  std::string out = "{";
  append_field(out, "ok", true);
  out += "\"server\":{";
#define DOMINOSYN_STATS_FIELD(field, ...) \
  append_field(out, #field, stats.field);
  DOMINOSYN_SERVER_COUNTERS(DOMINOSYN_STATS_FIELD, DOMINOSYN_STATS_FIELD,
                            DOMINOSYN_STATS_FIELD, DOMINOSYN_IGNORE)
#undef DOMINOSYN_STATS_FIELD
  out.back() = '}';  // the last field's comma closes the section
  out += ',';
  // Latency histograms as sparse [bucket_index, count] pairs plus the
  // quantiles the CLI prints — bucket i covers [2^(i-1), 2^i) microseconds
  // (bucket 0 is exactly 0); see obs/metrics.hpp.
  out += "\"hist\":{";
  const auto append_histogram = [&out](std::string_view name,
                                       const obs::HistogramSnapshot& hist,
                                       bool comma) {
    out += '"';
    out += name;
    out += "\":{";
    append_field(out, "count", static_cast<std::size_t>(hist.count));
    append_field(out, "sum", hist.sum);
    append_field(out, "p50", static_cast<std::size_t>(hist.quantile(0.50)));
    append_field(out, "p95", static_cast<std::size_t>(hist.quantile(0.95)));
    append_field(out, "p99", static_cast<std::size_t>(hist.quantile(0.99)));
    out += "\"buckets\":[";
    bool first = true;
    for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
      if (hist.buckets[i] == 0) continue;
      if (!first) out += ',';
      first = false;
      out += '[';
      out += std::to_string(i);
      out += ',';
      out += std::to_string(hist.buckets[i]);
      out += ']';
    }
    out += "]}";
    if (comma) out += ',';
  };
  append_histogram("queue_us", stats.queue_us, /*comma=*/true);
  append_histogram("service_us", stats.service_us, /*comma=*/false);
  out += "},";
  out += "\"cache\":{";
  append_field(out, "size", cache.size());
  append_field(out, "capacity", cache.capacity());
  append_field(out, "hits", cache.hits());
  append_field(out, "misses", cache.misses());
  append_field(out, "evictions", cache.evictions());
  append_field(out, "invalidations", cache.invalidations(), /*comma=*/false);
  out += "}}";
  return out;
}

std::string format_pong() { return R"({"ok":true,"pong":true})"; }

std::string format_job_status(const ServerCore::JobStatusResult& status) {
  using State = ServerCore::JobStatusResult::State;
  if (status.state == State::kDone) {
    // The finished job's full submit response with the state spliced in
    // right after the opening brace, so attach clients reuse the submit
    // parser unchanged.
    std::string out = format_response(status.response);
    out.insert(1, "\"state\":\"done\",");
    return out;
  }
  std::string out = "{";
  append_field(out, "ok", true);
  const std::string_view name = status.state == State::kRunning ? "running"
                                : status.state == State::kRecovered
                                    ? "recovered"
                                    : "unknown";
  append_field(out, "state", name, /*comma=*/false);
  out += '}';
  return out;
}

std::string fault_mangle_line(std::string line) {
  if (fault::point("protocol.response.truncate"))
    line.resize(line.size() / 2);
  if (fault::point("protocol.response.corrupt") && !line.empty())
    line[line.size() / 2] ^= 0x20;  // keeps the byte printable, breaks JSON
  return line;
}

std::string format_trace() {
  // chrome_trace_json yields `{"traceEvents":[...]}` on one line; splice the
  // protocol's ok field in after the opening brace.
  std::string dump = obs::chrome_trace_json();
  std::string out = "{\"ok\":true,";
  out.append(dump, 1, std::string::npos);
  return out;
}

std::string format_error(std::string_view message) {
  std::string out = "{";
  append_field(out, "ok", false);
  append_field(out, "status", std::string_view("bad_request"));
  append_field(out, "error", message, /*comma=*/false);
  out += '}';
  return out;
}

}  // namespace dominosyn::protocol
