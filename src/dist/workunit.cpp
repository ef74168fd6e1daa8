/// \file workunit.cpp

#include "dist/workunit.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "server/protocol.hpp"

namespace dominosyn::dist {

namespace {

void append_u64(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
}

void field_u64(std::string& out, std::string_view key, std::uint64_t value,
               bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  append_u64(out, value);
  if (comma) out += ',';
}

void field_bool(std::string& out, std::string_view key, bool value,
                bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  out += value ? "true" : "false";
  if (comma) out += ',';
}

void field_string(std::string& out, std::string_view key,
                  std::string_view value, bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  protocol::append_json_string(out, value);
  if (comma) out += ',';
}

/// Doubles as JSON: shortest-round-trip numbers, non-finite as the quoted
/// literal ("inf" / "-inf" / "nan") so the line stays valid JSON.
void field_metric(std::string& out, std::string_view key, double value,
                  bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  if (std::isfinite(value)) {
    out += encode_metric(value);
  } else {
    out += '"';
    out += encode_metric(value);
    out += '"';
  }
  if (comma) out += ',';
}

/// Reads a double written by field_metric: a number, or a quoted non-finite
/// literal.  Missing key -> +inf (the "no incumbent" value).
double json_metric(const std::string& json, const std::string& key) {
  if (const auto number = protocol::find_number(json, key)) return *number;
  if (const auto text = protocol::find_string(json, key))
    return decode_metric(*text);
  return std::numeric_limits<double>::infinity();
}

std::uint64_t require_u64(const std::string& json, const std::string& key) {
  const auto value = protocol::find_uint64(json, key);
  if (!value)
    throw std::runtime_error("work grant is missing uint64 field '" + key +
                             "'");
  return *value;
}

std::uint64_t parse_u64_text(const std::string& key, const std::string& text) {
  std::uint64_t value = 0;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (result.ec != std::errc{} || result.ptr != text.data() + text.size())
    throw std::runtime_error("bad uint64 value for '" + key + "': '" + text +
                             "'");
  return value;
}

}  // namespace

std::string encode_metric(double value) {
  char buffer[40];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

double decode_metric(const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin)
    throw std::runtime_error("bad metric value '" + text + "'");
  return value;
}

std::string percent_encode(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (u <= 0x20 || u == 0x7f || c == '%' || c == '=') {
      char buffer[4];
      std::snprintf(buffer, sizeof(buffer), "%%%02x", u);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

std::string percent_decode(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '%' && i + 2 < text.size()) {
      const std::string hex = text.substr(i + 1, 2);
      char* end = nullptr;
      const long value = std::strtol(hex.c_str(), &end, 16);
      if (end == hex.c_str() + 2) {
        out += static_cast<char>(value);
        i += 2;
        continue;
      }
    }
    out += text[i];
  }
  return out;
}

std::string format_lease_command(const std::string& worker) {
  return "lease_work worker=" + percent_encode(worker);
}

std::string format_steal_command(const std::string& worker) {
  return "steal worker=" + percent_encode(worker);
}

std::string format_complete_command(const std::string& worker,
                                    const UnitResult& result) {
  std::string out = "complete_work worker=" + percent_encode(worker);
  out += " job=" + std::to_string(result.job_id);
  out += " unit=" + std::to_string(result.unit_id);
  out += " ok=" + std::string(result.ok ? "1" : "0");
  out += " metric=" + encode_metric(result.metric);
  out += " code=" + std::to_string(result.code);
  if (!result.assignment.empty()) out += " assignment=" + result.assignment;
  out += " leaves=" + std::to_string(result.leaves);
  out += " expanded=" + std::to_string(result.nodes_expanded);
  out += " pruned=" + std::to_string(result.subtrees_pruned);
  out += " evals=" + std::to_string(result.evaluations);
  out += " tripped=" + std::string(result.budget_tripped ? "1" : "0");
  if (!result.spans_wire.empty())
    out += " spans=" + percent_encode(result.spans_wire);
  if (!result.error.empty()) out += " error=" + percent_encode(result.error);
  return out;
}

std::string format_push_command(const std::string& worker,
                                std::uint64_t job_id, double metric) {
  return "push_incumbent worker=" + percent_encode(worker) +
         " job=" + std::to_string(job_id) + " metric=" + encode_metric(metric);
}

UnitResult parse_complete_tokens(const std::vector<std::string>& tokens) {
  UnitResult result;
  bool saw_job = false;
  bool saw_unit = false;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::runtime_error("complete_work arguments are key=value, got '" +
                               token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "worker") {
      // connection identity, handled by the caller
    } else if (key == "job") {
      result.job_id = parse_u64_text(key, value);
      saw_job = true;
    } else if (key == "unit") {
      result.unit_id = parse_u64_text(key, value);
      saw_unit = true;
    } else if (key == "ok") {
      result.ok = value != "0";
    } else if (key == "metric") {
      result.metric = decode_metric(value);
    } else if (key == "code") {
      result.code = parse_u64_text(key, value);
    } else if (key == "assignment") {
      result.assignment = value;
    } else if (key == "leaves") {
      result.leaves = parse_u64_text(key, value);
    } else if (key == "expanded") {
      result.nodes_expanded = parse_u64_text(key, value);
    } else if (key == "pruned") {
      result.subtrees_pruned = parse_u64_text(key, value);
    } else if (key == "evals") {
      result.evaluations = parse_u64_text(key, value);
    } else if (key == "tripped") {
      result.budget_tripped = value != "0";
    } else if (key == "spans") {
      result.spans_wire = percent_decode(value);
    } else if (key == "error") {
      result.error = percent_decode(value);
    } else {
      throw std::runtime_error("unknown complete_work key '" + key + "'");
    }
  }
  if (!saw_job || !saw_unit)
    throw std::runtime_error("complete_work needs job= and unit=");
  return result;
}

std::string format_work_grant(const WorkUnit& unit, double incumbent) {
  std::string out = "{";
  field_bool(out, "ok", true);
  field_bool(out, "work", true);
  field_u64(out, "job", unit.job_id);
  field_u64(out, "unit", unit.unit_id);
  field_string(out, "kind",
               unit.kind == UnitKind::kBnbSubtree ? "bnb" : "anneal");
  field_bool(out, "by_power", unit.by_power);
  field_u64(out, "task", unit.task);
  field_u64(out, "frontier", unit.frontier_depth);
  field_metric(out, "bound", unit.bound_snapshot);
  field_u64(out, "budget", unit.node_budget);
  field_u64(out, "aseed", unit.anneal_seed);
  field_u64(out, "restart", unit.restart_index);
  field_u64(out, "iters", unit.iterations);
  field_bool(out, "shared", unit.shared_bounds);
  // Optional: absent for untraced requests, ignored by older workers.
  if (unit.trace_id != 0) field_u64(out, "trace", unit.trace_id);
  const CircuitSpec& circuit = unit.circuit;
  field_metric(out, "pi_prob", circuit.pi_prob);
  field_bool(out, "load_aware", circuit.load_aware);
  field_u64(out, "fingerprint", circuit.fingerprint);
  if (!circuit.corpus.empty()) field_string(out, "corpus", circuit.corpus);
  if (!circuit.blif_text.empty()) field_string(out, "blif", circuit.blif_text);
  field_bool(out, "bench", circuit.has_bench);
  if (circuit.has_bench) {
    const BenchSpec& bench = circuit.bench;
    field_string(out, "bench_name", bench.name);
    field_string(out, "bench_desc", bench.description);
    field_u64(out, "bench_pis", bench.num_pis);
    field_u64(out, "bench_pos", bench.num_pos);
    field_u64(out, "bench_latches", bench.num_latches);
    field_u64(out, "bench_gates", bench.gate_target);
    field_u64(out, "bench_seed", bench.seed);
    field_metric(out, "bench_not", bench.not_prob);
    field_metric(out, "bench_and", bench.and_bias);
    field_metric(out, "bench_loc", bench.locality);
    field_u64(out, "bench_dnf", bench.dnf_width);
    field_u64(out, "bench_cnf", bench.cnf_width);
    field_u64(out, "bench_sup", bench.support_lo);
  }
  field_metric(out, "incumbent", incumbent, /*comma=*/false);
  out += '}';
  return out;
}

std::string format_no_work() { return R"({"ok":true,"work":false})"; }

std::string format_complete_ack(bool accepted, double incumbent) {
  std::string out = "{";
  field_bool(out, "ok", true);
  field_bool(out, "accepted", accepted);
  field_metric(out, "incumbent", incumbent, /*comma=*/false);
  out += '}';
  return out;
}

std::string format_incumbent_ack(double incumbent) {
  std::string out = "{";
  field_bool(out, "ok", true);
  field_metric(out, "incumbent", incumbent, /*comma=*/false);
  out += '}';
  return out;
}

std::optional<ParsedGrant> parse_work_grant(const std::string& json) {
  if (!protocol::find_bool(json, "ok").value_or(false))
    throw std::runtime_error("lease failed: " + json);
  if (!protocol::find_bool(json, "work").value_or(false)) return std::nullopt;

  ParsedGrant grant;
  WorkUnit& unit = grant.unit;
  unit.job_id = require_u64(json, "job");
  unit.unit_id = require_u64(json, "unit");
  unit.kind = protocol::find_string(json, "kind").value_or("bnb") == "anneal"
                  ? UnitKind::kAnnealRestart
                  : UnitKind::kBnbSubtree;
  unit.by_power = protocol::find_bool(json, "by_power").value_or(true);
  unit.task = require_u64(json, "task");
  unit.frontier_depth =
      static_cast<std::uint32_t>(require_u64(json, "frontier"));
  unit.bound_snapshot = json_metric(json, "bound");
  unit.node_budget = require_u64(json, "budget");
  unit.anneal_seed = require_u64(json, "aseed");
  unit.restart_index = static_cast<std::uint32_t>(require_u64(json, "restart"));
  unit.iterations = require_u64(json, "iters");
  unit.shared_bounds = protocol::find_bool(json, "shared").value_or(false);
  unit.trace_id = protocol::find_uint64(json, "trace").value_or(0);

  CircuitSpec& circuit = unit.circuit;
  circuit.pi_prob = json_metric(json, "pi_prob");
  circuit.load_aware = protocol::find_bool(json, "load_aware").value_or(true);
  circuit.fingerprint = require_u64(json, "fingerprint");
  circuit.corpus = protocol::find_string(json, "corpus").value_or("");
  circuit.blif_text = protocol::find_string(json, "blif").value_or("");
  circuit.has_bench = protocol::find_bool(json, "bench").value_or(false);
  if (circuit.has_bench) {
    BenchSpec& bench = circuit.bench;
    bench.name = protocol::find_string(json, "bench_name").value_or("");
    bench.description = protocol::find_string(json, "bench_desc").value_or("");
    bench.num_pis = require_u64(json, "bench_pis");
    bench.num_pos = require_u64(json, "bench_pos");
    bench.num_latches = require_u64(json, "bench_latches");
    bench.gate_target = require_u64(json, "bench_gates");
    bench.seed = require_u64(json, "bench_seed");
    bench.not_prob = json_metric(json, "bench_not");
    bench.and_bias = json_metric(json, "bench_and");
    bench.locality = json_metric(json, "bench_loc");
    bench.dnf_width = require_u64(json, "bench_dnf");
    bench.cnf_width = require_u64(json, "bench_cnf");
    bench.support_lo = require_u64(json, "bench_sup");
  }
  grant.incumbent = json_metric(json, "incumbent");
  return grant;
}

double parse_incumbent(const std::string& json) {
  return json_metric(json, "incumbent");
}

}  // namespace dominosyn::dist
