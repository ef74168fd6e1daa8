/// \file workunit.cpp

#include "dist/workunit.hpp"

#include <limits>

#include "util/codec.hpp"

namespace dominosyn::dist {

using codec::append_field;
using codec::percent_encode;

namespace {

std::uint64_t require_u64(const std::string& json, std::string_view key) {
  const auto value = codec::find_uint64(json, key);
  if (!value)
    throw codec::Error("missing uint64 field '" + std::string(key) + "'");
  return *value;
}

double require_double(const std::string& json, std::string_view key) {
  const auto value = codec::find_number(json, key);
  if (!value)
    throw codec::Error("missing number field '" + std::string(key) + "'");
  return *value;
}

/// The key fields, in the order grants and circuit payloads write them.
void append_circuit_key(std::string& out, const CircuitKey& key) {
  append_field(out, "pi_prob", key.pi_prob);
  append_field(out, "load_aware", key.load_aware);
  append_field(out, "fingerprint", key.fingerprint);
}

CircuitKey parse_circuit_key(const std::string& json) {
  CircuitKey key;
  key.pi_prob = require_double(json, "pi_prob");
  key.load_aware = codec::find_bool(json, "load_aware").value_or(true);
  key.fingerprint = require_u64(json, "fingerprint");
  return key;
}

}  // namespace

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
  out += " metric=" + codec::encode_double(result.metric);
  out += " code=" + std::to_string(result.code);
  out += " leaves=" + std::to_string(result.leaves);
  out += " expanded=" + std::to_string(result.nodes_expanded);
  out += " pruned=" + std::to_string(result.subtrees_pruned);
  out += " tripped=" + std::string(result.budget_tripped ? "1" : "0");
  if (!result.spans_wire.empty())
    out += " spans=" + percent_encode(result.spans_wire);
  if (!result.error.empty()) out += " error=" + percent_encode(result.error);
  return out;
}

std::string format_push_command(const std::string& worker,
                                std::uint64_t job_id, double metric) {
  return "push_incumbent worker=" + percent_encode(worker) +
         " job=" + std::to_string(job_id) +
         " metric=" + codec::encode_double(metric);
}

std::string format_fetch_command(const std::string& worker,
                                 std::uint64_t job_id) {
  return "fetch_circuit worker=" + percent_encode(worker) +
         " job=" + std::to_string(job_id);
}

UnitResult parse_complete_tokens(const std::vector<std::string_view>& tokens) {
  UnitResult result;
  bool saw_job = false;
  bool saw_unit = false;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const codec::Field field = codec::split_field("complete_work", tokens[i]);
    const std::string_view key = field.key;
    if (key == "worker") {
      // connection identity, handled by the caller
    } else if (key == "job") {
      result.job_id = codec::decode_u64(field);
      saw_job = true;
    } else if (key == "unit") {
      result.unit_id = codec::decode_u64(field);
      saw_unit = true;
    } else if (key == "ok") {
      result.ok = codec::decode_flag(field);
    } else if (key == "metric") {
      result.metric = codec::decode_double(field);
    } else if (key == "code") {
      result.code = codec::decode_u64(field);
    } else if (key == "leaves") {
      result.leaves = codec::decode_u64(field);
    } else if (key == "expanded") {
      result.nodes_expanded = codec::decode_u64(field);
    } else if (key == "pruned") {
      result.subtrees_pruned = codec::decode_u64(field);
    } else if (key == "tripped") {
      result.budget_tripped = codec::decode_flag(field);
    } else if (key == "spans") {
      result.spans_wire = codec::percent_decode(field.value);
    } else if (key == "error") {
      result.error = codec::percent_decode(field.value);
    } else {
      throw codec::Error("unknown complete_work key '" + std::string(key) +
                         "'");
    }
  }
  if (!saw_job || !saw_unit)
    throw codec::Error("complete_work needs job= and unit=");
  return result;
}

std::string format_work_grant(const WorkUnit& unit, double incumbent) {
  std::string out = "{";
  append_field(out, "ok", true);
  append_field(out, "work", true);
  append_field(out, "job", unit.job_id);
  append_field(out, "unit", unit.unit_id);
  append_field(out, "by_power", unit.by_power);
  append_field(out, "task", unit.task);
  append_field(out, "frontier", std::uint64_t{unit.frontier_depth});
  append_field(out, "bound", unit.bound_snapshot);
  append_field(out, "budget", unit.node_budget);
  append_field(out, "shared", unit.shared_bounds);
  // Optional: absent for untraced requests, ignored by older workers.
  if (unit.trace_id != 0) append_field(out, "trace", unit.trace_id);
  append_circuit_key(out, unit.circuit);
  append_field(out, "incumbent", incumbent, /*comma=*/false);
  out += '}';
  return out;
}

std::string format_no_work() { return R"({"ok":true,"work":false})"; }

std::string format_complete_ack(bool accepted, double incumbent) {
  std::string out = "{";
  append_field(out, "ok", true);
  append_field(out, "accepted", accepted);
  append_field(out, "incumbent", incumbent, /*comma=*/false);
  out += '}';
  return out;
}

std::string format_incumbent_ack(double incumbent) {
  std::string out = "{";
  append_field(out, "ok", true);
  append_field(out, "incumbent", incumbent, /*comma=*/false);
  out += '}';
  return out;
}

std::optional<ParsedGrant> parse_work_grant(const std::string& json) {
  if (!codec::find_bool(json, "ok").value_or(false))
    throw codec::Error("lease failed: " + json);
  if (!codec::find_bool(json, "work").value_or(false)) return std::nullopt;

  // Grants name no kind: every unit is a B&B subtree.  An older
  // coordinator's annealing grant, run as a subtree, would answer another
  // search, so it is no grant at all.
  if (json.find("\"kind\":") != std::string::npos &&
      codec::find_string(json, "kind") != "bnb")
    throw codec::Error("work unit of a kind other than bnb: " + json);

  ParsedGrant grant;
  WorkUnit& unit = grant.unit;
  unit.job_id = require_u64(json, "job");
  unit.unit_id = require_u64(json, "unit");
  unit.by_power = codec::find_bool(json, "by_power").value_or(true);
  unit.task = require_u64(json, "task");
  unit.frontier_depth =
      codec::narrow_u32("frontier", require_u64(json, "frontier"));
  unit.bound_snapshot = require_double(json, "bound");
  unit.node_budget = require_u64(json, "budget");
  unit.shared_bounds = codec::find_bool(json, "shared").value_or(false);
  unit.trace_id = codec::find_uint64(json, "trace").value_or(0);

  // Looked up by key: the circuit spec that older grants and journal unit
  // lines carry is ignored.
  unit.circuit = parse_circuit_key(json);
  grant.incumbent = require_double(json, "incumbent");
  return grant;
}

double parse_incumbent(const std::string& json) {
  return codec::find_number(json, "incumbent")
      .value_or(std::numeric_limits<double>::infinity());
}

std::string format_circuit_payload(const CircuitKey& key, std::string_view blif,
                                   const std::vector<double>& probs) {
  std::string out = "{";
  append_field(out, "ok", true);
  append_circuit_key(out, key);
  append_field(out, "blif", blif);
  std::string list;
  list.reserve(probs.size() * 20);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (i != 0) list += ',';
    list += codec::encode_double(probs[i]);
  }
  append_field(out, "probs", std::string_view(list), /*comma=*/false);
  out += '}';
  return out;
}

std::string format_no_circuit(std::uint64_t job_id) {
  std::string out = "{";
  append_field(out, "ok", false);
  append_field(out, "error",
               "no circuit for job " + std::to_string(job_id) +
                   ": unknown or finished",
               /*comma=*/false);
  out += '}';
  return out;
}

CircuitPayload parse_circuit_payload(const std::string& json) {
  if (!codec::find_bool(json, "ok").value_or(false))
    throw codec::Error("circuit fetch refused: " + json);
  CircuitPayload payload;
  payload.key = parse_circuit_key(json);
  auto blif = codec::find_string(json, "blif");
  if (!blif) throw codec::Error("circuit payload is missing 'blif'");
  payload.blif = std::move(*blif);
  const auto list = codec::find_string(json, "probs");
  if (!list) throw codec::Error("circuit payload is missing 'probs'");
  if (!list->empty()) {
    const std::vector<std::string_view> fields =
        codec::split_positional(*list, ',');
    payload.probs.reserve(fields.size());
    for (const std::string_view field : fields) {
      const auto value = codec::parse_double(field);
      if (!value)
        throw codec::Error("bad probability '" + std::string(field) +
                           "' at node " + std::to_string(payload.probs.size()));
      payload.probs.push_back(*value);
    }
  }
  return payload;
}

}  // namespace dominosyn::dist
