/// \file workunit.hpp
/// The work-unit model of the distributed search fabric (docs/distributed.md)
/// and its wire encoding over the dominod line protocol.
///
/// A *work unit* is one prefix subtree of an exact branch-and-bound search
/// over the 2^P assignments: (circuit, task bits, frontier depth, bound
/// snapshot, node budget).  It is the fabric's one unit kind; min-area
/// search always runs locally.  Units run single-threaded (run_bnb_subtree),
/// so a unit's result — and, without shared bounds, its work counters — is
/// a pure function of the unit description.  Completed units carry the best
/// (metric, code) pair plus telemetry; the coordinator merges them in unit
/// order with the exact single-process tie-break.
///
/// A grant names its circuit only by CircuitKey.  The circuit itself — the
/// coordinator evaluator's synthesized network as BLIF and its per-node
/// probabilities — travels once per job and worker, as the reply to
/// `fetch_circuit`, so workers score units on the coordinator's numbers
/// without synthesis or BDDs.
///
/// Wire encoding (util/codec.hpp; docs/protocol.md, "Encodings"):
/// worker->coordinator messages are single-line `key=value` commands
/// (`lease_work`, `steal`, `fetch_circuit`, `complete_work`,
/// `push_incumbent`); coordinator->worker responses are one-line flat JSON.
/// uint64 payloads (task bits, assignment codes, fingerprints) are written
/// and scanned as exact decimal text — never through a double, which loses
/// precision past 2^53.  Metrics and probabilities are doubles formatted
/// shortest-round-trip; the infinities a fully-pruned subtree reports are
/// the literal `inf` (quoted in JSON).  Grants name no unit kind; a grant
/// from an older coordinator whose `kind` is not `bnb` (an annealing
/// restart) does not decode.

#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dist/options.hpp"

namespace dominosyn::dist {

struct WorkUnit {
  std::uint64_t job_id = 0;   ///< coordinator-assigned
  std::uint64_t unit_id = 0;  ///< index within the job (merge order)
  /// The optimization metric (power vs area).
  bool by_power = true;
  /// Owned prefix bits and their depth (run_bnb_subtree semantics).
  std::uint64_t task = 0;
  std::uint32_t frontier_depth = 0;
  /// Initial incumbent (the seed metric — identical for every unit of a
  /// job, which is what makes unit results worker-independent).
  double bound_snapshot = std::numeric_limits<double>::infinity();
  /// Per-unit node budget (the job's global budget; the driver enforces the
  /// global sum at merge time).  0 = unlimited.
  std::uint64_t node_budget = 0;
  /// Attach a live incumbent channel while running (counters become
  /// timing-dependent; the result does not).
  bool shared_bounds = false;
  /// Originating request's trace id (docs/observability.md); 0 = untraced.
  /// Rides the grant as the optional "trace" key so a remote worker's unit
  /// spans land on the same cross-process timeline.  Pure observation: never
  /// part of the unit's result function.
  std::uint64_t trace_id = 0;
  CircuitKey circuit;
};

struct UnitResult {
  std::uint64_t job_id = 0;
  std::uint64_t unit_id = 0;
  bool ok = true;
  std::string error;  ///< set when !ok (fingerprint mismatch, engine throw)
  /// Best complete assignment found, as (metric, code) — +inf / ~0 when
  /// the whole subtree pruned.
  double metric = std::numeric_limits<double>::infinity();
  std::uint64_t code = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t leaves = 0;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t subtrees_pruned = 0;
  bool budget_tripped = false;
  /// Trace spans the unit produced on the worker, in obs::spans_to_wire
  /// encoding (optional `spans=` key on complete_work); the coordinator
  /// ingests them with obs::record_remote.  Empty when tracing is off.
  std::string spans_wire;
};

// -- worker -> coordinator command lines --------------------------------------

[[nodiscard]] std::string format_lease_command(const std::string& worker);
[[nodiscard]] std::string format_steal_command(const std::string& worker);
[[nodiscard]] std::string format_complete_command(const std::string& worker,
                                                  const UnitResult& result);
[[nodiscard]] std::string format_push_command(const std::string& worker,
                                              std::uint64_t job_id,
                                              double metric);
/// `fetch_circuit worker=W job=J`: the job's circuit, for a worker that does
/// not hold the circuit its grant names.
[[nodiscard]] std::string format_fetch_command(const std::string& worker,
                                               std::uint64_t job_id);

/// Parses the `key=value` tail of a complete_work command (tokens[0] is the
/// verb, as codec::split_tokens returns it).  Throws codec::Error on
/// malformed/missing fields and on unknown keys, such as the `evals=` (and
/// for annealing results `assignment=`) that older workers write.
[[nodiscard]] UnitResult parse_complete_tokens(
    const std::vector<std::string_view>& tokens);

// -- coordinator -> worker response lines -------------------------------------

/// `{"ok":true,"work":true,...unit fields...,"incumbent":M}`.
[[nodiscard]] std::string format_work_grant(const WorkUnit& unit,
                                            double incumbent);
/// `{"ok":true,"work":false}` — nothing leasable right now.
[[nodiscard]] std::string format_no_work();
/// complete_work acknowledgement (accepted = the result was kept, i.e. this
/// worker finished the unit first).
[[nodiscard]] std::string format_complete_ack(bool accepted, double incumbent);
/// push_incumbent acknowledgement / incumbent refresh.
[[nodiscard]] std::string format_incumbent_ack(double incumbent);

/// Parses a lease/steal response; nullopt when `"work":false`.  The second
/// member is the job incumbent at grant time.  Throws codec::Error on
/// malformed grants and on a `kind` other than `bnb`.
struct ParsedGrant {
  WorkUnit unit;
  double incumbent = std::numeric_limits<double>::infinity();
};
[[nodiscard]] std::optional<ParsedGrant> parse_work_grant(
    const std::string& json);

/// Extracts `"incumbent"` from an acknowledgement (+inf when absent/"inf").
[[nodiscard]] double parse_incumbent(const std::string& json);

/// A job's circuit as `fetch_circuit` serves it: exactly the inputs of the
/// coordinator's evaluator — its key, fingerprint included, the synthesized
/// network it holds (AssignmentEvaluator::network(), as blif::write_string
/// writes it) and its per-node signal probabilities
/// (AssignmentEvaluator::probs()).
struct CircuitPayload {
  CircuitKey key;
  std::string blif;
  std::vector<double> probs;
};

/// `{"ok":true,...key fields...,"blif":"...","probs":"p0,p1,..."}`, the
/// probabilities shortest-round-trip so they decode bit-exact.
/// dist/search.cpp formats it once per job; the coordinator serves the
/// bytes as they are.
[[nodiscard]] std::string format_circuit_payload(
    const CircuitKey& key, std::string_view blif,
    const std::vector<double>& probs);
/// `{"ok":false,"error":...}` naming a job that is unknown or finished.
[[nodiscard]] std::string format_no_circuit(std::uint64_t job_id);
/// Parses a fetch_circuit reply.  Throws codec::Error on a refusal (with
/// the coordinator's answer) or a malformed payload, and names a missing
/// `blif` or `probs`.  Only decodes: the worker checks the network and the
/// probabilities against the unit's key.
[[nodiscard]] CircuitPayload parse_circuit_payload(const std::string& json);

}  // namespace dominosyn::dist
