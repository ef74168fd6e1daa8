/// \file protocol.hpp
/// The dominod wire protocol: line-delimited text requests, one-line JSON
/// responses.  Transport-independent — the same parser/formatter serves the
/// POSIX socket transport (server/transport.hpp), the blocking client
/// (server/client.hpp), and in-process tests.  docs/protocol.md specifies
/// the format with examples.
///
/// Requests (one command per line, `key=value` tokens):
///
///   submit corpus=<name> [circuit=<key>] [mode=...] [options...]
///   submit blif=inline [circuit=<key>] [...]      # BLIF body follows, up
///                                                 # to and including `.end`
///   job_status rid=<fingerprint>                  # poll a rid's standing
///   stats
///   metrics
///   trace
///   ping
///   quit
///
/// Submit options: mode=allpos|ma|mp|exhaustive, threads=N, pi_prob=F,
/// sim_steps=N, sim_warmup=N, sim_seed=N, clock=F, exh_limit=N,
/// load_aware=0|1, deadline_ms=N, dist=0|1, dist_frontier=N, dist_shared=0|1,
/// dist_participate=0|1, rid=<fingerprint> (client idempotency id),
/// retry=N (which re-submission this is; docs/robustness.md).
///
/// Distributed-fabric verbs (worker -> coordinator, docs/distributed.md):
///
///   lease_work worker=<id>
///   steal worker=<id>
///   fetch_circuit worker=<id> job=<n>
///   complete_work worker=<id> job=<n> unit=<n> ok=0|1 metric=<m> ...
///   push_incumbent worker=<id> job=<n> metric=<m>
///
/// The transport answers them from ServerCore::coordinator() with the
/// one-line JSON grants, circuit payloads and acks of dist/workunit.hpp.
///
/// Every response is a single JSON line with an "ok" field; submit responses
/// carry the full FlowReport plus serving telemetry (cache hit, stage
/// rebuilds, queue/service seconds).  util/codec.hpp writes and reads every
/// token and field (docs/protocol.md, "Encodings"); doubles are
/// shortest-round-trip, so a client parsing them back gets bit-identical
/// values.
///
/// Two exceptions to the one-JSON-line rule (docs/observability.md):
///   * `metrics` answers with Prometheus text exposition — multiple lines,
///     terminated by a line that is exactly `# EOF`;
///   * `trace` answers with one JSON line `{"ok":true,"traceEvents":[...]}`
///     holding the ring-buffered span collector as Chrome trace_event
///     objects, size-capped to stay under kMaxLineLength.

#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "dist/workunit.hpp"
#include "server/core.hpp"
#include "util/codec.hpp"

namespace dominosyn::protocol {

/// Malformed request text (unknown command, bad key/value, truncated BLIF):
/// the codec's one error type, so a decoder's throw is a protocol error.
using ProtocolError = codec::Error;

/// Hard ceiling on one protocol line (1 MiB) — far above any legitimate
/// command or BLIF line, and a bound on per-connection buffering so a peer
/// streaming garbage without newlines cannot grow server memory unboundedly.
inline constexpr std::size_t kMaxLineLength = std::size_t{1} << 20;

/// A line exceeded kMaxLineLength.  Typed (vs a generic ProtocolError) so
/// transports can discard input up to the next newline and keep the
/// connection alive in a recoverable state.
class LineTooLongError : public ProtocolError {
 public:
  LineTooLongError()
      : ProtocolError("line exceeds the protocol maximum of " +
                      std::to_string(kMaxLineLength) + " bytes") {}
};

/// Pulls the next input line (without terminator); std::nullopt = end of
/// input.  Lets the parser read multi-line bodies (inline BLIF) from any
/// transport.
using LineSource = std::function<std::optional<std::string>()>;

enum class CommandKind : std::uint8_t {
  kSubmit,
  kStats,
  kMetrics,  ///< Prometheus text exposition, multi-line, `# EOF` terminated
  kTrace,    ///< Chrome trace_event JSON dump of the span collector
  kPing,
  kQuit,
  kLeaseWork,      ///< worker requests a unit
  kStealWork,      ///< idle worker requests a speculative duplicate lease
  kFetchCircuit,   ///< worker requests a job's circuit payload
  kCompleteWork,   ///< worker reports a finished unit
  kPushIncumbent,  ///< worker broadcasts an incumbent improvement
  kJobStatus,      ///< client polls a rid's standing (docs/robustness.md)
};

struct Command {
  CommandKind kind = CommandKind::kPing;
  /// Populated for kSubmit: the parsed network (owned), key, options and
  /// deadline, ready for ServerCore::submit.
  ServerRequest request;
  /// Populated for the distributed-fabric verbs.
  std::string worker;            ///< worker id (every dist verb)
  dist::UnitResult unit_result;  ///< kCompleteWork
  std::uint64_t job_id = 0;      ///< kPushIncumbent, kFetchCircuit
  double metric = 0.0;           ///< kPushIncumbent
  std::string rid;               ///< kJobStatus: request fingerprint to poll
};

/// Reads one command (skipping blank lines); std::nullopt at end of input.
/// Throws ProtocolError on malformed input — the connection loop reports it
/// with format_error and keeps the connection alive.
[[nodiscard]] std::optional<Command> read_command(const LineSource& next_line);
/// Stream adapter for the above (tests, stdin-driven runs).
[[nodiscard]] std::optional<Command> read_command(std::istream& in);

// -- responses (single JSON line, no trailing newline) ------------------------

[[nodiscard]] std::string format_response(const ServerResponse& response);
[[nodiscard]] std::string format_stats(const ServerCore::Stats& stats,
                                       const SessionCache& cache);
[[nodiscard]] std::string format_pong();
/// `job_status` response: `{"ok":true,"state":"unknown|running|recovered"}`,
/// or for a finished job the full submit response with `"state":"done"`
/// spliced in — a client that can parse submit answers can parse this one.
[[nodiscard]] std::string format_job_status(
    const ServerCore::JobStatusResult& status);
[[nodiscard]] std::string format_error(std::string_view message);
/// `{"ok":true,"traceEvents":[...]}` from the span collector (the `trace`
/// verb's response).  Already size-capped by obs::chrome_trace_json.
[[nodiscard]] std::string format_trace();

/// Fault-injection shim for outbound response lines (transport send_line
/// routes every response through it): `protocol.response.truncate` halves
/// the line, `protocol.response.corrupt` flips a byte mid-line.  Identity
/// unless those sites are armed; compiled to a pass-through under
/// DOMINOSYN_NO_FAULTS.
[[nodiscard]] std::string fault_mangle_line(std::string line);

// The JSON string writer and response scanners, under their protocol names.
using codec::append_json_string;
using codec::find_bool;
using codec::find_number;
using codec::find_string;

}  // namespace dominosyn::protocol
