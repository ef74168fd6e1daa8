/// \file client.hpp
/// Small blocking client for the dominod wire protocol — the library behind
/// the `domino_cli` tool, the distributed workers, and the socket round-trip
/// tests.
///
/// A `Client` owns one connection (UNIX-domain or TCP) and exchanges
/// protocol lines synchronously: send one command (plus optional BLIF body),
/// read one JSON response line.  Responses come back raw; the
/// protocol::find_* scanners extract individual fields, and `SubmitSummary`
/// pre-extracts the ones the CLI prints.
///
/// Robustness (docs/robustness.md):
///   * `ClientTimeouts` puts deadlines on connect and send/recv so a hung
///     daemon can never block a caller forever — expiry surfaces as
///     `ClientTimeoutError`;
///   * `RetryPolicy` makes submit() re-try transport failures, timeouts,
///     torn responses, and queue-full rejections on a fresh connection with
///     exponential backoff + decorrelated jitter.  Serving is deterministic,
///     so a re-submitted request is idempotent: every attempt carries the
///     same `rid=` fingerprint and a `retry=` attempt number the server
///     counts (`retried_submits`).

#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace dominosyn {

/// A client-side deadline expired (connect, send, or receive).
class ClientTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Deadlines applied to the connection; 0 = block indefinitely (the
/// pre-deadline behavior).
struct ClientTimeouts {
  std::uint32_t connect_ms = 0;  ///< TCP connect deadline
  std::uint32_t io_ms = 0;       ///< per-send/recv deadline (SO_SNDTIMEO/RCVTIMEO)
};

/// How submit() retries.  max_attempts counts the first try: 1 disables
/// retries entirely.  Sleeps follow decorrelated jitter — uniform in
/// [base_ms, min(cap_ms, 3 * previous)] — from a deterministic stream seeded
/// by `seed` (0 = the request fingerprint, so runs are reproducible without
/// two clients sleeping in lockstep).
struct RetryPolicy {
  unsigned max_attempts = 1;
  std::uint32_t base_ms = 50;
  std::uint32_t cap_ms = 2'000;
  std::uint64_t seed = 0;
};

class Client {
 public:
  /// Connects to a UNIX-domain socket path.  Throws std::runtime_error.
  static Client connect_unix(const std::string& path,
                             ClientTimeouts timeouts = {});
  /// Connects to a TCP endpoint (numeric address).  Throws
  /// std::runtime_error; ClientTimeoutError when connect_ms expires.
  static Client connect_tcp(const std::string& host, std::uint16_t port,
                            ClientTimeouts timeouts = {});

  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one command line (and, for `submit blif=inline`, the BLIF body —
  /// pass it via `body`, `.end`-terminated) and returns the JSON response
  /// line.  Throws std::runtime_error when the connection drops first,
  /// ClientTimeoutError when an io deadline expires.  Never retries — retry
  /// semantics live in submit(), whose requests are known idempotent.
  [[nodiscard]] std::string request(const std::string& command,
                                    const std::string& body = "");

  /// Sends one command line and reads response lines up to and including a
  /// line equal to `terminator` (the terminator itself is not returned).
  /// For multi-line responses like the `metrics` verb's Prometheus text,
  /// whose terminator is `# EOF`.  Throws std::runtime_error when the
  /// connection drops before the terminator.
  [[nodiscard]] std::string request_multiline(const std::string& command,
                                              const std::string& terminator);

  /// Parsed essentials of a submit response.
  struct SubmitSummary {
    bool ok = false;
    std::string status;
    std::string error;
    std::string circuit;
    std::string mode;
    std::size_t cells = 0;
    double sim_power = 0.0;
    double est_power = 0.0;
    bool cache_hit = false;
    double queue_seconds = 0.0;
    double service_seconds = 0.0;
    /// Served under overload brownout (auto-exhaustive disabled).
    bool degraded = false;
    /// The idempotency fingerprint this submit carried on the wire — the
    /// handle for `job_status` / `domino_cli --attach` after a disconnect.
    std::string rid;
    std::string raw;  ///< the full response line; scan it for other fields
  };

  /// request() + field extraction for submit commands, with retries per
  /// set_retry_policy().  Retryable outcomes — transport errors, timeouts,
  /// torn/corrupt response lines, rejected_queue_full — re-send the same
  /// request (same `rid=`, incremented `retry=`) on a fresh connection after
  /// a jittered backoff.  Definite answers (ok, bad_request, deadline,
  /// shutdown, flow errors) return immediately.  The last attempt's failure
  /// is returned/rethrown as-is.
  [[nodiscard]] SubmitSummary submit(const std::string& command,
                                     const std::string& body = "");

  /// A `job_status rid=` answer (docs/robustness.md): the daemon's standing
  /// for that request fingerprint.  `summary` is populated (from the full
  /// embedded submit response) only when state == "done".
  struct JobStatus {
    std::string state;  ///< "unknown" | "running" | "recovered" | "done"
    SubmitSummary summary;
  };

  /// Polls the daemon for a rid's standing.  Throws like request().
  [[nodiscard]] JobStatus job_status(const std::string& rid);

  /// `ping` round trip; false on a dead / non-protocol peer.
  [[nodiscard]] bool ping();

  void set_retry_policy(RetryPolicy policy) noexcept { retry_ = policy; }
  [[nodiscard]] const RetryPolicy& retry_policy() const noexcept {
    return retry_;
  }

  /// Client-side robustness tallies for this connection object.
  struct Telemetry {
    std::uint64_t retries = 0;     ///< submit attempts after the first
    std::uint64_t reconnects = 0;  ///< fresh sockets opened after a failure
    std::uint64_t timeouts = 0;    ///< io deadlines that expired
  };
  [[nodiscard]] const Telemetry& telemetry() const noexcept {
    return telemetry_;
  }

 private:
  /// Where this client connects — kept so submit() retries can reopen the
  /// socket after a transport failure.
  struct Endpoint {
    bool is_unix = false;
    std::string unix_path;
    std::string host;
    std::uint16_t port = 0;
  };

  Client(int fd, Endpoint endpoint, ClientTimeouts timeouts)
      : fd_(fd), endpoint_(std::move(endpoint)), timeouts_(timeouts) {}

  [[nodiscard]] static int open_socket(const Endpoint& endpoint,
                                       const ClientTimeouts& timeouts);
  void drop_connection() noexcept;
  void reconnect();
  [[nodiscard]] std::optional<std::string> read_line();
  void send_payload(const std::string& payload);
  /// Field extraction shared by submit responses and "done" job_status
  /// answers (which embed a full submit response).
  [[nodiscard]] static SubmitSummary summarize(std::string raw);
  [[nodiscard]] SubmitSummary submit_once(const std::string& command,
                                          const std::string& body);

  int fd_ = -1;
  std::string buffer_;
  Endpoint endpoint_;
  ClientTimeouts timeouts_;
  RetryPolicy retry_;
  Telemetry telemetry_;
};

}  // namespace dominosyn
