/// \file client.cpp

#include "server/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "server/protocol.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace dominosyn {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void apply_io_timeouts(int fd, const ClientTimeouts& timeouts) {
  if (timeouts.io_ms == 0) return;
  timeval tv{};
  tv.tv_sec = timeouts.io_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(timeouts.io_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// connect() with a poll-based deadline: non-blocking connect, wait for
/// writability, surface the pending SO_ERROR.  Restores blocking mode.
void connect_with_deadline(int fd, const sockaddr* addr, socklen_t len,
                           std::uint32_t connect_ms, const std::string& what) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, addr, len) < 0) {
    if (errno != EINPROGRESS) throw_errno("connect(" + what + ")");
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int ready = ::poll(&pfd, 1, static_cast<int>(connect_ms));
    if (ready == 0)
      throw ClientTimeoutError("connect(" + what + ") timed out after " +
                               std::to_string(connect_ms) + "ms");
    if (ready < 0) throw_errno("poll(connect " + what + ")");
    int soerr = 0;
    socklen_t soerr_len = sizeof(soerr);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &soerr_len);
    if (soerr != 0) {
      errno = soerr;
      throw_errno("connect(" + what + ")");
    }
  }
  ::fcntl(fd, F_SETFL, flags);
}

/// 64-bit FNV-1a over the request bytes: the idempotency fingerprint every
/// retry of one logical submit shares (`rid=` on the wire).
std::uint64_t request_fingerprint(const std::string& command,
                                  const std::string& body) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const std::string& text) {
    for (const char c : text) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  };
  mix(command);
  mix(body);
  return h;
}

std::string hex64(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// A response line that cannot be a complete flat-JSON protocol response —
/// torn mid-line or missing its "ok" field — is a transport-level failure
/// worth retrying, not an answer.
bool response_torn(const std::string& raw) {
  return raw.empty() || raw.back() != '}' ||
         !protocol::find_bool(raw, "ok").has_value();
}

}  // namespace

int Client::open_socket(const Endpoint& endpoint,
                        const ClientTimeouts& timeouts) {
  if (endpoint.is_unix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (endpoint.unix_path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("unix socket path too long: " +
                               endpoint.unix_path);
    std::strncpy(addr.sun_path, endpoint.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket(AF_UNIX)");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd);
      throw_errno("connect(" + endpoint.unix_path + ")");
    }
    apply_io_timeouts(fd, timeouts);
    return fd;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("bad address: " + endpoint.host);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  const std::string what = endpoint.host + ":" + std::to_string(endpoint.port);
  try {
    if (timeouts.connect_ms > 0) {
      connect_with_deadline(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr), timeouts.connect_ms, what);
    } else if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) < 0) {
      throw_errno("connect(" + what + ")");
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  apply_io_timeouts(fd, timeouts);
  return fd;
}

Client Client::connect_unix(const std::string& path, ClientTimeouts timeouts) {
  Endpoint endpoint;
  endpoint.is_unix = true;
  endpoint.unix_path = path;
  const int fd = open_socket(endpoint, timeouts);
  return Client(fd, std::move(endpoint), timeouts);
}

Client Client::connect_tcp(const std::string& host, std::uint16_t port,
                           ClientTimeouts timeouts) {
  Endpoint endpoint;
  endpoint.host = host;
  endpoint.port = port;
  const int fd = open_socket(endpoint, timeouts);
  return Client(fd, std::move(endpoint), timeouts);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      endpoint_(std::move(other.endpoint_)),
      timeouts_(other.timeouts_),
      retry_(other.retry_),
      telemetry_(other.telemetry_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    endpoint_ = std::move(other.endpoint_);
    timeouts_ = other.timeouts_;
    retry_ = other.retry_;
    telemetry_ = other.telemetry_;
  }
  return *this;
}

void Client::drop_connection() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

void Client::reconnect() {
  drop_connection();
  fd_ = open_socket(endpoint_, timeouts_);
  ++telemetry_.reconnects;
}

std::optional<std::string> Client::read_line() {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    // Same per-line bound the server enforces: a peer that streams a
    // newline-less response is broken, not a reason to grow without limit.
    if (buffer_.size() > codec::kMaxLineLength)
      throw std::runtime_error("response line exceeds protocol maximum");
    char chunk[4096];
    const std::size_t want =
        fault::point("client.recv.short_read") ? 1 : sizeof(chunk);
    const ssize_t got =
        fault::point("client.recv.fail") ? 0 : ::recv(fd_, chunk, want, 0);
    if (got > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ++telemetry_.timeouts;
        throw ClientTimeoutError("receive timed out after " +
                                 std::to_string(timeouts_.io_ms) + "ms");
      }
    }
    return std::nullopt;
  }
}

void Client::send_payload(const std::string& payload) {
  if (fault::point("client.send.fail"))
    throw std::runtime_error("send: injected fault (client.send.fail)");
  std::string_view remaining = payload;
  while (!remaining.empty()) {
    // client.send.short_write trickles one byte per send() — the server's
    // reader must reassemble commands from maximally split deliveries.
    const std::size_t want =
        fault::point("client.send.short_write") ? 1 : remaining.size();
    const ssize_t sent = ::send(fd_, remaining.data(), want, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ++telemetry_.timeouts;
        throw ClientTimeoutError("send timed out after " +
                                 std::to_string(timeouts_.io_ms) + "ms");
      }
      throw_errno("send");
    }
    remaining.remove_prefix(static_cast<std::size_t>(sent));
  }
}

std::string Client::request(const std::string& command,
                            const std::string& body) {
  std::string payload = command;
  payload += '\n';
  if (!body.empty()) {
    payload += body;
    if (payload.back() != '\n') payload += '\n';
  }
  send_payload(payload);
  auto line = read_line();
  if (!line) throw std::runtime_error("connection closed before response");
  return *std::move(line);
}

std::string Client::request_multiline(const std::string& command,
                                      const std::string& terminator) {
  send_payload(command + "\n");
  std::string out;
  for (;;) {
    auto line = read_line();
    if (!line)
      throw std::runtime_error("connection closed before '" + terminator +
                               "' terminator");
    if (*line == terminator) return out;
    out += *line;
    out += '\n';
  }
}

Client::SubmitSummary Client::summarize(std::string raw) {
  SubmitSummary summary;
  summary.raw = std::move(raw);
  const std::string& json = summary.raw;
  summary.ok = protocol::find_bool(json, "ok").value_or(false);
  summary.status = protocol::find_string(json, "status").value_or("");
  summary.error = protocol::find_string(json, "error").value_or("");
  summary.circuit = protocol::find_string(json, "circuit").value_or("");
  summary.mode = protocol::find_string(json, "mode").value_or("");
  summary.cells =
      static_cast<std::size_t>(protocol::find_number(json, "cells").value_or(0));
  summary.sim_power = protocol::find_number(json, "sim_power").value_or(0.0);
  summary.est_power = protocol::find_number(json, "est_power").value_or(0.0);
  summary.cache_hit = protocol::find_bool(json, "cache_hit").value_or(false);
  summary.queue_seconds =
      protocol::find_number(json, "queue_seconds").value_or(0.0);
  summary.service_seconds =
      protocol::find_number(json, "service_seconds").value_or(0.0);
  summary.degraded = protocol::find_bool(json, "degraded").value_or(false);
  return summary;
}

Client::SubmitSummary Client::submit_once(const std::string& command,
                                          const std::string& body) {
  return summarize(request(command, body));
}

Client::JobStatus Client::job_status(const std::string& rid) {
  if (fd_ < 0) reconnect();
  JobStatus status;
  std::string raw = request("job_status rid=" + rid);
  status.state = protocol::find_string(raw, "state").value_or("");
  if (status.state == "done") {
    status.summary = summarize(std::move(raw));
    status.summary.rid = rid;
  }
  return status;
}

Client::SubmitSummary Client::submit(const std::string& command,
                                     const std::string& body) {
  // Decorate every attempt with the same idempotency fingerprint; serving is
  // deterministic, so a replay returns the same bytes the lost answer held.
  const std::uint64_t fingerprint = request_fingerprint(command, body);
  const std::string decorated = command + " rid=" + hex64(fingerprint);
  const unsigned attempts = std::max(1u, retry_.max_attempts);
  Rng rng(retry_.seed != 0 ? retry_.seed : fingerprint);
  double sleep_ms = retry_.base_ms;

  for (unsigned attempt = 0;; ++attempt) {
    try {
      if (fd_ < 0) reconnect();
      std::string wire = decorated;
      if (attempt > 0) wire += " retry=" + std::to_string(attempt);
      SubmitSummary summary = submit_once(wire, body);
      summary.rid = hex64(fingerprint);
      const bool retryable = response_torn(summary.raw) ||
                             summary.status == "rejected_queue_full";
      if (!retryable || attempt + 1 >= attempts) return summary;
    } catch (const std::exception&) {
      if (attempt + 1 >= attempts) throw;
    }
    // Retry on a fresh connection: a torn response or timeout leaves the old
    // stream in an unknowable state.
    drop_connection();
    ++telemetry_.retries;
    // Decorrelated jitter: sleep uniform in [base, min(cap, 3 * previous)].
    const double hi =
        std::min<double>(retry_.cap_ms, std::max(sleep_ms * 3.0,
                                                 double(retry_.base_ms)));
    sleep_ms = retry_.base_ms + rng.uniform() * (hi - retry_.base_ms);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms));
  }
}

bool Client::ping() {
  try {
    const std::string response = request("ping");
    return protocol::find_bool(response, "ok").value_or(false);
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace dominosyn
