/// \file transport.cpp

#include "server/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "server/protocol.hpp"
#include "util/fault.hpp"

namespace dominosyn {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Buffered line reader over a socket fd ('\n'-terminated, '\r' stripped).
/// Per-connection buffering is bounded by protocol::kMaxLineLength: an
/// over-long line throws LineTooLongError once, and the reader then discards
/// input until the next newline so the connection recovers at the following
/// command instead of feeding the tail of the junk to the parser.
class FdLineReader {
 public:
  explicit FdLineReader(int fd) : fd_(fd) {}

  std::optional<std::string> next_line() {
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        if (skipping_) {
          buffer_.erase(0, newline + 1);
          skipping_ = false;
          continue;
        }
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
      if (skipping_) {
        buffer_.clear();  // still mid-junk: nothing here is a line prefix
      } else if (buffer_.size() > protocol::kMaxLineLength) {
        buffer_.clear();
        skipping_ = true;
        throw protocol::LineTooLongError();
      }
      char chunk[4096];
      // transport.recv.short_read caps each recv at one byte (the chaos
      // suite proves parsing is chunking-independent); transport.recv.fail
      // simulates the peer dying mid-command.
      const std::size_t want =
          fault::point("transport.recv.short_read") ? 1 : sizeof(chunk);
      const ssize_t got = fault::point("transport.recv.fail")
                              ? 0
                              : ::recv(fd_, chunk, want, 0);
      if (got > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      // Peer closed (or connection shut down by stop()): flush a trailing
      // unterminated line, then signal end of input.
      if (buffer_.empty() || skipping_) return std::nullopt;
      std::string line = std::move(buffer_);
      buffer_.clear();
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
  }

 private:
  int fd_;
  std::string buffer_;
  bool skipping_ = false;
};

bool send_all(int fd, std::string_view text) {
  if (fault::point("transport.send.fail")) {
    errno = EIO;
    return false;
  }
  while (!text.empty()) {
    // transport.send.short_write trickles one byte per send(): the peer's
    // reader must reassemble lines from maximally split deliveries.
    const std::size_t want =
        fault::point("transport.send.short_write") ? 1 : text.size();
    const ssize_t sent = ::send(fd, text.data(), want, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    text.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

bool send_line(int fd, std::string line) {
  line = protocol::fault_mangle_line(std::move(line));
  line += '\n';
  return send_all(fd, line);
}

}  // namespace

SocketServer::SocketServer(ServerCore& core, TransportConfig config)
    : core_(core), config_(std::move(config)) {
  if (!config_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("unix socket path too long: " +
                               config_.unix_path);
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket(AF_UNIX)");
    ::unlink(config_.unix_path.c_str());  // stale socket from a crashed run
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(listen_fd_);
      throw_errno("bind(" + config_.unix_path + ")");
    }
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1)
      throw std::runtime_error("bad listen address: " + config_.host);
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket(AF_INET)");
    const int reuse = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(listen_fd_);
      throw_errno("bind(" + config_.host + ":" + std::to_string(config_.port) +
                  ")");
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0)
      port_ = ntohs(bound.sin_port);
  }

  if (::listen(listen_fd_, config_.backlog) < 0) {
    ::close(listen_fd_);
    throw_errno("listen");
  }
  // The accept loop gets its own copy of the fd: stop() mutates listen_fd_
  // from the owner thread, and shutdown() on the fd is what wakes accept().
  accept_thread_ =
      std::thread([this, fd = listen_fd_] { accept_loop(fd); });
}

SocketServer::~SocketServer() { stop(); }

void SocketServer::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop()
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    connection_fds_.push_back(fd);
    ++active_connections_;
    std::thread([this, fd] { serve_connection(fd); }).detach();
  }
}

void SocketServer::serve_connection(int fd) {
  FdLineReader reader(fd);
  const protocol::LineSource next_line = [&reader] { return reader.next_line(); };
  // The last worker id seen on this connection: when the connection dies its
  // outstanding leases are re-queued so the fabric survives worker loss.
  std::string worker_id;
  dist::DistCoordinator& coordinator = core_.coordinator();
  for (;;) {
    std::optional<protocol::Command> command;
    try {
      command = protocol::read_command(next_line);
    } catch (const protocol::ProtocolError& e) {
      if (!send_line(fd, protocol::format_error(e.what()))) break;
      continue;  // malformed request; connection stays usable
    }
    if (!command) break;  // EOF

    switch (command->kind) {
      case protocol::CommandKind::kQuit:
        send_line(fd, protocol::format_pong());
        goto done;
      case protocol::CommandKind::kPing:
        if (!send_line(fd, protocol::format_pong())) goto done;
        break;
      case protocol::CommandKind::kStats:
        if (!send_line(fd, protocol::format_stats(core_.stats(), core_.cache())))
          goto done;
        break;
      case protocol::CommandKind::kMetrics:
        // Prometheus text exposition is inherently multi-line; the client
        // reads until the `# EOF` terminator line (docs/observability.md).
        if (!send_all(fd, core_.prometheus_text()) ||
            !send_line(fd, "# EOF"))
          goto done;
        break;
      case protocol::CommandKind::kTrace:
        if (!send_line(fd, protocol::format_trace())) goto done;
        break;
      case protocol::CommandKind::kSubmit: {
        // Blocking per connection: admission and parallelism live in the
        // core, so a connection is a natural client-side FIFO.
        ServerResponse response =
            core_.submit(std::move(command->request)).get();
        if (!send_line(fd, protocol::format_response(response))) goto done;
        break;
      }
      case protocol::CommandKind::kLeaseWork:
      case protocol::CommandKind::kStealWork: {
        worker_id = command->worker;
        const auto grant =
            command->kind == protocol::CommandKind::kLeaseWork
                ? coordinator.lease(command->worker)
                : coordinator.steal(command->worker);
        const std::string reply =
            grant ? dist::format_work_grant(grant->unit, grant->incumbent)
                  : dist::format_no_work();
        if (!send_line(fd, reply)) goto done;
        break;
      }
      case protocol::CommandKind::kFetchCircuit: {
        worker_id = command->worker;
        const auto circuit = coordinator.fetch_circuit(command->job_id);
        if (!send_line(fd, circuit ? *circuit
                                   : dist::format_no_circuit(command->job_id)))
          goto done;
        break;
      }
      case protocol::CommandKind::kCompleteWork: {
        worker_id = command->worker;
        // coordinator.complete.drop loses the completion *and* tears the
        // connection down: worker_disconnected() at `done:` re-queues the
        // unit, and the worker's pending request() sees the close and
        // reconnects — the reissue path the chaos soak exercises.
        if (fault::point("coordinator.complete.drop")) goto done;
        const dist::DistCoordinator::CompleteAck ack =
            coordinator.complete(command->worker, command->unit_result);
        if (!send_line(fd,
                       dist::format_complete_ack(ack.accepted, ack.incumbent)))
          goto done;
        break;
      }
      case protocol::CommandKind::kPushIncumbent: {
        worker_id = command->worker;
        const double incumbent = coordinator.push_incumbent(
            command->worker, command->job_id, command->metric);
        if (!send_line(fd, dist::format_incumbent_ack(incumbent))) goto done;
        break;
      }
      case protocol::CommandKind::kJobStatus: {
        const ServerCore::JobStatusResult status =
            core_.job_status(command->rid);
        if (!send_line(fd, protocol::format_job_status(status))) goto done;
        break;
      }
    }
  }
done:
  if (!worker_id.empty()) coordinator.worker_disconnected(worker_id);
  {
    // Deregister before closing so stop() never pokes a recycled fd.
    const std::lock_guard<std::mutex> lock(mutex_);
    std::erase(connection_fds_, fd);
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  {
    // Last touch of *this: signal the drain in stop() and get out.
    const std::lock_guard<std::mutex> lock(mutex_);
    --active_connections_;
    connections_cv_.notify_all();
  }
}

void SocketServer::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && listen_fd_ < 0) return;
    stopping_ = true;
    // Wake connection threads blocked in recv(); they see EOF and exit.
    for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    connection_fds_.clear();
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept()
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    connections_cv_.wait(lock, [&] { return active_connections_ == 0; });
  }
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

}  // namespace dominosyn
