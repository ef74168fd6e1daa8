/// \file dominod.cpp
/// The phase-assignment serving daemon: a SocketServer (UNIX or TCP) over
/// one ServerCore with its hot SessionCache — and, with --worker, the worker
/// side of the distributed search fabric instead.
///
/// Usage:
///   dominod --unix /tmp/dominod.sock [--workers N] [--queue N] [--cache N]
///   dominod --port 7117 [--host 127.0.0.1] [...]
///   dominod --worker --port 7117 [--host A] [--threads N] [--name ID]
///
/// Daemon knobs: --workers (0 = one per hardware thread) sizes the flow
/// worker pool, --queue bounds admitted-but-not-started requests
/// (over-capacity submits are rejected, not queued), --cache bounds the
/// hot-session LRU.  Worker mode connects to a coordinator daemon, leases
/// search work units on --threads connections and runs them locally
/// (docs/distributed.md).  SIGINT/SIGTERM stop accepting, drain in-flight
/// work, and exit.

#include <csignal>
#include <iostream>

#include "dist/worker.hpp"
#include "server/core.hpp"
#include "server/transport.hpp"
#include "util/cli.hpp"
#include "util/fault.hpp"

namespace {

void usage(const char* program) {
  std::cerr
      << "usage: " << program << " (--unix PATH | --port N [--host A])\n"
      << "               [--workers N] [--queue N] [--cache N]\n"
      << "       " << program << " --worker (--unix PATH | --port N [--host A])\n"
      << "               [--threads N] [--name ID]\n"
      << "  --unix PATH   listen on (or connect to) a UNIX-domain socket\n"
      << "  --port N      TCP port (daemon: 0 = ephemeral, printed on start)\n"
      << "  --host A      TCP address (default 127.0.0.1)\n"
      << "  --workers N   flow workers; 0 = one per hardware thread (default 0)\n"
      << "  --queue N     admission queue capacity (default 64)\n"
      << "  --cache N     hot-session LRU capacity (default 8)\n"
      << "  --slow-ms N   log requests slower than N ms to stderr (0 = off,\n"
      << "                default 0)\n"
      << "  --brownout N  degrade auto-exhaustive submits to the heuristic\n"
      << "                when N+ requests are queued (0 = off, default 0)\n"
      << "  --journal-dir D  durable job state: write-ahead journal +\n"
      << "                snapshots in D; a restart replays the journal and\n"
      << "                re-attached submits adopt the completed units\n"
      << "                (docs/robustness.md)\n"
      << "  --fault-spec S  arm deterministic fault injection (both modes;\n"
      << "                docs/robustness.md), e.g.\n"
      << "                'transport.send.short_write=every:3'\n"
      << "  --list-fault-sites  print the fault-site catalogue and exit\n"
      << "  --worker      run as a distributed-search worker instead\n"
      << "  --threads N   worker: concurrent work units; 0 = one per hardware\n"
      << "                thread (default 0)\n"
      << "  --name ID     worker: wire identity prefix (default 'worker')\n";
}

int run_worker(const dominosyn::cli::FlagSet& flags, const char* program) {
  using namespace dominosyn;

  dist::WorkerConfig config;
  config.unix_path = flags.get("unix");
  config.host = flags.get("host", "127.0.0.1");
  const auto port = flags.get_long("port", 0, 0, 65535);
  const auto threads = flags.get_long("threads", 0, 0, 1024);
  if (!port || !threads) {
    usage(program);
    return 2;
  }
  if (config.unix_path.empty() && !flags.has("port")) {
    std::cerr << program << ": worker needs --unix PATH or --port N\n";
    usage(program);
    return 2;
  }
  config.port = static_cast<std::uint16_t>(*port);
  config.num_threads = static_cast<unsigned>(*threads);
  config.name = flags.get("name", "worker");

  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  try {
    dist::DistWorker worker(config);
    worker.start();
    if (!config.unix_path.empty())
      std::cout << "dominod: worker '" << config.name << "' serving "
                << config.unix_path;
    else
      std::cout << "dominod: worker '" << config.name << "' serving "
                << config.host << ":" << config.port;
    std::cout << std::endl;

    int signal = 0;
    sigwait(&signals, &signal);
    std::cout << "dominod: signal " << signal << ", finishing leased units"
              << std::endl;
    worker.stop();
    const dist::DistWorker::Telemetry telemetry = worker.telemetry();
    std::cout << "dominod: worker ran " << telemetry.units_completed
              << " units (" << telemetry.units_failed << " failed, "
              << telemetry.reconnects << " reconnects)" << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "dominod: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

/// Applies --fault-spec (overriding DOMINOSYN_FAULT_SPEC, which the fault
/// registry already read at static-init).  Returns false on a bad spec.
bool apply_fault_spec(const dominosyn::cli::FlagSet& flags,
                      const char* program) {
  if (!flags.has("fault-spec")) {
    if (dominosyn::fault::active())
      std::cout << program << ": fault injection armed from environment: "
                << dominosyn::fault::spec() << std::endl;
    return true;
  }
  if (dominosyn::fault::kFaultsCompiledOut) {
    std::cerr << program
              << ": --fault-spec ignored (built with DOMINOSYN_NO_FAULTS)\n";
    return true;
  }
  try {
    dominosyn::fault::configure(flags.get("fault-spec"));
  } catch (const std::exception& e) {
    std::cerr << program << ": bad --fault-spec: " << e.what() << "\n";
    return false;
  }
  std::cout << program
            << ": fault injection armed: " << dominosyn::fault::spec()
            << std::endl;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dominosyn;

  const auto flags = cli::FlagSet::parse(argc, argv);
  if (!flags ||
      !flags->only({"unix", "port", "host", "workers", "queue", "cache",
                    "slow-ms", "brownout", "journal-dir", "fault-spec",
                    "list-fault-sites", "worker", "threads", "name", "help"})) {
    usage(argv[0]);
    return 2;
  }
  if (flags->has("help")) {
    usage(argv[0]);
    return 0;
  }
  if (flags->has("list-fault-sites")) {
    for (const std::string& site : fault::sites()) std::cout << site << "\n";
    return 0;
  }
  if (!apply_fault_spec(*flags, argv[0])) return 2;
  if (flags->has("worker")) return run_worker(*flags, argv[0]);

  TransportConfig transport;
  transport.unix_path = flags->get("unix");
  transport.host = flags->get("host", "127.0.0.1");
  const auto port = flags->get_long("port", 0, 0, 65535);
  const auto workers = flags->get_long("workers", 0, 0, 1024);
  const auto queue = flags->get_long("queue", 64, 1, 1 << 20);
  const auto cache = flags->get_long("cache", 8, 1, 1 << 20);
  const auto slow_ms = flags->get_long("slow-ms", 0, 0, 86'400'000);
  const auto brownout = flags->get_long("brownout", 0, 0, 1 << 20);
  if (!port || !workers || !queue || !cache || !slow_ms || !brownout) {
    usage(argv[0]);
    return 2;
  }
  if (transport.unix_path.empty() && !flags->has("port")) {
    std::cerr << argv[0] << ": need --unix PATH or --port N\n";
    usage(argv[0]);
    return 2;
  }
  transport.port = static_cast<std::uint16_t>(*port);

  ServerConfig config;
  config.num_workers = static_cast<unsigned>(*workers);
  config.queue_capacity = static_cast<std::size_t>(*queue);
  config.cache_capacity = static_cast<std::size_t>(*cache);
  config.slow_request_seconds = static_cast<double>(*slow_ms) / 1e3;
  config.brownout_high_water = static_cast<std::size_t>(*brownout);
  config.journal_dir = flags->get("journal-dir");

  // Block the shutdown signals before any thread exists, so every thread
  // inherits the mask and sigwait below is the one consumer.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  try {
    ServerCore core(config);
    SocketServer server(core, transport);
    if (!transport.unix_path.empty())
      std::cout << "dominod: listening on " << transport.unix_path;
    else
      std::cout << "dominod: listening on " << transport.host << ":"
                << server.port();
    std::cout << " (workers=" << core.num_workers()
              << " queue=" << config.queue_capacity
              << " cache=" << config.cache_capacity << ")" << std::endl;
    if (const auto* recovery = core.recovery()) {
      std::cout << "dominod: journal " << config.journal_dir << ": replayed "
                << recovery->records << " records, " << recovery->live_jobs
                << " live / " << recovery->jobs << " jobs, "
                << recovery->completed_units << "/" << recovery->units
                << " units durable";
      if (recovery->torn_tail)
        std::cout << " (torn tail: " << recovery->dropped_bytes
                  << " bytes dropped)";
      std::cout << std::endl;
    }

    int signal = 0;
    sigwait(&signals, &signal);
    std::cout << "dominod: signal " << signal
              << ", draining in-flight work" << std::endl;
    server.stop();
    core.shutdown(/*drain=*/true);
    const ServerCore::Stats stats = core.stats();
    std::cout << "dominod: served " << stats.completed << "/"
              << stats.submitted << " requests ("
              << stats.rejected_queue_full + stats.rejected_deadline +
                     stats.rejected_shutdown
              << " rejected, " << stats.errors << " errors)" << std::endl;
    if (stats.units_issued > 0)
      std::cout << "dominod: fabric issued " << stats.units_issued
                << " work units (" << stats.units_stolen << " stolen, "
                << stats.units_reissued << " re-issued, "
                << stats.incumbent_broadcasts << " incumbent broadcasts, "
                << stats.workers_quarantined << " quarantines)" << std::endl;
    if (stats.faults_injected > 0)
      std::cout << "dominod: injected " << stats.faults_injected
                << " faults (" << stats.retried_submits << " retried submits, "
                << stats.degraded_responses << " degraded responses)"
                << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "dominod: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
