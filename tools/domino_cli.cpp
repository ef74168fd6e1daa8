/// \file domino_cli.cpp
/// Blocking command-line client for a running dominod daemon.
///
/// Usage:
///   domino_cli --unix /tmp/dominod.sock --corpus frg1 --mode mp
///   domino_cli --host 127.0.0.1 --port 7117 --blif circuit.blif --raw
///   domino_cli --unix /tmp/dominod.sock --stats
///   domino_cli --unix /tmp/dominod.sock --metrics
///   domino_cli --unix /tmp/dominod.sock --trace-dump trace.json
///
/// Submits one circuit (by corpus name or BLIF file), prints the report
/// summary with serving telemetry — or the raw JSON line with --raw.
/// --repeat N re-submits N times, showing the cold→hot cache transition.
/// --stats pretty-prints the full ServerCore::Stats JSON (including the
/// distributed-fabric counters) and summarizes the latency histograms as
/// one-line p50/p95/p99 digests; --metrics prints the daemon's Prometheus
/// text; --trace-dump writes the span collector as Chrome trace_event JSON
/// loadable in perfetto (docs/observability.md); --dist fans the request's
/// search out over the daemon's connected workers.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "server/client.hpp"
#include "util/cli.hpp"
#include "util/codec.hpp"

namespace {

void usage(const char* program) {
  std::cerr
      << "usage: " << program
      << " (--unix PATH | --host A --port N) <action> [options]\n"
      << "actions:\n"
      << "  --corpus NAME    submit a generated paper circuit (e.g. frg1)\n"
      << "  --blif FILE      submit a BLIF file inline\n"
      << "  --stats          print server + cache statistics (pretty JSON\n"
      << "                   plus one-line latency-histogram digests)\n"
      << "  --metrics        print the daemon's Prometheus metrics text\n"
      << "  --trace-dump F   write the daemon's trace buffer to F as Chrome\n"
      << "                   trace_event JSON (open in ui.perfetto.dev)\n"
      << "  --ping           protocol liveness check\n"
      << "  --attach RID     re-attach to a submitted request by its rid\n"
      << "                   (printed with every summary): polls job_status\n"
      << "                   until the job finishes, then prints its result\n"
      << "                   — the recovery path after a client disconnect\n"
      << "                   or daemon restart (docs/robustness.md)\n"
      << "options:\n"
      << "  --mode M         allpos|ma|mp|exhaustive (default mp)\n"
      << "  --circuit KEY    session-cache key override\n"
      << "  --threads N      per-request search threads (0 = hardware)\n"
      << "  --sim-steps N    simulation steps\n"
      << "  --sim-warmup N   simulation warmup steps\n"
      << "  --pi-prob F      uniform PI signal probability\n"
      << "  --clock F        resize-to-clock period\n"
      << "  --deadline-ms N  reject if not started within N ms\n"
      << "  --exh-limit N    exhaustive-search PO cap (exhaustive mode\n"
      << "                   default 24)\n"
      << "  --dist           distribute the exact power search (mp's exact\n"
      << "                   search, exhaustive) over connected workers;\n"
      << "                   min-area search always runs in the daemon\n"
      << "  --dist-frontier N  B&B split depth (2^N work units, default 6,\n"
      << "                   at most 16)\n"
      << "  --dist-shared    share incumbents live across workers (timing-\n"
      << "                   dependent counters; results stay deterministic)\n"
      << "  --dist-remote-only  don't run units on the daemon's own threads;\n"
      << "                   leave them all to connected remote workers\n"
      << "  --repeat N       submit N times (watch the cache heat up)\n"
      << "  --retries N      re-try failed/torn/timed-out submits up to N\n"
      << "                   times on a fresh connection (default 0)\n"
      << "  --timeout-ms N   connect + per-io deadline toward the daemon\n"
      << "                   (default 0 = block forever)\n"
      << "  --raw            print raw JSON response lines\n";
}

/// Re-indents a single-line JSON document for human eyes: two-space indent,
/// one key per line, strings (and their escapes) passed through untouched.
/// Anything non-JSON comes back unchanged in spirit — the characters are all
/// preserved, only whitespace is added.
std::string pretty_json(const std::string& flat) {
  std::string out;
  out.reserve(flat.size() * 2);
  int depth = 0;
  bool in_string = false;
  const auto newline = [&] {
    out += '\n';
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
  };
  for (std::size_t i = 0; i < flat.size(); ++i) {
    const char c = flat[i];
    if (in_string) {
      out += c;
      if (c == '\\' && i + 1 < flat.size())
        out += flat[++i];
      else if (c == '"')
        in_string = false;
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        out += c;
        break;
      case '{':
      case '[':
        out += c;
        ++depth;
        newline();
        break;
      case '}':
      case ']':
        --depth;
        newline();
        out += c;
        break;
      case ',':
        out += c;
        newline();
        break;
      case ':':
        out += ": ";
        break;
      case ' ':
      case '\t':
        break;  // re-flowed below
      default:
        out += c;
        break;
    }
  }
  return out;
}

/// Human scale for a microsecond quantity.
std::string format_us(double us) {
  char buffer[32];
  if (us >= 1e6)
    std::snprintf(buffer, sizeof(buffer), "%.2fs", us / 1e6);
  else if (us >= 1e3)
    std::snprintf(buffer, sizeof(buffer), "%.2fms", us / 1e3);
  else
    std::snprintf(buffer, sizeof(buffer), "%.0fus", us);
  return buffer;
}

/// One-line digest of one latency histogram from the stats response's
/// "hist" section, e.g. `service_us: count=12 p50=8.19ms p95=16.8ms ...`.
/// Quantiles are log2-bucket lower bounds (see docs/observability.md).
void print_histogram_digest(const std::string& json, const std::string& name) {
  const std::string needle = '"' + name + "\":{";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return;
  // The histogram object nests only the buckets array, so the first '}'
  // after the opening brace closes it.
  const std::size_t end = json.find('}', at);
  const std::string_view section = std::string_view(json).substr(
      at, end == std::string::npos ? end : end - at);
  const auto field = [section](const char* key) {
    return dominosyn::codec::find_number(section, key).value_or(0.0);
  };
  const double count = field("count");
  std::cout << name << ": count=" << static_cast<std::uint64_t>(count);
  if (count > 0) {
    std::cout << " p50=" << format_us(field("p50"))
              << " p95=" << format_us(field("p95"))
              << " p99=" << format_us(field("p99"))
              << " mean=" << format_us(field("sum") / count);
  }
  std::cout << "\n";
}

/// The one-line human summary of a served submit (shared by --corpus/--blif
/// and --attach).
void print_summary(const dominosyn::Client::SubmitSummary& summary) {
  std::cout << summary.circuit << " [" << summary.mode << "] cells="
            << summary.cells << " sim_power=" << summary.sim_power
            << " est_power=" << summary.est_power
            << (summary.cache_hit ? " (cache hit," : " (cache miss,")
            << " queue " << summary.queue_seconds * 1e3 << " ms, service "
            << summary.service_seconds * 1e3 << " ms)"
            << (summary.degraded ? " [degraded]" : "");
  if (!summary.rid.empty()) std::cout << " rid=" << summary.rid;
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dominosyn;

  const auto flags = cli::FlagSet::parse(argc, argv);
  if (!flags ||
      !flags->only({"unix", "host", "port", "corpus", "blif", "stats",
                    "metrics", "trace-dump", "ping", "attach", "mode",
                    "circuit", "threads", "sim-steps", "sim-warmup", "pi-prob",
                    "clock", "deadline-ms", "exh-limit", "dist",
                    "dist-frontier", "dist-shared", "dist-remote-only",
                    "repeat", "retries", "timeout-ms", "raw", "help"})) {
    usage(argv[0]);
    return 2;
  }
  if (flags->has("help")) {
    usage(argv[0]);
    return 0;
  }

  const std::string unix_path = flags->get("unix");
  const auto port = flags->get_long("port", 0, 1, 65535);
  const auto retries = flags->get_long("retries", 0, 0, 100);
  const auto timeout_ms = flags->get_long("timeout-ms", 0, 0, 86'400'000);
  if (!port || !retries || !timeout_ms) return 2;
  if (unix_path.empty() && !flags->has("port")) {
    std::cerr << argv[0] << ": need --unix PATH or --host/--port\n";
    return 2;
  }

  try {
    ClientTimeouts timeouts;
    timeouts.connect_ms = static_cast<std::uint32_t>(*timeout_ms);
    timeouts.io_ms = static_cast<std::uint32_t>(*timeout_ms);
    Client client =
        unix_path.empty()
            ? Client::connect_tcp(flags->get("host", "127.0.0.1"),
                                  static_cast<std::uint16_t>(*port), timeouts)
            : Client::connect_unix(unix_path, timeouts);
    RetryPolicy retry;
    retry.max_attempts = static_cast<unsigned>(*retries) + 1;
    client.set_retry_policy(retry);

    if (flags->has("ping")) {
      const bool ok = client.ping();
      std::cout << (ok ? "pong" : "no response") << "\n";
      return ok ? 0 : 1;
    }
    if (flags->has("stats")) {
      const std::string line = client.request("stats");
      if (flags->has("raw")) {
        std::cout << line << "\n";
        return 0;
      }
      std::cout << pretty_json(line) << "\n";
      print_histogram_digest(line, "queue_us");
      print_histogram_digest(line, "service_us");
      return 0;
    }
    if (flags->has("metrics")) {
      std::cout << client.request_multiline("metrics", "# EOF");
      return 0;
    }
    if (flags->has("trace-dump")) {
      const std::string path = flags->get("trace-dump");
      if (path.empty()) {
        std::cerr << argv[0] << ": --trace-dump needs a file path\n";
        return 2;
      }
      const std::string line = client.request("trace");
      std::ofstream out(path);
      if (!out) {
        std::cerr << argv[0] << ": cannot write " << path << "\n";
        return 1;
      }
      out << line << "\n";
      std::cout << "trace written to " << path
                << " (open in ui.perfetto.dev or chrome://tracing)\n";
      return 0;
    }

    if (flags->has("attach")) {
      const std::string rid = flags->get("attach");
      if (rid.empty()) {
        std::cerr << argv[0] << ": --attach needs a rid\n";
        return 2;
      }
      for (;;) {
        const Client::JobStatus status = client.job_status(rid);
        if (status.state == "done") {
          if (flags->has("raw")) {
            std::cout << status.summary.raw << "\n";
          } else if (!status.summary.ok) {
            std::cerr << "rejected (" << status.summary.status
                      << "): " << status.summary.error << "\n";
            return 1;
          } else {
            print_summary(status.summary);
          }
          return 0;
        }
        if (status.state.empty() || status.state == "unknown") {
          std::cerr << argv[0] << ": rid " << rid
                    << " unknown to the daemon (finished long ago, or never "
                       "submitted)\n";
          return 1;
        }
        // running / recovered: a recovered job finishes once someone
        // re-submits it, so keep polling either way.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
    }

    const std::string corpus = flags->get("corpus");
    const std::string blif_path = flags->get("blif");
    if (corpus.empty() == blif_path.empty()) {
      std::cerr << argv[0]
                << ": need exactly one of --corpus, --blif, --stats, "
                   "--metrics, --trace-dump, --ping, --attach\n";
      return 2;
    }

    std::string command = "submit";
    std::string body;
    if (!corpus.empty()) {
      command += " corpus=" + codec::percent_encode(corpus);
    } else {
      std::ifstream file(blif_path);
      if (!file) {
        std::cerr << argv[0] << ": cannot read " << blif_path << "\n";
        return 1;
      }
      std::ostringstream text;
      text << file.rdbuf();
      body = text.str();
      // The server reads the body up to `.end`; without one it would wait
      // for more lines forever.
      if (body.find(".end") == std::string::npos) body += ".end\n";
      command += " blif=inline";
    }
    command += " mode=" + flags->get("mode", "mp");
    if (flags->has("circuit"))
      command += " circuit=" + codec::percent_encode(flags->get("circuit"));
    for (const auto& [flag, key] :
         {std::pair{"threads", "threads"}, {"sim-steps", "sim_steps"},
          {"sim-warmup", "sim_warmup"}, {"deadline-ms", "deadline_ms"},
          {"exh-limit", "exh_limit"}}) {
      if (flags->has(flag)) command += std::string(" ") + key + "=" + flags->get(flag);
    }
    for (const auto& [flag, key] :
         {std::pair{"pi-prob", "pi_prob"}, {"clock", "clock"}}) {
      if (flags->has(flag)) command += std::string(" ") + key + "=" + flags->get(flag);
    }
    if (flags->has("dist")) {
      command += " dist=1";
      if (flags->has("dist-frontier"))
        command += " dist_frontier=" + flags->get("dist-frontier");
      if (flags->has("dist-shared")) command += " dist_shared=1";
      if (flags->has("dist-remote-only")) command += " dist_participate=0";
    }

    const auto repeat = flags->get_long("repeat", 1, 1, 1 << 20);
    if (!repeat) return 2;
    const bool raw = flags->has("raw");
    for (long i = 0; i < *repeat; ++i) {
      const Client::SubmitSummary summary = client.submit(command, body);
      if (raw) {
        std::cout << summary.raw << "\n";
        continue;
      }
      if (!summary.ok) {
        std::cerr << "rejected (" << summary.status << "): " << summary.error
                  << "\n";
        return 1;
      }
      print_summary(summary);
    }
    if (client.telemetry().retries > 0)
      std::cerr << argv[0] << ": " << client.telemetry().retries
                << " retries, " << client.telemetry().reconnects
                << " reconnects\n";
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
