/// \file options.hpp
/// Options of the distributed search fabric (docs/distributed.md) and how a
/// job names its circuit: every grant carries a CircuitKey, and the
/// evaluator's synthesized network travels once per job with its
/// probabilities (dist/workunit.hpp).  Kept dependency-light so FlowOptions
/// can embed them: this header pulls in only the standard library.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dominosyn::dist {

class DistCoordinator;

/// What a work unit's grant says about its circuit: which prepared circuit
/// it runs on, and a worker's cache key.  A worker that does not hold the
/// circuit fetches it once per job (`fetch_circuit`, docs/protocol.md).
struct CircuitKey {
  /// Evaluator inputs the protocol can express: the uniform PI probability
  /// and the power model's load-awareness; everything else is the flow
  /// default.
  double pi_prob = 0.5;
  bool load_aware = true;
  /// network_fingerprint of the *synthesized* network the evaluator was
  /// built on (filled by dist/search.cpp).
  std::uint64_t fingerprint = 0;

  bool operator==(const CircuitKey&) const = default;
};

/// The circuit of a fabric job.  dist/search.cpp ships the evaluator's own
/// synthesized network and probabilities, so callers describe nothing.
struct CircuitSpec {
  /// pi_prob and load_aware: the flow's assign stage stamps them from its
  /// options; dist/search.cpp fills the fingerprint.
  CircuitKey key;
  /// Read by nothing: kept only because perfbench/exact_fabric.cpp still
  /// assigns it.
  std::string blif_text;
};

/// Deepest branch-and-bound frontier a search may split at: 2^16 = 65,536
/// units.  A job's units are built up front, at a few hundred bytes and
/// tens of microseconds each, so an unbounded depth could exhaust the
/// daemon's memory.  The protocol refuses deeper `dist_frontier=` requests.
inline constexpr std::size_t kMaxFrontierDepth = 16;

struct DistSearchOptions {
  /// Master switch; with a null `coordinator` the flow runs locally.
  bool enabled = false;
  /// The coordinator to open jobs on.  ServerCore fills this with its own
  /// coordinator on dist-enabled requests; in-process callers may point at
  /// any coordinator they run workers against.  Never serialized.
  DistCoordinator* coordinator = nullptr;
  /// Branch-and-bound frontier: the search splits into 2^frontier_depth
  /// prefix-subtree units (clamped to the output count; at most
  /// kMaxFrontierDepth).
  std::size_t frontier_depth = 6;
  /// false (default): every unit prunes only against its bound snapshot plus
  /// its own discoveries — results AND work counters are bit-identical for
  /// any worker/thread/steal interleaving.  true: workers exchange live
  /// incumbents through push_incumbent; the merged result is still
  /// bit-identical (strict pruning), but expanded/pruned counters become
  /// timing-dependent, exactly like num_threads > 1 locally.
  bool shared_bounds = false;
  /// Run units on the submitting flow's own threads too (they lease from
  /// the coordinator like any worker).  With false the flow only waits —
  /// but takes over after `stall_takeover_ms` of coordinator inactivity so
  /// a workerless fabric still completes.
  bool participate = true;
  std::uint32_t lease_timeout_ms = 30'000;
  std::uint32_t stall_takeover_ms = 2'000;
  /// Originating request fingerprint (the protocol's `rid=`).  Passed to
  /// open_job so a checkpoint-logging coordinator can journal the job and a
  /// restarted one can adopt its durable results (docs/robustness.md).
  /// Empty = unjournaled.  Like `coordinator`, never serialized.
  std::string rid;
  CircuitSpec circuit;
};

}  // namespace dominosyn::dist
