/// \file benchgen.hpp
/// Deterministic synthetic benchmarks.
///
/// The paper evaluates on MCNC circuits (apex7, frg1, x1, x3) and three
/// proprietary Intel control blocks.  Neither is shippable in this offline
/// reproduction, so we generate *stand-ins* with the PI/PO counts printed in
/// the paper's tables and comparable gate counts / cone-overlap structure
/// (see DESIGN.md §4 substitutions).  The BLIF front end accepts the real
/// MCNC files unchanged if the user supplies them.
///
/// Also provides the exact example circuits of Figures 3, 5 and 10, used by
/// the corresponding benches and tests.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "network/network.hpp"

namespace dominosyn {

struct BenchSpec {
  std::string name;
  std::string description;     ///< "Control Logic" / "Public Domain"
  std::size_t num_pis = 8;
  std::size_t num_pos = 4;
  std::size_t num_latches = 0;
  std::size_t gate_target = 100;  ///< pre-phase 2-input gate budget
  std::uint64_t seed = 1;
  double not_prob = 0.30;      ///< probability a gate input is inverted
  double and_bias = 0.5;       ///< DNF-cluster fraction (rest CNF)
  double locality = 0.7;       ///< bias towards recently created signals
  std::size_t dnf_width = 2;   ///< min AND-term width in DNF clusters (+0..2)
  std::size_t cnf_width = 4;   ///< min OR-factor width in CNF clusters (+0..3)
  std::size_t support_lo = 4;  ///< min cluster support size (+0..6)
};

/// Generates a random control-logic-like network: layered random DAG with
/// reconvergence, arbitrary internal inverters, and POs with overlapping
/// cones.  The result is run through standard_synthesis (2-input AND/OR +
/// NOT, structurally hashed).  Deterministic in the spec's seed.
[[nodiscard]] Network generate_benchmark(const BenchSpec& spec);

/// The seven circuits of Tables 1-2, with the paper's PI/PO counts.
[[nodiscard]] const std::vector<BenchSpec>& paper_suite();

/// Looks up a paper_suite spec by name ("apex7", "frg1", "x1", "x3",
/// "Industry 1", "Industry 2", "Industry 3").  Throws if unknown.
[[nodiscard]] const BenchSpec& paper_spec(const std::string& name);

/// The generated circuit of paper_spec(name), built once per process on
/// first use (under a lock) and shared read-only by every later call.
/// Throws like paper_spec if the name is unknown.
[[nodiscard]] std::shared_ptr<const Network> paper_network(
    const std::string& name);

/// Figure 3: f = !((a+b) + (c·d)), g = (a+b) + (c·!d) — the inverter-removal
/// walkthrough pair.
[[nodiscard]] Network make_figure3_circuit();

/// Figure 5: f = (a+b) + (c·d), g = (a+b) · (c·d) over shared subterms.
/// At p(PI) = 0.9 the positive-phase realization switches 3.6 per cycle in
/// the domino block vs 0.40 for the negative-phase dual.
[[nodiscard]] Network make_figure5_circuit();

/// Figure 10: nodes P = x1·x2·x3, Q = x3·x4, R = (P+Q)·x5 — the BDD
/// variable-ordering example.
[[nodiscard]] Network make_figure10_circuit();

}  // namespace dominosyn
