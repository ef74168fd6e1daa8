#include "flow/flow.hpp"

#include <algorithm>

#include "flow/session.hpp"
#include "util/rng.hpp"

namespace dominosyn {

std::string_view to_string(PhaseMode mode) noexcept {
  switch (mode) {
    case PhaseMode::kAllPositive: return "all-positive";
    case PhaseMode::kMinArea: return "min-area";
    case PhaseMode::kMinPower: return "min-power";
    case PhaseMode::kExhaustivePower: return "exhaustive-power";
  }
  return "?";
}

bool min_power_searches_exactly(const FlowOptions& options,
                                std::size_t num_pos) noexcept {
  return num_pos > 0 && num_pos <= std::min(options.exhaustive_pos_limit,
                                            kMaxExhaustiveOutputs);
}

bool random_equivalent(const Network& a, const Network& b, std::size_t words,
                       std::uint64_t seed) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos() ||
      a.num_latches() != b.num_latches())
    return false;
  const CompiledNetwork compiled_a(a);
  const CompiledNetwork compiled_b(b);
  Rng rng(seed);
  std::vector<std::uint64_t> pi_words(a.num_pis());
  std::vector<std::uint64_t> latch_words(a.num_latches());
  std::vector<std::uint64_t> va;
  std::vector<std::uint64_t> vb;
  for (std::size_t w = 0; w < words; ++w) {
    for (auto& word : pi_words) word = rng.next();
    for (auto& word : latch_words) word = rng.next();
    compiled_a.simulate(pi_words, latch_words, va);
    compiled_b.simulate(pi_words, latch_words, vb);
    for (std::size_t i = 0; i < a.num_pos(); ++i)
      if (va[a.pos()[i].driver] != vb[b.pos()[i].driver]) return false;
    for (std::size_t i = 0; i < a.num_latches(); ++i)
      if (va[a.latches()[i].input] != vb[b.latches()[i].input]) return false;
  }
  return true;
}

FlowReport run_flow(const Network& input, const FlowOptions& options) {
  // Compatibility wrapper: a one-shot staged session.  Callers that compare
  // several modes or clock targets on one circuit should hold a FlowSession
  // (or use run_flow_batch) so the synthesized form, BDD probabilities and
  // EvalContext are built once instead of per call.
  FlowSession session(input, options);
  return session.report(options.mode);
}

}  // namespace dominosyn
