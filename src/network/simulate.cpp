/// \file simulate.cpp
/// 64-way bit-parallel combinational evaluation of a Network.  Used for
/// equivalence checking between phase-assigned realizations and the original
/// logic, and as the functional core of the power simulator.  Both compile
/// the network once (CompiledNetwork: gates in topological order, fanins in
/// CSR form) and then evaluate every 64-vector word through the same kernel
/// into reused value buffers; Network::simulate is the one-shot form.

#include <stdexcept>

#include "network/network.hpp"

namespace dominosyn {

CompiledNetwork::CompiledNetwork(const Network& net)
    : num_nodes_(net.num_nodes()), pis_(net.pis()) {
  latch_outputs_.reserve(net.num_latches());
  for (const LatchInfo& latch : net.latches())
    latch_outputs_.push_back(latch.output);
  fanin_begin_.push_back(0);
  for (const NodeId id : net.topo_order()) {
    const NodeKind kind = net.kind(id);
    if (!is_gate_kind(kind)) continue;  // sources are set per word
    gates_.push_back(id);
    gate_kinds_.push_back(kind);
    for (const NodeId f : net.fanins(id)) fanins_.push_back(f);
    fanin_begin_.push_back(static_cast<std::uint32_t>(fanins_.size()));
  }
}

void CompiledNetwork::simulate(std::span<const std::uint64_t> pi_words,
                               std::span<const std::uint64_t> latch_words,
                               std::vector<std::uint64_t>& value) const {
  if (pi_words.size() != pis_.size())
    throw std::runtime_error("simulate: PI word count mismatch");
  if (!latch_words.empty() && latch_words.size() != latch_outputs_.size())
    throw std::runtime_error("simulate: latch word count mismatch");

  value.resize(num_nodes_);
  value[Network::const0()] = 0;
  value[Network::const1()] = ~0ULL;
  for (std::size_t i = 0; i < pis_.size(); ++i) value[pis_[i]] = pi_words[i];
  for (std::size_t i = 0; i < latch_outputs_.size(); ++i)
    value[latch_outputs_[i]] = latch_words.empty() ? 0 : latch_words[i];

  for (std::size_t g = 0; g < gates_.size(); ++g) {
    const NodeId* f = fanins_.data() + fanin_begin_[g];
    const NodeId* const end = fanins_.data() + fanin_begin_[g + 1];
    std::uint64_t acc = 0;
    switch (gate_kinds_[g]) {
      case NodeKind::kAnd:
        acc = ~0ULL;
        for (; f != end; ++f) acc &= value[*f];
        break;
      case NodeKind::kOr:
        for (; f != end; ++f) acc |= value[*f];
        break;
      case NodeKind::kXor:
        for (; f != end; ++f) acc ^= value[*f];
        break;
      default:  // kNot
        acc = ~value[*f];
        break;
    }
    value[gates_[g]] = acc;
  }
}

std::vector<std::uint64_t> Network::simulate(
    std::span<const std::uint64_t> pi_words,
    std::span<const std::uint64_t> latch_words) const {
  std::vector<std::uint64_t> value;
  CompiledNetwork(*this).simulate(pi_words, latch_words, value);
  return value;
}

std::vector<bool> Network::evaluate(std::span<const bool> pi_values,
                                    std::span<const bool> latch_values) const {
  std::vector<std::uint64_t> pi_words(pis_.size());
  for (std::size_t i = 0; i < pis_.size(); ++i)
    pi_words[i] = pi_values[i] ? ~0ULL : 0ULL;
  std::vector<std::uint64_t> latch_words;
  if (!latch_values.empty()) {
    latch_words.resize(latches_.size());
    for (std::size_t i = 0; i < latches_.size(); ++i)
      latch_words[i] = latch_values[i] ? ~0ULL : 0ULL;
  }
  const auto value = simulate(pi_words, latch_words);
  std::vector<bool> result(pos_.size());
  for (std::size_t i = 0; i < pos_.size(); ++i)
    result[i] = (value[pos_[i].driver] & 1ULL) != 0;
  return result;
}

}  // namespace dominosyn
