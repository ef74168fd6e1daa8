/// \file simulate.cpp
/// 64-way bit-parallel combinational evaluation of a Network.  Used for
/// equivalence checking between phase-assigned realizations and the original
/// logic, and as the functional core of the power simulator.  Both compile
/// the network once (CompiledNetwork: gates grouped into runs of one kind and
/// fanin count) and then evaluate every 64-vector word through the same
/// kernels into reused value buffers; Network::simulate is the one-shot form.

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "network/network.hpp"

namespace dominosyn {

namespace {

/// Evaluates a run of `count` gates of one kind with `arity` fanins each.
/// A nonzero kArity fixes the trip count at compile time: a switch on each
/// gate's kind, then a fanin loop of varying length, mispredicts on nearly
/// every gate, and a run of one kind and arity does not.
template <NodeKind kKind, std::size_t kArity>
void eval_run(const NodeId* out, const NodeId* fanins, std::size_t count,
              std::size_t arity, std::uint64_t* value) {
  const std::size_t n = kArity != 0 ? kArity : arity;
  for (std::size_t g = 0; g < count; ++g, fanins += n) {
    std::uint64_t acc = value[fanins[0]];
    for (std::size_t k = 1; k < n; ++k) {
      if constexpr (kKind == NodeKind::kAnd) {
        acc &= value[fanins[k]];
      } else if constexpr (kKind == NodeKind::kOr) {
        acc |= value[fanins[k]];
      } else {
        acc ^= value[fanins[k]];
      }
    }
    value[out[g]] = kKind == NodeKind::kNot ? ~acc : acc;
  }
}

/// Widest AND/OR with a fixed-trip kernel; the mapper's cells reach 8.
constexpr std::size_t kMaxFixedArity = 8;

template <NodeKind kKind, std::size_t... kArityLess1>
constexpr auto fixed_kernels(std::index_sequence<kArityLess1...>) {
  return std::array{&eval_run<kKind, kArityLess1 + 1>...};
}

/// Stable counting sort of `ids` by key[id].
template <typename Key>
void counting_sort(std::vector<NodeId>& ids, const std::vector<Key>& key) {
  Key max_key = 0;
  for (const NodeId id : ids) max_key = std::max(max_key, key[id]);
  std::vector<std::size_t> start(static_cast<std::size_t>(max_key) + 2, 0);
  for (const NodeId id : ids) ++start[key[id] + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<NodeId> sorted(ids.size());
  for (const NodeId id : ids) sorted[start[key[id]]++] = id;
  ids.swap(sorted);
}

}  // namespace

CompiledNetwork::CompiledNetwork(const Network& net)
    : num_nodes_(net.num_nodes()), pis_(net.pis()) {
  latch_outputs_.reserve(net.num_latches());
  for (const LatchInfo& latch : net.latches())
    latch_outputs_.push_back(latch.output);

  // A gate reads only gates on lower levels, so ordering by level is a
  // topological order whatever the order within a level.  Two stable
  // counting sorts, by shape (kind and arity) and then by level, group each
  // level's gates into runs in node-id order.  A run may carry on into the
  // next level: its gates are evaluated one after another.
  const std::vector<std::uint32_t> level = net.levels();
  std::vector<std::size_t> shape(num_nodes_, 0);
  for (NodeId id = 0; id < num_nodes_; ++id) {
    const NodeKind kind = net.kind(id);
    if (!is_gate_kind(kind)) continue;  // sources are set per word
    gates_.push_back(id);
    shape[id] = net.fanins(id).size() * 8 + static_cast<std::size_t>(kind);
  }
  counting_sort(gates_, shape);
  counting_sort(gates_, level);

  static constexpr auto kAndKernels =
      fixed_kernels<NodeKind::kAnd>(std::make_index_sequence<kMaxFixedArity>{});
  static constexpr auto kOrKernels =
      fixed_kernels<NodeKind::kOr>(std::make_index_sequence<kMaxFixedArity>{});
  const auto kernel_for = [](NodeKind kind, std::size_t arity) -> Kernel {
    switch (kind) {
      case NodeKind::kNot:
        return eval_run<NodeKind::kNot, 1>;
      case NodeKind::kAnd:
        return arity <= kMaxFixedArity ? kAndKernels[arity - 1]
                                       : eval_run<NodeKind::kAnd, 0>;
      case NodeKind::kOr:
        return arity <= kMaxFixedArity ? kOrKernels[arity - 1]
                                       : eval_run<NodeKind::kOr, 0>;
      default:  // kXor
        return eval_run<NodeKind::kXor, 0>;
    }
  };

  for (std::size_t g = 0; g < gates_.size(); ++g) {
    const std::vector<NodeId>& fanins = net.fanins(gates_[g]);
    if (g == 0 || shape[gates_[g]] != shape[gates_[g - 1]])
      runs_.push_back({kernel_for(net.kind(gates_[g]), fanins.size()),
                       static_cast<std::uint32_t>(g), 0,
                       static_cast<std::uint32_t>(fanins.size()),
                       static_cast<std::uint32_t>(fanins_.size())});
    ++runs_.back().num_gates;
    fanins_.insert(fanins_.end(), fanins.begin(), fanins.end());
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

  for (const Run& run : runs_)
    run.kernel(gates_.data() + run.first_gate,
               fanins_.data() + run.first_fanin, run.num_gates, run.arity,
               value.data());
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
