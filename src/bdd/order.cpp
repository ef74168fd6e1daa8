#include "bdd/order.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/bits.hpp"
#include "util/rng.hpp"

namespace dominosyn {

namespace {

std::vector<NodeId> all_sources(const Network& net) {
  std::vector<NodeId> sources;
  sources.reserve(net.num_pis() + net.num_latches());
  for (const NodeId pi : net.pis()) sources.push_back(pi);
  for (const auto& latch : net.latches()) sources.push_back(latch.output);
  return sources;
}

/// First-visit order of sources under the paper's traversal: levels ascending,
/// same-level gates in decreasing fan-out-cone cardinality.
std::vector<NodeId> first_visit_order(const Network& net) {
  const auto level = net.levels();
  const auto cone = fanout_cone_sizes(net);

  std::uint32_t max_level = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id)
    if (is_gate_kind(net.kind(id))) max_level = std::max(max_level, level[id]);

  std::vector<std::vector<NodeId>> by_level(max_level + 1);
  for (NodeId id = 0; id < net.num_nodes(); ++id)
    if (is_gate_kind(net.kind(id))) by_level[level[id]].push_back(id);

  std::vector<bool> seen(net.num_nodes(), false);
  std::vector<NodeId> visit;
  for (auto& gates : by_level) {
    std::sort(gates.begin(), gates.end(), [&cone](NodeId a, NodeId b) {
      if (cone[a] != cone[b]) return cone[a] > cone[b];
      return a < b;  // deterministic tie-break
    });
    for (const NodeId gate : gates)
      for (const NodeId f : net.fanins(gate))
        if (is_source_kind(net.kind(f)) && f > Network::const1() && !seen[f]) {
          seen[f] = true;
          visit.push_back(f);
        }
  }
  // Sources never touched by any gate (e.g. a PI wired straight to a PO)
  // cannot influence sharing; append them in declaration order.
  for (const NodeId src : all_sources(net))
    if (!seen[src]) {
      seen[src] = true;
      visit.push_back(src);
    }
  return visit;
}

}  // namespace

std::vector<std::uint32_t> fanout_cone_sizes(const Network& net,
                                             std::size_t exact_limit) {
  const std::size_t n = net.num_nodes();
  std::vector<std::uint32_t> sizes(n, 0);
  if (n <= exact_limit) {
    // Exact: per-node bitset of transitive fan-out, folded in reverse
    // topological order.  Memory is n^2/8 bytes, guarded by exact_limit.
    const std::size_t words = (n + 63) / 64;
    std::vector<std::uint64_t> tfo(n * words, 0);
    const auto order = net.topo_order();
    // Direct fan-out lists.
    std::vector<std::vector<NodeId>> fanouts(n);
    for (NodeId id = 0; id < n; ++id)
      for (const NodeId f : net.fanins(id)) fanouts[f].push_back(id);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId id = *it;
      auto* row = &tfo[static_cast<std::size_t>(id) * words];
      for (const NodeId out : fanouts[id]) {
        row[out / 64] |= 1ULL << (out % 64);
        const auto* out_row = &tfo[static_cast<std::size_t>(out) * words];
        for (std::size_t w = 0; w < words; ++w) row[w] |= out_row[w];
      }
      std::uint32_t count = 0;
      for (std::size_t w = 0; w < words; ++w)
        count += popcount64(row[w]);
      sizes[id] = count;
    }
  } else {
    // Proxy for very large networks: direct fan-out counts.
    const auto counts = net.fanout_counts();
    std::copy(counts.begin(), counts.end(), sizes.begin());
  }
  return sizes;
}

VariableOrder order_from_sources(const Network& net,
                                 std::span<const NodeId> sources) {
  VariableOrder order;
  order.sources_in_order.assign(sources.begin(), sources.end());
  order.level_of.assign(net.num_nodes(), VariableOrder::kNoLevel);
  for (std::uint32_t lvl = 0; lvl < sources.size(); ++lvl) {
    const NodeId src = sources[lvl];
    if (!is_source_kind(net.kind(src)) || src <= Network::const1())
      throw std::runtime_error("order_from_sources: node is not a PI/latch source");
    if (order.level_of[src] != VariableOrder::kNoLevel)
      throw std::runtime_error("order_from_sources: duplicate source");
    order.level_of[src] = lvl;
  }
  if (sources.size() != net.num_pis() + net.num_latches())
    throw std::runtime_error("order_from_sources: source count mismatch");
  return order;
}

VariableOrder compute_order(const Network& net, OrderingKind kind,
                            std::uint64_t seed) {
  std::vector<NodeId> sources;
  switch (kind) {
    case OrderingKind::kNatural:
      sources = all_sources(net);
      break;
    case OrderingKind::kTopological:
      sources = first_visit_order(net);
      break;
    case OrderingKind::kReverseTopological: {
      sources = first_visit_order(net);
      std::reverse(sources.begin(), sources.end());
      break;
    }
    case OrderingKind::kRandom: {
      sources = all_sources(net);
      Rng rng(seed);
      // Fisher-Yates with our deterministic generator.
      for (std::size_t i = sources.size(); i > 1; --i)
        std::swap(sources[i - 1], sources[rng.below(i)]);
      break;
    }
  }
  return order_from_sources(net, sources);
}

}  // namespace dominosyn
