#include "network/network.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "util/hash.hpp"

namespace dominosyn {

std::string_view to_string(NodeKind kind) noexcept {
  switch (kind) {
    case NodeKind::kConst0: return "const0";
    case NodeKind::kConst1: return "const1";
    case NodeKind::kPi: return "pi";
    case NodeKind::kLatch: return "latch";
    case NodeKind::kAnd: return "and";
    case NodeKind::kOr: return "or";
    case NodeKind::kNot: return "not";
    case NodeKind::kXor: return "xor";
  }
  return "?";
}

Network::Network() {
  nodes_.push_back(Node{NodeKind::kConst0, {}});
  nodes_.push_back(Node{NodeKind::kConst1, {}});
}

NodeId Network::add_node(NodeKind kind, std::vector<NodeId> fanins) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{kind, std::move(fanins)});
  return id;
}

NodeId Network::add_pi(std::string name) {
  const NodeId id = add_node(NodeKind::kPi, {});
  pis_.push_back(id);
  set_node_name(id, std::move(name));
  return id;
}

NodeId Network::add_latch(std::string name, LatchInit init) {
  const NodeId id = add_node(NodeKind::kLatch, {});
  latches_.push_back(LatchInfo{name, id, kNullNode, init});
  set_node_name(id, std::move(name));
  return id;
}

void Network::set_latch_input(NodeId latch_output, NodeId driver) {
  for (auto& latch : latches_) {
    if (latch.output == latch_output) {
      latch.input = driver;
      return;
    }
  }
  throw std::runtime_error("set_latch_input: node is not a latch output");
}

void Network::add_po(std::string name, NodeId driver) {
  if (driver >= nodes_.size()) throw std::runtime_error("add_po: driver out of range");
  pos_.push_back(Po{std::move(name), driver});
}

NodeId Network::add_gate(NodeKind kind, std::vector<NodeId> fanins) {
  if (!is_gate_kind(kind)) throw std::runtime_error("add_gate: not a gate kind");
  if (kind == NodeKind::kNot && fanins.size() != 1)
    throw std::runtime_error("add_gate: NOT takes exactly one fanin");
  if (fanins.empty()) throw std::runtime_error("add_gate: gate needs fanins");
  for (const NodeId f : fanins)
    if (f >= nodes_.size()) throw std::runtime_error("add_gate: fanin out of range");
  return add_node(kind, std::move(fanins));
}

NodeId Network::add_and_n(std::span<const NodeId> fanins) {
  if (fanins.empty()) return const1();
  if (fanins.size() == 1) return fanins[0];
  return add_gate(NodeKind::kAnd, {fanins.begin(), fanins.end()});
}

NodeId Network::add_or_n(std::span<const NodeId> fanins) {
  if (fanins.empty()) return const0();
  if (fanins.size() == 1) return fanins[0];
  return add_gate(NodeKind::kOr, {fanins.begin(), fanins.end()});
}

std::optional<std::string> Network::node_name(NodeId id) const {
  const auto it = names_.find(id);
  if (it == names_.end()) return std::nullopt;
  return it->second;
}

void Network::set_node_name(NodeId id, std::string name) {
  name_index_[name] = id;
  names_[id] = std::move(name);
}

NodeId Network::find_node(const std::string& name) const {
  const auto it = name_index_.find(name);
  return it == name_index_.end() ? kNullNode : it->second;
}

std::optional<std::size_t> Network::latch_index_of(NodeId id) const {
  for (std::size_t i = 0; i < latches_.size(); ++i)
    if (latches_[i].output == id) return i;
  return std::nullopt;
}

std::size_t Network::num_gates() const noexcept {
  std::size_t count = 0;
  for (const auto& node : nodes_)
    if (is_gate_kind(node.kind)) ++count;
  return count;
}

std::size_t Network::num_inverters() const noexcept {
  std::size_t count = 0;
  for (const auto& node : nodes_)
    if (node.kind == NodeKind::kNot) ++count;
  return count;
}

void Network::validate() const {
  if (nodes_.size() < 2 || nodes_[0].kind != NodeKind::kConst0 ||
      nodes_[1].kind != NodeKind::kConst1)
    throw std::runtime_error("validate: constant nodes missing");
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const auto& node = nodes_[id];
    if (is_source_kind(node.kind) && !node.fanins.empty())
      throw std::runtime_error("validate: source node has fanins");
    for (const NodeId f : node.fanins)
      if (f >= nodes_.size())
        throw std::runtime_error("validate: fanin out of range");
    if (node.kind == NodeKind::kNot && node.fanins.size() != 1)
      throw std::runtime_error("validate: NOT arity");
  }
  for (const auto& latch : latches_) {
    if (latch.output >= nodes_.size() || nodes_[latch.output].kind != NodeKind::kLatch)
      throw std::runtime_error("validate: latch output wiring");
    if (latch.input == kNullNode)
      throw std::runtime_error("validate: latch '" + latch.name + "' has no next-state input");
    if (latch.input >= nodes_.size())
      throw std::runtime_error("validate: latch input out of range");
  }
  for (const auto& po : pos_)
    if (po.driver == kNullNode || po.driver >= nodes_.size())
      throw std::runtime_error("validate: PO '" + po.name + "' driver invalid");
  // topo_order throws on combinational cycles.
  (void)topo_order();
}

std::uint64_t network_fingerprint(const Network& net) {
  const std::hash<std::string> str_hash;
  std::uint64_t h = mix64(net.num_nodes());
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    h = hash_combine(h, static_cast<std::uint64_t>(net.kind(id)));
    const auto& fanins = net.fanins(id);
    h = hash_combine(h, fanins.size());
    for (const NodeId fanin : fanins) h = hash_combine(h, fanin);
  }
  for (const NodeId pi : net.pis()) h = hash_combine(h, pi);
  for (const Po& po : net.pos()) {
    h = hash_combine(h, po.driver);
    h = hash_combine(h, str_hash(po.name));
  }
  for (const LatchInfo& latch : net.latches()) {
    h = hash_combine(h, latch.output);
    h = hash_combine(h, latch.input);
    h = hash_combine(h, static_cast<std::uint64_t>(latch.init));
    h = hash_combine(h, str_hash(latch.name));
  }
  return h;
}

}  // namespace dominosyn
