/// \file writer.cpp
/// BLIF serialization.  Every gate becomes a single-output `.names` cover;
/// signal names are preserved where the network has them and generated as
/// n<NodeId> otherwise, or n<NodeId>_<k> when another node or output already
/// holds n<NodeId>.

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "blif/blif.hpp"
#include "util/bits.hpp"

namespace dominosyn::blif {

namespace {

/// The names a generated name could take ('n', then a digit) that the
/// network already holds, each with its holder: the node an attached name
/// names, the node that drives an output.
using Holders = std::unordered_map<std::string, NodeId>;

Holders generated_form_names(const Network& net) {
  const auto generated_form = [](const std::string& name) {
    return name.size() > 1 && name[0] == 'n' && name[1] >= '0' &&
           name[1] <= '9';
  };
  Holders holders;
  for (NodeId id = 0; id < net.num_nodes(); ++id)
    if (const auto name = net.node_name(id); name && generated_form(*name))
      holders.emplace(*name, id);
  for (const auto& po : net.pos())
    if (generated_form(po.name)) holders.emplace(po.name, po.driver);
  return holders;
}

/// A name for unnamed node `id`: n<id>, or the first free n<id>_<k> when
/// another node holds n<id> (ABC names internal signals so).  A taken name
/// would define one signal twice, which the reader rejects.
std::string generated_name(NodeId id, const Holders& holders) {
  const auto taken = [&](const std::string& name) {
    const auto holder = holders.find(name);
    return holder != holders.end() && holder->second != id;
  };
  // A char prefix: GCC 12 at -O3 warns falsely (-Wrestrict) on
  // `"n" + std::to_string(id)`.
  const std::string base = 'n' + std::to_string(id);
  std::string name = base;
  for (std::size_t k = 1; taken(name); ++k)
    name = base + '_' + std::to_string(k);
  return name;
}

std::string signal_name(const Network& net, NodeId id,
                        const Holders& holders,
                        std::vector<std::string>& cache) {
  if (!cache[id].empty()) return cache[id];
  std::string name;
  if (id == Network::const0()) {
    name = "const0$";
  } else if (id == Network::const1()) {
    name = "const1$";
  } else if (const auto attached = net.node_name(id)) {
    name = *attached;
  } else {
    name = generated_name(id, holders);
  }
  cache[id] = name;
  return name;
}

}  // namespace

void write(const Network& net, std::ostream& out) {
  std::vector<std::string> names(net.num_nodes());
  const Holders holders = generated_form_names(net);
  const auto sig = [&](NodeId id) {
    return signal_name(net, id, holders, names);
  };

  out << ".model " << (net.name().empty() ? "dominosyn" : net.name()) << "\n";

  out << ".inputs";
  for (const NodeId pi : net.pis()) out << ' ' << sig(pi);
  out << "\n.outputs";
  for (const auto& po : net.pos()) out << ' ' << po.name;
  out << "\n";

  for (const auto& latch : net.latches()) {
    out << ".latch " << sig(latch.input) << ' ' << sig(latch.output);
    switch (latch.init) {
      case LatchInit::kZero: out << " 0"; break;
      case LatchInit::kOne: out << " 1"; break;
      case LatchInit::kDontCare: out << " 2"; break;
    }
    out << "\n";
  }

  bool used_const0 = false;
  bool used_const1 = false;
  const auto note_const = [&](NodeId id) {
    used_const0 |= id == Network::const0();
    used_const1 |= id == Network::const1();
  };

  for (const NodeId id : net.topo_order()) {
    const auto& node = net.node(id);
    if (!is_gate_kind(node.kind)) continue;
    for (const NodeId f : node.fanins) note_const(f);
    out << ".names";
    for (const NodeId f : node.fanins) out << ' ' << sig(f);
    out << ' ' << sig(id) << "\n";
    const std::size_t n = node.fanins.size();
    switch (node.kind) {
      case NodeKind::kAnd:
        out << std::string(n, '1') << " 1\n";
        break;
      case NodeKind::kOr:
        for (std::size_t i = 0; i < n; ++i) {
          std::string cube(n, '-');
          cube[i] = '1';
          out << cube << " 1\n";
        }
        break;
      case NodeKind::kNot:
        out << "0 1\n";
        break;
      case NodeKind::kXor: {
        if (n > 16) throw std::runtime_error("blif::write: XOR fanin too wide");
        // Odd-parity on-set cover.
        for (std::size_t bits = 0; bits < (1ULL << n); ++bits) {
          if (popcount64(bits) % 2 == 0) continue;
          std::string cube(n, '0');
          for (std::size_t i = 0; i < n; ++i)
            if ((bits >> i) & 1ULL) cube[i] = '1';
          out << cube << " 1\n";
        }
        break;
      }
      default:
        break;
    }
  }

  // POs that are driven directly by sources or constants need a buffer cover
  // when the PO name differs from the signal name.
  for (const auto& po : net.pos()) {
    note_const(po.driver);
    if (sig(po.driver) != po.name) {
      out << ".names " << sig(po.driver) << ' ' << po.name << "\n";
      out << "1 1\n";
    }
  }
  for (const auto& latch : net.latches()) note_const(latch.input);

  if (used_const0) out << ".names const0$\n";  // empty cover = constant 0
  if (used_const1) out << ".names const1$\n1\n";
  out << ".end\n";
}

std::string write_string(const Network& net) {
  std::ostringstream out;
  write(net, out);
  return out.str();
}

void write_file(const Network& net, const std::string& path) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("blif: cannot write '" + path + "'");
  write(net, file);
}

}  // namespace dominosyn::blif
