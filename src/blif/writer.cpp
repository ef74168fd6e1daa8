/// \file writer.cpp
/// BLIF serialization.  Every gate becomes a single-output `.names` cover;
/// signal names are preserved where the network has them and generated as
/// n<NodeId> otherwise.

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "blif/blif.hpp"
#include "util/bits.hpp"

namespace dominosyn::blif {

namespace {

std::string signal_name(const Network& net, NodeId id,
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
    // A char prefix: GCC 12 at -O3 warns falsely (-Wrestrict) on
    // `"n" + std::to_string(id)`.
    name = 'n' + std::to_string(id);
  }
  cache[id] = name;
  return name;
}

}  // namespace

void write(const Network& net, std::ostream& out) {
  std::vector<std::string> names(net.num_nodes());
  const auto sig = [&](NodeId id) { return signal_name(net, id, names); };

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
