/// Tests for SOP covers and the BLIF reader/writer.

#include <gtest/gtest.h>

#include "blif/blif.hpp"
#include "benchgen/benchgen.hpp"
#include "flow/flow.hpp"
#include "flow/session.hpp"
#include "network/sop.hpp"

namespace dominosyn {
namespace {

TEST(Cube, ParseAndMatch) {
  const Cube cube = Cube::parse("10-");
  const bool a[] = {true, false, false};
  const bool b[] = {true, false, true};
  const bool c[] = {false, false, true};
  EXPECT_TRUE(cube.matches(a));
  EXPECT_TRUE(cube.matches(b));
  EXPECT_FALSE(cube.matches(c));
  EXPECT_EQ(cube.to_string(), "10-");
  EXPECT_THROW(Cube::parse("1x0"), std::runtime_error);
}

TEST(SopCover, OnSetAndOffSetSemantics) {
  SopCover on;
  on.num_inputs = 2;
  on.output_value = true;
  on.cubes.push_back(Cube::parse("11"));
  SopCover off = on;
  off.output_value = false;

  const bool v11[] = {true, true};
  const bool v01[] = {false, true};
  EXPECT_TRUE(on.evaluate(v11));
  EXPECT_FALSE(on.evaluate(v01));
  EXPECT_FALSE(off.evaluate(v11));  // off-set: f = !(a & b)
  EXPECT_TRUE(off.evaluate(v01));
}

TEST(SopCover, ConstantsAndLiteralCount) {
  SopCover c0;
  c0.num_inputs = 0;
  c0.output_value = true;  // empty on-set
  EXPECT_TRUE(c0.is_constant());
  EXPECT_FALSE(c0.constant_value());

  SopCover cover;
  cover.num_inputs = 3;
  cover.cubes.push_back(Cube::parse("1-0"));
  cover.cubes.push_back(Cube::parse("-11"));
  EXPECT_EQ(cover.literal_count(), 4u);
}

TEST(BlifReader, ParsesCombinationalModel) {
  const std::string text = R"(
# simple model
.model test1
.inputs a b c
.outputs f g
.names a b t1
11 1
.names t1 c f
1- 1
-1 1
.names a g
0 1
.end
)";
  const Network net = blif::read_string(text);
  EXPECT_EQ(net.name(), "test1");
  EXPECT_EQ(net.num_pis(), 3u);
  EXPECT_EQ(net.num_pos(), 2u);
  // f = (a&b) | c, g = !a
  const bool v[] = {false, true, true};
  const auto out = net.evaluate(v);
  EXPECT_TRUE(out[0]);
  EXPECT_TRUE(out[1]);
  const bool v2[] = {true, true, false};
  const auto out2 = net.evaluate(v2);
  EXPECT_TRUE(out2[0]);
  EXPECT_FALSE(out2[1]);
}

TEST(BlifReader, ParsesLatchesWithInit) {
  const std::string text = R"(
.model seq
.inputs a
.outputs q
.latch nxt q re clk 1
.names a q nxt
11 1
.end
)";
  const Network net = blif::read_string(text);
  EXPECT_EQ(net.num_latches(), 1u);
  EXPECT_EQ(net.latches()[0].init, LatchInit::kOne);
  EXPECT_EQ(net.latches()[0].name, "q");
  net.validate();
}

TEST(BlifReader, OffSetCover) {
  const std::string text = R"(
.model offset
.inputs a b
.outputs f
.names a b f
11 0
.end
)";
  const Network net = blif::read_string(text);
  const bool v11[] = {true, true};
  const bool v10[] = {true, false};
  EXPECT_FALSE(net.evaluate(v11)[0]);  // f = !(a & b)
  EXPECT_TRUE(net.evaluate(v10)[0]);
}

TEST(BlifReader, ConstantNodes) {
  const std::string text = R"(
.model consts
.inputs a
.outputs one zero f
.names one
1
.names zero
.names a one f
11 1
.end
)";
  const Network net = blif::read_string(text);
  const bool v[] = {true};
  const auto out = net.evaluate(v);
  EXPECT_TRUE(out[0]);
  EXPECT_FALSE(out[1]);
  EXPECT_TRUE(out[2]);  // f = a & 1 = a
}

TEST(BlifReader, LineContinuationAndComments) {
  const std::string text =
      ".model cont\n.inputs a \\\nb\n.outputs f  # trailing comment\n"
      ".names a b f\n11 1\n.end\n";
  const Network net = blif::read_string(text);
  EXPECT_EQ(net.num_pis(), 2u);
  EXPECT_EQ(net.num_pos(), 1u);
}

TEST(BlifReader, ErrorsCarryLineNumbers) {
  try {
    (void)blif::read_string(".model x\n.inputs a\n.outputs f\n.names a f\n1x 1\n.end\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("blif:5"), std::string::npos) << e.what();
  }
}

TEST(BlifReader, RejectsMixedCover) {
  const std::string text =
      ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end\n";
  EXPECT_THROW((void)blif::read_string(text), std::runtime_error);
}

TEST(BlifReader, RejectsDoubleDefinition) {
  const std::string text =
      ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end\n";
  EXPECT_THROW((void)blif::read_string(text), std::runtime_error);
}

TEST(BlifReader, DetectsCombinationalCycle) {
  const std::string text =
      ".model m\n.inputs a\n.outputs f\n.names g a f\n11 1\n.names f g\n1 1\n.end\n";
  EXPECT_THROW((void)blif::read_string(text), std::runtime_error);
}

TEST(BlifWriter, RoundTripPreservesFunction) {
  BenchSpec spec;
  spec.name = "rt";
  spec.num_pis = 7;
  spec.num_pos = 4;
  spec.gate_target = 50;
  spec.seed = 17;
  const Network net = generate_benchmark(spec);
  const Network back = blif::read_string(blif::write_string(net));
  EXPECT_EQ(back.num_pis(), net.num_pis());
  EXPECT_EQ(back.num_pos(), net.num_pos());
  EXPECT_TRUE(random_equivalent(net, back));
}

TEST(BlifWriter, RoundTripSequential) {
  BenchSpec spec;
  spec.name = "rtseq";
  spec.num_pis = 5;
  spec.num_pos = 3;
  spec.num_latches = 4;
  spec.gate_target = 40;
  spec.seed = 18;
  const Network net = generate_benchmark(spec);
  const Network back = blif::read_string(blif::write_string(net));
  EXPECT_EQ(back.num_latches(), net.num_latches());
  for (std::size_t i = 0; i < net.num_latches(); ++i)
    EXPECT_EQ(back.latches()[i].init, net.latches()[i].init);
  EXPECT_TRUE(random_equivalent(net, back));
}

TEST(BlifWriter, RoundTripXorAndConstants) {
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  net.add_po("x", net.add_gate(NodeKind::kXor, {a, b, c}));
  net.add_po("k1", Network::const1());
  net.add_po("k0", Network::const0());
  const Network back = blif::read_string(blif::write_string(net));
  EXPECT_TRUE(random_equivalent(net, back));
}

/// Models named the way ABC names internal signals, n<k>: the k of a named
/// signal is often the id of a gate the reader leaves unnamed.
std::vector<std::string> abc_named_models() {
  return {
      // Covers with complemented literals: the reader's unnamed NOTs take
      // ids that named gates carry as names (n7).
      ".model abc1\n.inputs a b c d\n.outputs f\n"
      ".names a b n5\n11 1\n.names c d n6\n00 1\n"
      ".names n5 n6 n7\n1- 1\n-1 1\n.names n7 d f\n10 1\n.end\n",
      // Inputs named n6..n9 and an output named n10 driven by an input.
      ".model abc2\n.inputs n6 n7 n8 n9\n.outputs f n10\n"
      ".names n6 n7 t\n01 1\n.names t n8 n9 f\n1-0 1\n-10 1\n"
      ".names n9 n10\n1 1\n.end\n",
      // An off-set cover and a latch whose state is named n<k>.
      ".model abc3\n.inputs a b c d\n.outputs f n12\n.latch n11 n12 1\n"
      ".names a b n9\n11 0\n.names n9 c n10\n10 1\n01 1\n"
      ".names n10 n12 d n11\n1-1 1\n-1- 1\n.names n11 a f\n0- 1\n-0 1\n"
      ".end\n",
  };
}

TEST(BlifWriter, GeneratedNamesSkipNamesTheNetworkHolds) {
  // A node without a name is written as n<id>; when another node or output
  // already holds that name, the reader would see one signal defined twice.
  for (const std::string& text : abc_named_models()) {
    const Network net = blif::read_string(text);
    const Network back = blif::read_string(blif::write_string(net));
    EXPECT_TRUE(random_equivalent(net, back)) << text;
  }
  // Where n<id> is free, it stays the name.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  net.add_po("f", net.add_not(net.add_and(a, b)));
  const std::string text = blif::write_string(net);
  EXPECT_NE(text.find(".names a b n4\n11 1\n.names n4 n5\n0 1\n"),
            std::string::npos)
      << text;
}

TEST(BlifWriter, SynthesizedNetworksRoundTripStructurally) {
  // The fabric ships a job's synthesized network as BLIF: the reader's
  // network, compacted, must be that network node for node.
  std::vector<Network> inputs;
  for (const BenchSpec& spec : paper_suite())
    inputs.push_back(*paper_network(spec.name));
  for (const std::size_t latches : {0u, 4u}) {
    for (const std::uint64_t seed : {47u, 48u}) {
      BenchSpec spec;
      spec.name = 'g' + std::to_string(seed);
      spec.num_pis = 9;
      spec.num_pos = 8;
      spec.num_latches = latches;
      spec.gate_target = 120;
      spec.seed = seed;
      inputs.push_back(generate_benchmark(spec));
    }
  }
  {
    // Outputs on both constants, on one input twice, on one gate twice, on
    // a NOT.
    Network net;
    net.set_name("corners");
    const NodeId a = net.add_pi("a");
    const NodeId b = net.add_pi("b");
    const NodeId c = net.add_pi("c");
    const NodeId g = net.add_or(net.add_and(a, b), c);
    net.add_po("k0", Network::const0());
    net.add_po("k1", Network::const1());
    net.add_po("a1", a);
    net.add_po("a2", a);
    net.add_po("g1", g);
    net.add_po("g2", g);
    net.add_po("nb", net.add_not(b));
    inputs.push_back(std::move(net));
  }
  {
    // Outputs on latch outputs; kOne and kDontCare latches.
    Network net;
    net.set_name("latched");
    const NodeId a = net.add_pi("a");
    const NodeId q = net.add_latch("q", LatchInit::kOne);
    const NodeId r = net.add_latch("r", LatchInit::kDontCare);
    net.set_latch_input(q, net.add_and(a, r));
    net.set_latch_input(r, net.add_or(net.add_not(q), a));
    net.add_po("q", q);
    net.add_po("r_out", r);
    inputs.push_back(std::move(net));
  }
  // A sum-of-products model.
  inputs.push_back(blif::read_string(
      ".model sop\n.inputs a b c d\n.outputs f g\n"
      ".names a b c d f\n1-0- 1\n-11- 1\n0--1 1\n"
      ".names a c d g\n11- 0\n--0 0\n.end\n"));
  for (const std::string& text : abc_named_models())
    inputs.push_back(blif::read_string(text));

  for (Network& input : inputs) {
    const std::string name = input.name();
    FlowSession session(std::move(input), FlowOptions{});
    const Network& synthesized = session.synthesized();
    const Network back =
        compact_copy(blif::read_string(blif::write_string(synthesized)));
    EXPECT_EQ(network_fingerprint(back), network_fingerprint(synthesized))
        << name;
    EXPECT_EQ(back.num_nodes(), synthesized.num_nodes()) << name;
  }
}

TEST(BlifFile, MissingFileThrows) {
  EXPECT_THROW((void)blif::read_file("/nonexistent/x.blif"), std::runtime_error);
}

// -- malformed-input corpus (docs/robustness.md) ------------------------------
// BLIF reaches the daemon from untrusted submit bodies, so the reader must
// reject hostile shapes with a typed ParseError (never OOM or UB).

TEST(BlifHardening, ParseErrorIsTypedAndCarriesLine) {
  try {
    (void)blif::read_string(".model x\n.inputs a\n.outputs f\n.nonsense\n");
    FAIL() << "expected blif::ParseError";
  } catch (const blif::ParseError& e) {
    EXPECT_EQ(e.line(), 4u);
    EXPECT_NE(std::string(e.what()).find("blif:4"), std::string::npos);
  }
}

TEST(BlifHardening, RejectsDuplicateModelDirective) {
  const std::string text =
      ".model one\n.inputs a\n.outputs f\n.names a f\n1 1\n"
      ".model two\n.end\n";
  try {
    (void)blif::read_string(text);
    FAIL() << "expected blif::ParseError";
  } catch (const blif::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate .model"),
              std::string::npos)
        << e.what();
  }
}

TEST(BlifHardening, RejectsInputRedefinedByNames) {
  // 'a' is both a declared input and a .names output — silently shadowing
  // one of them would change the function, so it must be an error.
  const std::string text =
      ".model m\n.inputs a b\n.outputs f\n"
      ".names b a\n1 1\n.names a b f\n11 1\n.end\n";
  EXPECT_THROW((void)blif::read_string(text), blif::ParseError);
}

TEST(BlifHardening, RejectsLatchOutputRedefinedByNames) {
  const std::string text =
      ".model m\n.inputs a\n.outputs q\n.latch a q 0\n"
      ".names a q\n1 1\n.end\n";
  EXPECT_THROW((void)blif::read_string(text), blif::ParseError);
}

TEST(BlifHardening, RejectsOverlongLogicalLine) {
  std::string text = ".model m\n.inputs a\n.outputs f\n.names a f # ";
  text.append(blif::kMaxLineLength + 16, 'x');
  text += "\n1 1\n.end\n";
  // The comment is stripped before the length check, so this form parses...
  EXPECT_NO_THROW((void)blif::read_string(text));
  // ...but real payload bytes beyond the limit are rejected — here one
  // giant signal name.
  std::string long_line = ".model m\n.inputs a\n.outputs f\n.names ";
  long_line.append(blif::kMaxLineLength + 16, 'a');
  long_line += " f\n.end\n";
  EXPECT_THROW((void)blif::read_string(long_line), blif::ParseError);
}

TEST(BlifHardening, RejectsTooManyNamesInputs) {
  std::string text = ".model m\n.inputs a\n.outputs f\n.names";
  for (std::size_t i = 0; i <= blif::kMaxLiteralsPerCube; ++i)
    text += " a";
  text += " f\n.end\n";
  EXPECT_THROW((void)blif::read_string(text), blif::ParseError);
}

TEST(BlifHardening, RejectsTooManyCubes) {
  std::string text = ".model m\n.inputs a b\n.outputs f\n.names a b f\n";
  for (std::size_t i = 0; i <= blif::kMaxCubesPerCover; ++i) text += "11 1\n";
  text += ".end\n";
  EXPECT_THROW((void)blif::read_string(text), blif::ParseError);
}

TEST(BlifHardening, RejectsNodeBudgetOverflow) {
  // .inputs lines alone can blow the declared-signal budget; the reader
  // charges the budget before elaboration allocates anything per-signal.
  // Chunked so no single line trips the line-length limit first.
  const std::size_t chunk = std::size_t{1} << 16;
  std::string text = ".model m\n";
  text.reserve(blif::kMaxNodes * 3);
  for (std::size_t declared = 0; declared <= blif::kMaxNodes;
       declared += chunk) {
    text += ".inputs";
    for (std::size_t i = 0; i < chunk; ++i) text += " i";
    text += '\n';
  }
  text += ".outputs f\n.end\n";
  EXPECT_THROW((void)blif::read_string(text), blif::ParseError);
}

TEST(BlifHardening, LimitsLeaveRealModelsUntouched) {
  // The paper corpus must be nowhere near any limit.
  const Network net = generate_benchmark(paper_spec("frg1"));
  const Network back = blif::read_string(blif::write_string(net));
  EXPECT_EQ(net.num_pos(), back.num_pos());
}

}  // namespace
}  // namespace dominosyn
