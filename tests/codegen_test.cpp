// Code generator tests: emitted structure, metric behaviour (paper §VII-B)
// and standalone compilability of the generated unit.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "codegen/generator.hpp"
#include "core/protoobf.hpp"
#include "protocols/http.hpp"
#include "protocols/modbus.hpp"

namespace protoobf {
namespace {

ObfuscatedProtocol make(const std::string_view spec_text, int per_node,
                        std::uint64_t seed = 404) {
  auto g = Framework::load_spec(spec_text);
  EXPECT_TRUE(g.ok()) << g.error().message;
  ObfuscationConfig cfg;
  cfg.per_node = per_node;
  cfg.seed = seed;
  return Framework::generate(*g, cfg).value();
}

TEST(CallGraph, SizeAndDepth) {
  CallGraph cg;
  cg.add_call("a", "b");
  cg.add_call("b", "c");
  cg.add_call("a", "c");
  cg.add_function("orphan");
  EXPECT_EQ(cg.function_count(), 4u);
  EXPECT_EQ(cg.reachable_size("a"), 3u);
  EXPECT_EQ(cg.depth("a"), 3u);  // a -> b -> c
  EXPECT_EQ(cg.depth("c"), 1u);
  EXPECT_EQ(cg.reachable_size("missing"), 0u);
}

TEST(CallGraph, DuplicateEdgesCollapse) {
  CallGraph cg;
  cg.add_call("a", "b");
  cg.add_call("a", "b");
  EXPECT_EQ(cg.reachable_size("a"), 2u);
}

TEST(Codegen, PlainModbusStructure) {
  auto protocol = make(modbus::request_spec(), 0);
  const GeneratedCode code = generate_cpp(protocol);
  EXPECT_GT(code.metrics.lines, 500u);
  EXPECT_GT(code.metrics.structs, 40u);
  EXPECT_GT(code.metrics.callgraph_size, 30u);
  EXPECT_GE(code.metrics.callgraph_depth, 5u);
  // Entry points and stable accessors are present.
  EXPECT_NE(code.source.find("bool parse_message("), std::string::npos);
  EXPECT_NE(code.source.find("bool serialize_message("), std::string::npos);
  EXPECT_NE(code.source.find("set_transaction"), std::string::npos);
  EXPECT_NE(code.source.find("get_fn"), std::string::npos);
}

TEST(Codegen, MetricsGrowWithObfuscation) {
  for (std::string_view spec :
       {modbus::request_spec(), http::request_spec()}) {
    std::vector<CodeMetrics> levels;
    for (int per_node : {0, 1, 2, 3}) {
      auto protocol = make(spec, per_node);
      const CodeMetrics m = generate_cpp(protocol).metrics;
      if (!levels.empty()) {
        const CodeMetrics& previous = levels.back();
        EXPECT_GT(m.lines, previous.lines);
        EXPECT_GT(m.structs, previous.structs);
        EXPECT_GT(m.callgraph_size, previous.callgraph_size);
        EXPECT_GE(m.callgraph_depth, previous.callgraph_depth);
      }
      levels.push_back(m);
    }
    // The lines metric counts the generated library alone (§VII-B); two
    // transformations per node at least double it (seed 404: 2.7x for
    // Modbus, 3.3x for HTTP).
    EXPECT_GE(levels[2].lines, 2 * levels[0].lines)
        << "per_node 2: " << levels[2].lines
        << " lines, per_node 0: " << levels[0].lines;
  }
}

TEST(Codegen, TransformHelpersAppearInSource) {
  auto g = Framework::load_spec(modbus::request_spec()).value();
  ObfuscationConfig cfg;
  cfg.per_node = 1;
  cfg.seed = 12;
  cfg.enabled = {TransformKind::ConstXor, TransformKind::SplitAdd};
  auto protocol = Framework::generate(g, cfg).value();
  ASSERT_GT(protocol.stats().applied, 0u);
  const GeneratedCode code = generate_cpp(protocol);
  EXPECT_NE(code.source.find("_fwd"), std::string::npos);
  EXPECT_NE(code.source.find("_inv"), std::string::npos);
  EXPECT_NE(code.source.find("rnd_byte"), std::string::npos);
}

class CodegenCompiles : public ::testing::TestWithParam<int> {};

TEST_P(CodegenCompiles, GeneratedSourceIsValidCpp) {
  // The generated unit must stand alone; g++ -fsyntax-only proves it.
  for (std::string_view spec :
       {modbus::request_spec(), http::request_spec()}) {
    auto protocol = make(spec, GetParam());
    const GeneratedCode code = generate_cpp(protocol);
    const std::string path =
        ::testing::TempDir() + "/protoobf_gen_" +
        std::to_string(GetParam()) + "_" +
        std::to_string(code.metrics.lines) + ".cpp";
    {
      std::ofstream out(path);
      out << code.source;
    }
    const std::string cmd =
        "g++ -std=c++17 -fsyntax-only -w " + path + " 2>/dev/null";
    EXPECT_EQ(std::system(cmd.c_str()), 0)
        << "generated code does not compile: " << path;
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, CodegenCompiles, ::testing::Values(0, 1, 2));

TEST(CodegenExecution, PlainGeneratedLibraryRoundTripsRealWire) {
  // Compile the generated (non-obfuscated) Modbus library together with a
  // tiny driver and check it parses and re-serializes a real frame
  // byte-for-byte. (With transformations applied, the generated unit is a
  // structural rendition — the runtime engine is the reference; at o=0 the
  // generated code is fully functional.)
  auto g = Framework::load_spec(modbus::request_spec()).value();
  ObfuscationConfig cfg;
  cfg.per_node = 0;
  auto protocol = Framework::generate(g, cfg).value();
  const GeneratedCode code = generate_cpp(protocol);

  Message msg = modbus::make_read_holding(g, 0x0001, 0x11, 0x006b, 3);
  const Bytes wire = protocol.serialize(msg.root(), 1).value();

  const std::string dir = ::testing::TempDir();
  const std::string src = dir + "/protoobf_exec.cpp";
  const std::string bin = dir + "/protoobf_exec";
  {
    std::ofstream out(src);
    out << code.source;
    out << R"driver(
#include <cstdio>
int main(int argc, char** argv) {
  if (argc < 2) return 2;
  gen_ModbusRequest::bytes wire;
  for (const char* p = argv[1]; p[0] && p[1]; p += 2) {
    unsigned v = 0;
    std::sscanf(p, "%2x", &v);
    wire.push_back(static_cast<std::uint8_t>(v));
  }
  gen_ModbusRequest::message_t msg{};
  if (!gen_ModbusRequest::parse_message(wire.data(), wire.size(), msg)) {
    return 3;
  }
  gen_ModbusRequest::bytes out;
  if (!gen_ModbusRequest::serialize_message(msg, out)) return 4;
  for (std::uint8_t b : out) std::printf("%02x", b);
  std::printf("\n");
  return 0;
}
)driver";
  }
  ASSERT_EQ(std::system(("g++ -std=c++17 -w -O1 -o " + bin + " " + src +
                         " 2>/dev/null").c_str()),
            0);
  FILE* pipe = popen((bin + " " + to_hex(wire)).c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  char buffer[512] = {};
  ASSERT_NE(std::fgets(buffer, sizeof buffer, pipe), nullptr);
  EXPECT_EQ(pclose(pipe), 0);
  std::string echoed(buffer);
  while (!echoed.empty() && (echoed.back() == '\n' || echoed.back() == '\r')) {
    echoed.pop_back();
  }
  EXPECT_EQ(echoed, to_hex(wire));
  std::remove(src.c_str());
  std::remove(bin.c_str());
}

}  // namespace
}  // namespace protoobf
