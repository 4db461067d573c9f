// Artifact persistence tests: save/load round trips and wire compatibility
// between a generating peer and a loading peer.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "protocols/http.hpp"
#include "protocols/modbus.hpp"
#include "runtime/persist.hpp"

namespace protoobf {
namespace {

TEST(Persist, ArtifactHeaderAndShape) {
  auto g = Framework::load_spec(modbus::request_spec()).value();
  ObfuscationConfig cfg;
  cfg.per_node = 1;
  cfg.seed = 8;
  auto protocol = Framework::generate(g, cfg).value();
  const std::string artifact = save_artifact(protocol);
  EXPECT_EQ(artifact.rfind("protoobf-artifact v1", 0), 0u);
  EXPECT_NE(artifact.find("protocol ModbusRequest"), std::string::npos);
  EXPECT_NE(artifact.find("graph original"), std::string::npos);
  EXPECT_NE(artifact.find("graph wire"), std::string::npos);
  EXPECT_NE(artifact.find("journal "), std::string::npos);
}

TEST(Persist, SaveLoadPreservesStructure) {
  auto g = Framework::load_spec(http::request_spec()).value();
  ObfuscationConfig cfg;
  cfg.per_node = 2;
  cfg.seed = 77;
  auto saved = Framework::generate(g, cfg).value();
  auto loaded = load_artifact(save_artifact(saved));
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded->journal().size(), saved.journal().size());
  EXPECT_EQ(loaded->wire_graph().size(), saved.wire_graph().size());
  EXPECT_EQ(loaded->original().size(), saved.original().size());
  EXPECT_EQ(loaded->stats().applied, saved.stats().applied);
}

class PersistInterop : public ::testing::TestWithParam<int> {};

TEST_P(PersistInterop, LoadedPeerDecodesGeneratedTraffic) {
  auto g = Framework::load_spec(modbus::request_spec()).value();
  ObfuscationConfig cfg;
  cfg.per_node = GetParam();
  cfg.seed = 3141;
  auto generator_peer = Framework::generate(g, cfg).value();
  auto loaded = load_artifact(save_artifact(generator_peer));
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;

  Rng rng(11);
  for (int i = 0; i < 10; ++i) {
    Message msg = modbus::random_request(g, rng);
    auto wire = generator_peer.serialize(msg.root(), 500u + i);
    ASSERT_TRUE(wire.ok());
    auto received = loaded->parse(*wire);
    ASSERT_TRUE(received.ok()) << received.error().message;

    // And the loaded peer produces byte-identical traffic for equal seeds.
    auto wire2 = loaded->serialize(msg.root(), 500u + i);
    ASSERT_TRUE(wire2.ok());
    EXPECT_EQ(to_hex(*wire), to_hex(*wire2));
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, PersistInterop, ::testing::Values(0, 1, 3));

TEST(Persist, RejectsGarbage) {
  EXPECT_FALSE(load_artifact("").ok());
  EXPECT_FALSE(load_artifact("not an artifact").ok());
  EXPECT_FALSE(load_artifact("protoobf-artifact v1\nbogus").ok());
}

TEST(Persist, RejectsTruncatedArtifact) {
  auto g = Framework::load_spec(modbus::request_spec()).value();
  ObfuscationConfig cfg;
  cfg.per_node = 1;
  auto protocol = Framework::generate(g, cfg).value();
  std::string artifact = save_artifact(protocol);
  artifact.resize(artifact.size() / 2);
  EXPECT_FALSE(load_artifact(artifact).ok());
}

TEST(Persist, RejectsTamperedGraph) {
  auto g = Framework::load_spec(modbus::request_spec()).value();
  ObfuscationConfig cfg;
  cfg.per_node = 1;
  cfg.seed = 6;
  auto protocol = Framework::generate(g, cfg).value();
  std::string artifact = save_artifact(protocol);
  // Flip a fixed size to zero: validation must catch the inconsistency.
  const auto pos = artifact.find(" 2 ");
  ASSERT_NE(pos, std::string::npos);
  artifact.replace(pos, 3, " 0 ");
  const auto result = load_artifact(artifact);
  // Either a parse error or a validation error, never a usable protocol.
  EXPECT_FALSE(result.ok());
}

/// The artifact of a small obfuscated protocol.
std::string small_artifact() {
  auto g = Framework::load_spec(modbus::request_spec()).value();
  ObfuscationConfig cfg;
  cfg.per_node = 1;
  cfg.seed = 8;
  return save_artifact(Framework::generate(g, cfg).value());
}

/// small_artifact() with field `index` of its first journal entry line
/// replaced by `value` (field 0 is "entry").
std::string with_first_entry_field(std::size_t index, const std::string& value) {
  std::string artifact = small_artifact();
  const std::size_t begin = artifact.find("\nentry ") + 1;
  const std::size_t end = artifact.find('\n', begin);
  std::istringstream in(artifact.substr(begin, end - begin));
  std::vector<std::string> fields;
  for (std::string field; in >> field;) fields.push_back(field);
  fields.at(index) = value;
  std::string line = fields[0];
  for (std::size_t i = 1; i < fields.size(); ++i) line += " " + fields[i];
  return artifact.replace(begin, end - begin, line);
}

// The journal is checked when it is compiled, so a tampered entry is an
// error from load_artifact instead of out-of-range indexing later.
TEST(Persist, RejectsUnknownTransformKind) {
  EXPECT_FALSE(load_artifact(with_first_entry_field(1, "99")).ok());
}

TEST(Persist, RejectsEntryTargetOutsideTheWireGraph) {
  EXPECT_FALSE(load_artifact(with_first_entry_field(2, "100000")).ok());
}

TEST(Persist, RejectsCreatedIdOutsideTheWireGraph) {
  EXPECT_FALSE(load_artifact(with_first_entry_field(5, "100000")).ok());
}

TEST(Persist, RejectsNonNumericJournalField) {
  const auto result = load_artifact(with_first_entry_field(11, "x1"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("malformed"), std::string::npos);
}

/// small_artifact() with field `index` of its first journal entry of
/// `kind` replaced by `value`; `entry` receives that entry's index.
std::string with_entry_field(TransformKind kind, std::size_t index,
                             const std::string& value, std::size_t& entry) {
  std::string artifact = small_artifact();
  const std::string prefix =
      "\nentry " + std::to_string(static_cast<int>(kind)) + " ";
  const std::size_t begin = artifact.find(prefix) + 1;
  EXPECT_NE(begin, 0u) << "no " << to_string(kind) << " entry";
  entry = 0;
  for (std::size_t at = artifact.find("\nentry "); at + 1 < begin;
       at = artifact.find("\nentry ", at + 1)) {
    ++entry;
  }
  const std::size_t end = artifact.find('\n', begin);
  std::istringstream in(artifact.substr(begin, end - begin));
  std::vector<std::string> fields;
  for (std::string field; in >> field;) fields.push_back(field);
  fields.at(index) = value;
  std::string line = fields[0];
  for (std::size_t i = 1; i < fields.size(); ++i) line += " " + fields[i];
  return artifact.replace(begin, end - begin, line);
}

// An index the entry's target cannot take used to load and then fail
// every serialize; resolving the op list rejects it at load, naming the
// entry.
TEST(Persist, RejectsChildMoveIndexOutOfRange) {
  std::size_t entry = 0;
  const auto result = load_artifact(
      with_entry_field(TransformKind::ChildMove, 14, "99", entry));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("artifact journal invalid: journal "
                                        "entry " +
                                        std::to_string(entry) + ": "),
            std::string::npos)
      << result.error().message;
}

TEST(Persist, RejectsPadInsertIndexOutOfRange) {
  std::size_t entry = 0;
  const auto result = load_artifact(
      with_entry_field(TransformKind::PadInsert, 12, "99", entry));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("artifact journal invalid: journal "
                                        "entry " +
                                        std::to_string(entry) + ": "),
            std::string::npos)
      << result.error().message;
}

// Two Const entries of one algebra on one target whose long keys have
// coprime lengths: the loader must not build one key of their lcm (about
// 4.3 GB here). Each key applies on its own, modulo its length, and the
// loaded protocol round-trips.
TEST(Persist, LoadsLongConstKeysOfCoprimeLengthsOnOneTarget) {
  std::string artifact = small_artifact();
  std::size_t begin = std::string::npos;
  for (const TransformKind kind : {TransformKind::ConstAdd,
                                   TransformKind::ConstSub,
                                   TransformKind::ConstXor}) {
    begin = std::min(begin, artifact.find("\nentry " +
                                          std::to_string(static_cast<int>(
                                              kind)) +
                                          " "));
  }
  ASSERT_NE(begin, std::string::npos) << "no Const entry";
  ++begin;
  const std::size_t end = artifact.find('\n', begin);
  std::istringstream in(artifact.substr(begin, end - begin));
  std::vector<std::string> fields;
  for (std::string field; in >> field;) fields.push_back(field);
  Rng keys(3);
  const auto with_key = [&](std::size_t size) {
    fields.at(10) = to_hex(keys.bytes(size));
    std::string line = fields[0];
    for (std::size_t i = 1; i < fields.size(); ++i) line += " " + fields[i];
    return line;
  };
  artifact.replace(begin, end - begin,
                   with_key(65521) + "\n" + with_key(65519));
  const std::size_t count_at = artifact.find("\njournal ") + 9;
  const std::size_t count_end = artifact.find('\n', count_at);
  const std::size_t count =
      std::stoul(artifact.substr(count_at, count_end - count_at));
  artifact.replace(count_at, count_end - count_at, std::to_string(count + 1));

  std::optional<Expected<ObfuscatedProtocol>> loaded;
  ASSERT_NO_THROW(loaded.emplace(load_artifact(artifact)));
  ASSERT_TRUE(loaded->ok()) << loaded->error().message;
  const ObfuscatedProtocol& protocol = loaded->value();
  EXPECT_EQ(protocol.journal().size(), count + 1);
  Rng rng(11);
  for (int i = 0; i < 5; ++i) {
    Message msg = modbus::random_request(protocol.original(), rng);
    ASSERT_TRUE(protocol.canonicalize(msg.root()).ok());
    auto wire = protocol.serialize(msg.root(), 900u + i);
    ASSERT_TRUE(wire.ok()) << wire.error().message;
    auto back = protocol.parse(*wire);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_TRUE(ast::equal(**back, msg.root()));
  }
}

// Node 0 belongs to the original graph: no entry may claim to create it.
TEST(Persist, RejectsCreatedIdClaimedTwice) {
  EXPECT_FALSE(load_artifact(with_first_entry_field(5, "0")).ok());
}

// Graph validation walks the graph from its root by id, so an id outside
// the arena must be rejected before that walk.
TEST(Persist, RejectsGraphRootOutsideTheArena) {
  std::string artifact = small_artifact();
  const std::size_t header = artifact.find("graph original ");
  ASSERT_NE(header, std::string::npos);
  const std::size_t end = artifact.find('\n', header);
  const std::size_t root = artifact.rfind(' ', end) + 1;  // last field
  artifact.replace(root, end - root, "100000");
  EXPECT_FALSE(load_artifact(artifact).ok());
}

std::string length_spec(int len_width) {
  return "protocol P\nm: seq end {\n  len: terminal fixed(" +
         std::to_string(len_width) +
         ")\n  body: terminal length(len)\n  rest: terminal end\n}\n";
}

// Serialize skips the forward pass and fix_holders only for the identity
// protocol: an empty journal over a wire graph equal to G1. An empty journal
// alone is not enough. This artifact's wire graph sizes `len` at 4 bytes
// where G1 says 2, so the wire holder must still be derived against the
// wire graph, as it always was.
TEST(Persist, EmptyJournalOverAnotherWireGraphIsNotTheIdentity) {
  Graph g1 = Framework::load_spec(length_spec(2)).value();
  auto protocol = ObfuscatedProtocol::from_parts(
      g1.clone(), Framework::load_spec(length_spec(4)).value(), {});
  ASSERT_TRUE(protocol.ok()) << protocol.error().message;
  EXPECT_FALSE(protocol->identity());

  Message msg(g1);
  ASSERT_TRUE(msg.set_text("body", "hello").ok());
  ASSERT_TRUE(msg.set_text("rest", "r").ok());
  auto wire = protocol->serialize(msg.root(), 1);
  ASSERT_TRUE(wire.ok()) << wire.error().message;
  EXPECT_EQ(to_hex(*wire), "0000000568656c6c6f72");

  auto back = protocol->parse(*wire);
  ASSERT_TRUE(back.ok()) << back.error().message;
  InstPtr canonical = ast::clone(msg.root());
  ASSERT_TRUE(protocol->canonicalize(*canonical).ok());
  EXPECT_TRUE(ast::equal(**back, *canonical));

  // The same parts with equal graphs are the identity, and so is every
  // per_node 0 compilation; an obfuscated one is not.
  auto same = ObfuscatedProtocol::from_parts(
      g1.clone(), Framework::load_spec(length_spec(2)).value(), {});
  ASSERT_TRUE(same.ok()) << same.error().message;
  EXPECT_TRUE(same->identity());
  for (const int per_node : {0, 2}) {
    ObfuscationConfig cfg;
    cfg.per_node = per_node;
    cfg.seed = 5;
    EXPECT_EQ(Framework::generate(g1, cfg).value().identity(), per_node == 0);
  }
}

}  // namespace
}  // namespace protoobf
