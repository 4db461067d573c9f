// Session subsystem tests: arena equivalence, error accounting, metric
// sampling, tree lifetimes and workspace reuse across protocols.
//
// The session layer's contract is "same bytes, different plumbing": the
// arena-backed paths must be observably identical to the plain
// ObfuscatedProtocol calls. These tests pin that equivalence across
// protocols, obfuscation levels and seeds, including after a failed call.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <memory>
#include <sstream>

#include "core/protoobf.hpp"
#include "obs/families.hpp"
#include "protocols/http.hpp"
#include "protocols/modbus.hpp"
#include "session/session.hpp"

#ifndef PROTOOBF_SPECS_DIR
#define PROTOOBF_SPECS_DIR "specs"
#endif

namespace protoobf {
namespace {

constexpr std::string_view kSmallSpec = R"spec(
protocol Small

msg: seq end {
  len: terminal fixed(1)
  body: seq length(len) {
    tag: terminal fixed(1)
    data: terminal end
  }
}
)spec";

ObfuscationConfig config_of(std::uint64_t seed, int per_node) {
  ObfuscationConfig cfg;
  cfg.seed = seed;
  cfg.per_node = per_node;
  return cfg;
}

// --- Session equivalence ----------------------------------------------------

struct Workset {
  std::shared_ptr<const ObfuscatedProtocol> protocol;
  std::vector<Message> msgs;
};

Workset make_workset(std::string_view spec, int per_node, std::uint64_t seed,
                     bool http_msgs) {
  auto g = Framework::load_spec(spec).value();
  Workset w;
  w.protocol = std::make_shared<const ObfuscatedProtocol>(
      Framework::generate(g, config_of(seed, per_node)).value());
  Rng rng(seed * 31 + 1);
  for (int i = 0; i < 12; ++i) {
    w.msgs.push_back(http_msgs ? http::random_request(g, rng)
                               : modbus::random_request(g, rng));
  }
  return w;
}

class SessionEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(SessionEquivalence, ArenaMatchesPlainPaths) {
  const bool http_proto = std::get<0>(GetParam());
  const int per_node = std::get<1>(GetParam());
  Workset w = make_workset(
      http_proto ? http::request_spec() : modbus::request_spec(), per_node,
      /*seed=*/40 + per_node, http_proto);

  Session session(w.protocol);

  // Arena path: byte-identical to the unpooled path, and repeated use of
  // the same arena stays identical (no stale-state bleed).
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < w.msgs.size(); ++i) {
      const std::uint64_t msg_seed = 900 + i;
      auto plain = w.protocol->serialize(w.msgs[i].root(), msg_seed);
      auto pooled = session.serialize(w.msgs[i].root(), msg_seed);
      ASSERT_TRUE(plain.ok()) << plain.error().message;
      ASSERT_TRUE(pooled.ok()) << pooled.error().message;
      EXPECT_EQ(*plain, Bytes(pooled->begin(), pooled->end()));

      auto plain_tree = w.protocol->parse(*plain);
      auto pooled_tree = session.parse(*pooled);
      ASSERT_TRUE(plain_tree.ok()) << plain_tree.error().message;
      ASSERT_TRUE(pooled_tree.ok()) << pooled_tree.error().message;
      EXPECT_TRUE(ast::equal(**plain_tree, **pooled_tree));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, SessionEquivalence,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0, 1, 3)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
      return std::string(std::get<0>(info.param) ? "Http" : "Modbus") + "_o" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SessionErrors, FailuresAreCountedAndLeaveNoState) {
  // A failed serialize and a failed parse each count one error, and the
  // next calls on the same session still match the plain protocol calls.
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "metrics disabled by the environment";
  auto g = Framework::load_spec(kSmallSpec).value();
  auto protocol = std::make_shared<const ObfuscatedProtocol>(
      Framework::generate(g, config_of(3, 1)).value());

  Message good(g);
  good.set_uint("tag", 1);
  good.set("data", to_bytes("payload"));
  Message bad(g);
  bad.set_uint("tag", 2);
  bad.set("data", to_bytes("x"));
  // Corrupt the fixed(1) tag with a 3-byte value; ast::check rejects it.
  Inst* tag = ast::find_schema(bad.root(), g.find_by_name("tag").value());
  ASSERT_NE(tag, nullptr);
  tag->value = {0x01, 0x02, 0x03};

  obs::SessionMetrics& m = obs::SessionMetrics::get();
  const std::uint64_t serialize_errors_before = m.serialize_errors.value();
  const std::uint64_t parse_errors_before = m.parse_errors.value();
  Session session(protocol);
  EXPECT_FALSE(session.serialize(bad.root(), 2).ok());
  const Bytes garbage = {0xff, 0xff, 0xff};
  EXPECT_FALSE(session.parse(garbage).ok());
  EXPECT_EQ(m.serialize_errors.value() - serialize_errors_before, 1u);
  EXPECT_EQ(m.parse_errors.value() - parse_errors_before, 1u);

  auto plain = protocol->serialize(good.root(), 4);
  auto pooled = session.serialize(good.root(), 4);
  ASSERT_TRUE(plain.ok()) << plain.error().message;
  ASSERT_TRUE(pooled.ok()) << pooled.error().message;
  EXPECT_EQ(*plain, Bytes(pooled->begin(), pooled->end()));
  auto plain_tree = protocol->parse(*plain);
  auto pooled_tree = session.parse(*plain);
  ASSERT_TRUE(plain_tree.ok()) << plain_tree.error().message;
  ASSERT_TRUE(pooled_tree.ok()) << pooled_tree.error().message;
  EXPECT_TRUE(ast::equal(**plain_tree, **pooled_tree));
}

TEST(SessionArena, RetainsCapacityAcrossMessages) {
  auto g = Framework::load_spec(kSmallSpec).value();
  auto protocol = std::make_shared<const ObfuscatedProtocol>(
      Framework::generate(g, config_of(11, 2)).value());
  Message msg(g);
  msg.set_uint("tag", 9);
  msg.set("data", to_bytes("0123456789abcdef"));

  Session session(protocol);
  ASSERT_TRUE(session.serialize(msg.root(), 1).ok());
  auto first = session.serialize(msg.root(), 2);
  ASSERT_TRUE(first.ok());
  const Bytes kept(first->begin(), first->end());
  // Steady state: same message again reuses the buffer and reproduces the
  // same bytes.
  auto second = session.serialize(msg.root(), 2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(kept, Bytes(second->begin(), second->end()));
}

TEST(SessionMetrics, AlternatingOpsAreEachSampled) {
  // The echo path alternates parse and serialize strictly. Each op keeps
  // its own 1/kSampleEvery tick, so 128 calls of each record exactly two
  // samples per histogram whatever the ticks' starting values.
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "metrics disabled by the environment";
  auto g = Framework::load_spec(kSmallSpec).value();
  auto protocol = std::make_shared<const ObfuscatedProtocol>(
      Framework::generate(g, config_of(11, 2)).value());
  Message msg(g);
  msg.set_uint("tag", 9);
  msg.set("data", to_bytes("0123456789abcdef"));

  obs::SessionMetrics& m = obs::SessionMetrics::get();
  const std::uint64_t serialized_before = m.serialize_ns.count();
  const std::uint64_t parsed_before = m.parse_ns.count();
  constexpr std::uint32_t kCalls = 2 * obs::SessionMetrics::kSampleEvery;
  Session session(protocol);
  for (std::uint32_t i = 0; i < kCalls; ++i) {
    auto wire = session.serialize(msg.root(), i);
    ASSERT_TRUE(wire.ok()) << wire.error().message;
    const Bytes copy(wire->begin(), wire->end());
    ASSERT_TRUE(session.parse(copy).ok());
  }
  EXPECT_EQ(m.serialize_ns.count() - serialized_before, 2u);
  EXPECT_EQ(m.parse_ns.count() - parsed_before, 2u);
}

TEST(SessionArena, ParsedTreeOutlivesItsSession) {
  // The tree's nodes come from the session's pool. Dropped after the
  // session, the last of them frees the pool's storage: under
  // LeakSanitizer a store left behind is a leak, and reading a freed one
  // below is a use-after-free.
  auto g = Framework::load_spec(modbus::request_spec()).value();
  auto protocol = std::make_shared<const ObfuscatedProtocol>(
      Framework::generate(g, config_of(5, 2)).value());
  Rng rng(5);
  const Message msg = modbus::random_request(g, rng);
  const Bytes wire = protocol->serialize(msg.root(), 6).value();
  InstPtr tree;
  {
    Session session(protocol);
    auto parsed = session.parse(wire);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    tree = std::move(*parsed);
  }
  auto expected = protocol->parse(wire);
  ASSERT_TRUE(expected.ok()) << expected.error().message;
  EXPECT_TRUE(ast::equal(*tree, **expected));
  tree.reset();
}

// --- one workspace, many protocols -------------------------------------------

/// Both calls succeeded, or both failed with the same message, kind, offset
/// and need hint.
template <typename T>
void expect_same_outcome(const Expected<T>& kept, const Expected<T>& fresh,
                         const std::string& where) {
  ASSERT_EQ(kept.ok(), fresh.ok()) << where;
  if (kept.ok()) return;
  EXPECT_EQ(kept.error().message, fresh.error().message) << where;
  EXPECT_EQ(kept.error().kind, fresh.error().kind) << where;
  EXPECT_EQ(kept.error().offset, fresh.error().offset) << where;
  EXPECT_EQ(kept.error().need, fresh.error().need) << where;
}

TEST(Workspace, CarriesNothingBetweenCallsAcrossProtocols) {
  // One workspace alternates, message by message, between HTTP per_node 4,
  // Modbus per_node 2 and stream_demo per_node 2: serialize, parse, a
  // prefix parse of half the wire and a parse of a damaged wire each give
  // what the same call gives in a fresh workspace. The Modbus and
  // stream_demo seeds give stream-safe wire graphs, so their half wires
  // are Truncated; HTTP's root reads to the end of the input, so its
  // prefix parses fail Malformed.
  std::ifstream file(PROTOOBF_SPECS_DIR "/stream_demo.spec");
  ASSERT_TRUE(file) << PROTOOBF_SPECS_DIR "/stream_demo.spec";
  std::stringstream text;
  text << file.rdbuf();
  const std::string demo_spec = text.str();

  struct Lane {
    std::string name;
    ObfuscatedProtocol protocol;
    std::function<Message(const Graph&, Rng&)> make;
  };
  const auto compile = [](std::string_view spec, int per_node,
                          std::uint64_t seed) {
    return Framework::generate(Framework::load_spec(spec).value(),
                               config_of(seed, per_node))
        .value();
  };
  std::vector<Lane> lanes;
  lanes.push_back({"http pn4", compile(http::request_spec(), 4, 2018),
                   [](const Graph& g, Rng& rng) {
                     return http::random_request(g, rng);
                   }});
  lanes.push_back({"modbus pn2", compile(modbus::request_spec(), 2, 7),
                   [](const Graph& g, Rng& rng) {
                     return modbus::random_request(g, rng);
                   }});
  lanes.push_back({"stream_demo pn2", compile(demo_spec, 2, 2018),
                   [](const Graph& g, Rng& rng) {
                     Message msg(g);
                     msg.set("tag", Bytes{static_cast<Byte>(rng.below(256)),
                                          0x01});
                     msg.set("body", Bytes(rng.between(0, 40), 0x62));
                     return msg;
                   }});

  Workspace kept;
  Rng rng(29);
  std::size_t truncated = 0, malformed = 0;
  for (std::size_t i = 0; i < 36; ++i) {
    const Lane& l = lanes[i % lanes.size()];
    const std::string where = l.name + " message " + std::to_string(i);
    const Message msg = l.make(l.protocol.original(), rng);
    const std::uint64_t msg_seed = 0x77 + i;

    Bytes wire, fresh_wire;
    Workspace fresh_ser;
    const Status ser =
        l.protocol.serialize_into(msg.root(), msg_seed, wire, kept);
    const Status fresh_s =
        l.protocol.serialize_into(msg.root(), msg_seed, fresh_wire, fresh_ser);
    ASSERT_TRUE(ser.ok()) << where << ": " << ser.error().message;
    ASSERT_TRUE(fresh_s.ok()) << where << ": " << fresh_s.error().message;
    EXPECT_EQ(wire, fresh_wire) << where;

    Workspace fresh_parse;
    auto tree = l.protocol.parse(wire, kept);
    auto fresh_tree = l.protocol.parse(wire, fresh_parse);
    ASSERT_TRUE(tree.ok()) << where << ": " << tree.error().message;
    ASSERT_TRUE(fresh_tree.ok()) << where;
    EXPECT_TRUE(ast::equal(**tree, **fresh_tree)) << where;

    Workspace fresh_prefix;
    const BytesView half = BytesView(wire).first(wire.size() / 2);
    std::size_t consumed = 0, fresh_consumed = 0;
    auto prefix = l.protocol.parse_prefix(half, consumed, kept);
    auto fresh_pre =
        l.protocol.parse_prefix(half, fresh_consumed, fresh_prefix);
    expect_same_outcome(prefix, fresh_pre, where + " (half wire)");
    if (prefix.ok()) {
      EXPECT_EQ(consumed, fresh_consumed) << where;
      EXPECT_TRUE(ast::equal(**prefix, **fresh_pre)) << where;
    } else if (prefix.error().truncated()) {
      ++truncated;
    }

    Workspace fresh_bad;
    Bytes damaged = wire;
    damaged[rng.below(damaged.size())] ^=
        static_cast<Byte>(1 + rng.below(255));
    damaged.push_back(0x5a);
    auto bad = l.protocol.parse(damaged, kept);
    auto fresh_b = l.protocol.parse(damaged, fresh_bad);
    expect_same_outcome(bad, fresh_b, where + " (damaged wire)");
    if (bad.ok()) {
      EXPECT_TRUE(ast::equal(**bad, **fresh_b)) << where;
    } else if (bad.error().kind == ErrorKind::Malformed) {
      ++malformed;
    }
  }
  EXPECT_GT(truncated, 0u) << "no truncated prefix parse was exercised";
  EXPECT_GT(malformed, 0u) << "no malformed wire was exercised";
}

}  // namespace
}  // namespace protoobf
