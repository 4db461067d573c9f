// Session subsystem tests: arena equivalence, error accounting and metric
// sampling.
//
// The session layer's contract is "same bytes, different plumbing": the
// arena-backed paths must be observably identical to the plain
// ObfuscatedProtocol calls. These tests pin that equivalence across
// protocols, obfuscation levels and seeds, including after a failed call.
#include <gtest/gtest.h>

#include <memory>

#include "core/protoobf.hpp"
#include "obs/families.hpp"
#include "protocols/http.hpp"
#include "protocols/modbus.hpp"
#include "session/session.hpp"

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

}  // namespace
}  // namespace protoobf
