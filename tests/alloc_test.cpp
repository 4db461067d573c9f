// Allocation-regression tests for the pooled message hot path.
//
// The InstPool/arena work promises that a warmed-up session serializes and
// parses without growing the node pool (zero freelist misses) while staying
// byte-identical to the plain ObfuscatedProtocol calls. These tests pin both
// properties so a future change cannot silently reintroduce per-message
// heap churn or divergence; a global operator-new hook (as in
// bench_alloc_profile) counts the heap allocations of a warm session parse.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "ast/pool.hpp"
#include "core/protoobf.hpp"
#include "protocols/http.hpp"
#include "protocols/modbus.hpp"
#include "runtime/derive.hpp"
#include "runtime/emit.hpp"
#include "runtime/parse.hpp"
#include "runtime/workspace.hpp"
#include "session/session.hpp"

// --- operator-new hook ------------------------------------------------------
// Every replaced new allocates with malloc and every delete frees with
// free, so the pairs match; GCC cannot see that through the replacement.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace protoobf {
namespace {

ObfuscationConfig config_of(std::uint64_t seed, int per_node) {
  ObfuscationConfig cfg;
  cfg.seed = seed;
  cfg.per_node = per_node;
  return cfg;
}

std::uint64_t msg_seed_of(std::size_t i) { return 0xa110c + 31ull * i; }

// --- InstPool mechanics -----------------------------------------------------

TEST(InstPool, RecyclesNodesAndValueCapacity) {
  InstPool pool;
  Bytes payload(100, 0xab);
  const Inst* first_node = nullptr;
  {
    InstPtr t = ast::terminal(&pool, 7, BytesView(payload));
    first_node = t.get();
    EXPECT_EQ(pool.stats().live, 1u);
    EXPECT_EQ(pool.stats().misses, 1u);
  }
  EXPECT_EQ(pool.stats().live, 0u);

  // The freed node comes back LIFO with its payload capacity intact.
  InstPtr again = ast::make(&pool, 9);
  EXPECT_EQ(again.get(), first_node);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_TRUE(again->value.empty());
  EXPECT_GE(again->value.capacity(), 100u);
  EXPECT_EQ(again->schema, 9u);
}

TEST(InstPool, ReleasesWholeTreesRecursively) {
  InstPool pool;
  {
    InstPtr root = ast::make(&pool, 0);
    for (int i = 1; i <= 3; ++i) {
      InstPtr child = ast::make(&pool, static_cast<NodeId>(i));
      child->children.push_back(
          ast::terminal(&pool, static_cast<NodeId>(10 + i), BytesView()));
      root->children.push_back(std::move(child));
    }
    EXPECT_EQ(pool.stats().live, 7u);
  }
  EXPECT_EQ(pool.stats().live, 0u);
}

TEST(InstPool, MixedHeapAndPoolTreesDestroySafely) {
  InstPool pool;
  InstPtr root = ast::make(nullptr, 0);  // heap root
  root->children.push_back(ast::make(&pool, 1));
  root->children[0]->children.push_back(ast::terminal(nullptr, 2, BytesView()));
  EXPECT_EQ(pool.stats().live, 1u);
  root.reset();
  EXPECT_EQ(pool.stats().live, 0u);
}

TEST(InstPool, TreesOutliveTheirPool) {
  // A pool root, a heap child and a pool grandchild outlive their pool: its
  // store stays while they are live, and the last pool node to return
  // frees it. Under LeakSanitizer a store that stayed behind is a leak; a
  // freed one read through the survivors is a use-after-free.
  const Bytes payload(100, 0xcd);
  InstPtr survivor;
  {
    InstPool pool;
    survivor = ast::make(&pool, 0);
    survivor->children.push_back(ast::make(nullptr, 1));
    survivor->children[0]->children.push_back(
        ast::terminal(&pool, 2, BytesView(payload)));
    EXPECT_EQ(pool.stats().live, 2u);
  }
  EXPECT_EQ(survivor->children[0]->children[0]->value, payload);
  survivor.reset();  // the grandchild returns first, then the root
}

// --- steady-state allocation behaviour --------------------------------------

class AllocSteadyState : public ::testing::TestWithParam<bool> {};

TEST_P(AllocSteadyState, WarmSessionHasZeroPoolMisses) {
  const bool http = GetParam();
  const Graph g1 =
      Framework::load_spec(http ? http::request_spec() : modbus::request_spec())
          .value();
  auto entry = std::make_shared<const ObfuscatedProtocol>(
      Framework::generate(g1, config_of(11, 2)).value());
  const ObfuscatedProtocol& protocol = *entry;

  Rng rng(42);
  const Graph& g = protocol.original();
  std::vector<Message> msgs;
  std::vector<Bytes> wires;
  for (std::size_t i = 0; i < 16; ++i) {
    msgs.push_back(http ? http::random_request(g, rng)
                        : modbus::random_request(g, rng));
    auto wire = protocol.serialize(msgs.back().root(), msg_seed_of(i));
    ASSERT_TRUE(wire.ok()) << wire.error().message;
    wires.push_back(std::move(*wire));
  }

  Session session(entry);

  // Warm-up: grow the pool and every recycled buffer to steady state.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      ASSERT_TRUE(session.serialize(msgs[i].root(), msg_seed_of(i)).ok());
      ASSERT_TRUE(session.parse(wires[i]).ok());
    }
  }

  const InstPool::Stats warm = session.arena().workspace().nodes.stats();
  EXPECT_EQ(warm.live, 0u);

  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      ASSERT_TRUE(session.serialize(msgs[i].root(), msg_seed_of(i)).ok());
      ASSERT_TRUE(session.parse(wires[i]).ok());
    }
  }

  const InstPool::Stats steady = session.arena().workspace().nodes.stats();
  EXPECT_EQ(steady.misses, warm.misses)
      << "steady-state session traffic grew the node pool";
  EXPECT_EQ(steady.slabs, warm.slabs);
  EXPECT_GT(steady.hits, warm.hits);
  EXPECT_EQ(steady.live, 0u);
}

TEST_P(AllocSteadyState, PooledPathsStayByteIdentical) {
  const bool http = GetParam();
  const Graph g1 =
      Framework::load_spec(http ? http::request_spec() : modbus::request_spec())
          .value();
  auto entry = std::make_shared<const ObfuscatedProtocol>(
      Framework::generate(g1, config_of(23, 3)).value());
  const ObfuscatedProtocol& protocol = *entry;

  Rng rng(7);
  const Graph& g = protocol.original();
  Session session(entry);

  for (std::size_t i = 0; i < 24; ++i) {
    Message msg = http ? http::random_request(g, rng)
                       : modbus::random_request(g, rng);
    auto plain = protocol.serialize(msg.root(), msg_seed_of(i));
    auto pooled = session.serialize(msg.root(), msg_seed_of(i));
    ASSERT_TRUE(plain.ok()) << plain.error().message;
    ASSERT_TRUE(pooled.ok()) << pooled.error().message;
    ASSERT_EQ(plain->size(), pooled->size());
    EXPECT_TRUE(std::equal(plain->begin(), plain->end(), pooled->begin()))
        << "message " << i << " diverged between plain and pooled serialize";

    auto plain_tree = protocol.parse(*plain);
    auto pooled_tree = session.parse(*pooled);
    ASSERT_TRUE(plain_tree.ok()) << plain_tree.error().message;
    ASSERT_TRUE(pooled_tree.ok()) << pooled_tree.error().message;
    EXPECT_TRUE(ast::equal(**plain_tree, **pooled_tree));
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, AllocSteadyState, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Http" : "Modbus";
                         });

class SessionParseAllocs : public ::testing::TestWithParam<int> {};

TEST_P(SessionParseAllocs, WarmParseAllocatesLessThanOncePerMessage) {
  // bench_alloc_profile's parse/session row: HTTP at seed 2018, 128
  // messages, two warm-up rounds, two counted rounds. References resolve
  // along routes from ancestors on the stack, so a warm parse keeps no
  // per-message registry that could allocate.
  const int per_node = GetParam();
  const Graph g1 = Framework::load_spec(http::request_spec()).value();
  auto entry = std::make_shared<const ObfuscatedProtocol>(
      Framework::generate(g1, config_of(2018, per_node)).value());
  Rng rng(7);
  std::vector<Bytes> wires;
  for (std::size_t i = 0; i < 128; ++i) {
    Message msg = http::random_request(entry->original(), rng);
    auto wire = entry->serialize(msg.root(), msg_seed_of(i));
    ASSERT_TRUE(wire.ok()) << wire.error().message;
    wires.push_back(std::move(*wire));
  }

  Session session(entry);
  const auto parse_all = [&] {
    for (const Bytes& wire : wires) {
      auto tree = session.parse(wire);
      ASSERT_TRUE(tree.ok()) << tree.error().message;
    }
  };
  for (int round = 0; round < 2; ++round) parse_all();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 2; ++round) parse_all();
  const double per_msg =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - before) /
      static_cast<double>(2 * wires.size());
  EXPECT_LT(per_msg, 1.0) << "per_node " << per_node;
}

INSTANTIATE_TEST_SUITE_P(Http, SessionParseAllocs, ::testing::Values(2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Pn" + std::to_string(info.param);
                         });

class SessionModbusAllocs : public ::testing::TestWithParam<int> {};

TEST_P(SessionModbusAllocs, WarmSerializeAndParseAllocateAlmostNever) {
  // Modbus at seed 2018, 128 messages, four warm-up rounds, then two
  // counted rounds of serialize and of parse, counted apart. The G1 walk
  // copies into pool nodes and keeps its pairs and condition records in the
  // arena's derive scratch, so neither direction allocates once warm; an
  // allocation per message anywhere on either path reads 1.0 or more. The
  // warm-up is four rounds, not two, because recycled pool nodes grow their
  // payload capacity over several rounds: per_node 2 serialize allocates 9,
  // 6, 3 and then 0 times in rounds 3 to 6.
  const int per_node = GetParam();
  const Graph g1 = Framework::load_spec(modbus::request_spec()).value();
  auto entry = std::make_shared<const ObfuscatedProtocol>(
      Framework::generate(g1, config_of(2018, per_node)).value());
  Rng rng(7);
  std::vector<Message> msgs;
  std::vector<Bytes> wires;
  for (std::size_t i = 0; i < 128; ++i) {
    msgs.push_back(modbus::random_request(entry->original(), rng));
    auto wire = entry->serialize(msgs.back().root(), msg_seed_of(i));
    ASSERT_TRUE(wire.ok()) << wire.error().message;
    wires.push_back(std::move(*wire));
  }

  Session session(entry);
  const auto serialize_all = [&] {
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      auto wire = session.serialize(msgs[i].root(), msg_seed_of(i));
      ASSERT_TRUE(wire.ok()) << wire.error().message;
    }
  };
  const auto parse_all = [&] {
    for (const Bytes& wire : wires) {
      auto tree = session.parse(wire);
      ASSERT_TRUE(tree.ok()) << tree.error().message;
    }
  };
  for (int round = 0; round < 4; ++round) {
    serialize_all();
    parse_all();
  }
  const auto per_msg = [&](const auto& run) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int round = 0; round < 2; ++round) run();
    return static_cast<double>(g_allocs.load(std::memory_order_relaxed) -
                               before) /
           static_cast<double>(2 * msgs.size());
  };
  EXPECT_LT(per_msg(serialize_all), 0.05) << "per_node " << per_node;
  EXPECT_LT(per_msg(parse_all), 0.05) << "per_node " << per_node;
}

INSTANTIATE_TEST_SUITE_P(Modbus, SessionModbusAllocs, ::testing::Values(0, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Pn" + std::to_string(info.param);
                         });

// --- reference reads copy no node --------------------------------------------

class NoCopyReads : public ::testing::TestWithParam<bool> {};

TEST_P(NoCopyReads, ParseAndHolderChecksDrawOnlyTreeNodes) {
  // Reading a length, count or condition runs its read plan over the
  // parsed bytes, so parse_wire draws exactly one pool node per node of
  // the tree it returns; and fix_holders on a tree whose holders already
  // carry their values (a parsed wire tree) rebuilds nothing.
  const bool http = GetParam();
  const Graph g1 =
      Framework::load_spec(http ? http::request_spec() : modbus::request_spec())
          .value();
  const ObfuscatedProtocol protocol =
      Framework::generate(g1, config_of(2018, http ? 4 : 2)).value();

  Rng rng(2018);
  Workspace ws;
  const auto drawn = [&] {
    return ws.nodes.stats().hits + ws.nodes.stats().misses;
  };
  std::size_t tree_nodes = 0, parse_nodes = 0, fix_nodes = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    Message msg = http ? http::random_request(g1, rng)
                       : modbus::random_request(g1, rng);
    auto wire = protocol.serialize(msg.root(), msg_seed_of(i));
    ASSERT_TRUE(wire.ok()) << wire.error().message;

    const std::size_t before_parse = drawn();
    auto tree = parse_wire(protocol.wire_graph(), protocol.journal(),
                           protocol.holders(), *wire, ws);
    ASSERT_TRUE(tree.ok()) << tree.error().message;
    parse_nodes += drawn() - before_parse;
    tree_nodes += ast::count(**tree);

    const std::size_t before_fix = drawn();
    ASSERT_TRUE(fix_holders(protocol.wire_graph(), protocol.journal(),
                            protocol.holders(), **tree, msg_seed_of(i), ws)
                    .ok());
    fix_nodes += drawn() - before_fix;
  }
  EXPECT_EQ(parse_nodes, tree_nodes);
  EXPECT_EQ(fix_nodes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, NoCopyReads, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "HttpPn4" : "ModbusPn2";
                         });

// --- emitter ----------------------------------------------------------------

TEST(Emit, MirroredWireTreesRoundTrip) {
  // ReadFromEnd reverses whole regions, delimiters included. Force it on
  // every node and verify the serialize holder pass — which measures
  // mirrored regions of the wire tree by emitting them — still produces
  // parseable images.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto g = Framework::load_spec(http::request_spec());
    ASSERT_TRUE(g.ok());
    ObfuscationConfig cfg = config_of(seed, 4);
    cfg.enabled = {TransformKind::ReadFromEnd, TransformKind::SplitCat,
                   TransformKind::BoundaryChange};
    auto protocol = ObfuscatedProtocol::create(*g, cfg);
    ASSERT_TRUE(protocol.ok()) << protocol.error().message;

    Rng rng(seed);
    for (std::size_t i = 0; i < 4; ++i) {
      Message msg = http::random_request(protocol->original(), rng);
      auto wire = protocol->serialize(msg.root(), msg_seed_of(i));
      ASSERT_TRUE(wire.ok()) << wire.error().message;
      auto back = protocol->parse(*wire);
      ASSERT_TRUE(back.ok()) << back.error().message;
    }
  }
}

TEST(Emit, ReportsDelimiterContainment) {
  constexpr std::string_view kDelimSpec = R"spec(
protocol Delim

msg: seq end {
  body: terminal delimited("|")
  rest: terminal end
}
)spec";
  auto g = Framework::load_spec(kDelimSpec);
  ASSERT_TRUE(g.ok()) << g.error().message;

  Message msg(*g);
  ASSERT_TRUE(msg.set("body", to_bytes("ab|cd")).ok());
  ASSERT_TRUE(msg.set("rest", to_bytes("xy")).ok());

  auto bytes = emit(*g, msg.root());
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.error().message,
            "serialize 'msg.body': content contains its own delimiter");
}

}  // namespace
}  // namespace protoobf
