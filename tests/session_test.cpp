// Session subsystem tests: protocol cache semantics, arena equivalence,
// and batch/single-path agreement.
//
// The session layer's contract is "same bytes, different plumbing": every
// pooled or batched path must be observably identical to the plain
// ObfuscatedProtocol calls. These tests pin that equivalence across
// protocols, obfuscation levels and seeds, plus the cache's hit/miss/evict
// behaviour and the worker pool's coverage guarantees.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "obs/families.hpp"
#include "protocols/http.hpp"
#include "protocols/modbus.hpp"
#include "session/protocol_cache.hpp"
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

// --- ProtocolCache ----------------------------------------------------------

TEST(ProtocolCache, HitReturnsSameInstance) {
  ProtocolCache cache;
  auto first = cache.get_or_compile(kSmallSpec, config_of(1, 2));
  auto second = cache.get_or_compile(kSmallSpec, config_of(1, 2));
  ASSERT_TRUE(first.ok()) << first.error().message;
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(ProtocolCache, DistinctConfigsAreDistinctEntries) {
  ProtocolCache cache;
  auto a = cache.get_or_compile(kSmallSpec, config_of(1, 2));
  auto b = cache.get_or_compile(kSmallSpec, config_of(2, 2));   // new seed
  auto c = cache.get_or_compile(kSmallSpec, config_of(1, 3));   // new level
  ObfuscationConfig restricted = config_of(1, 2);
  restricted.enabled = {TransformKind::ConstXor};
  auto d = cache.get_or_compile(kSmallSpec, restricted);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  EXPECT_NE(a->get(), b->get());
  EXPECT_NE(a->get(), c->get());
  EXPECT_NE(a->get(), d->get());
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ProtocolCache, DistinctSpecsAreDistinctEntries) {
  ProtocolCache cache;
  auto a = cache.get_or_compile(modbus::request_spec(), config_of(5, 1));
  auto b = cache.get_or_compile(modbus::response_spec(), config_of(5, 1));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->get(), b->get());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ProtocolCache, EvictsLeastRecentlyUsed) {
  ProtocolCache cache(/*capacity=*/2);
  auto a = cache.get_or_compile(kSmallSpec, config_of(1, 1));
  auto b = cache.get_or_compile(kSmallSpec, config_of(2, 1));
  // Touch `a` so `b` is the LRU entry, then insert a third.
  (void)cache.get_or_compile(kSmallSpec, config_of(1, 1));
  auto c = cache.get_or_compile(kSmallSpec, config_of(3, 1));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);

  // `a` stays a hit; evicted `b` recompiles (a fresh miss, new instance)
  // while the handed-out shared_ptr keeps the old instance alive.
  const auto before = cache.stats();
  auto a2 = cache.get_or_compile(kSmallSpec, config_of(1, 1));
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  EXPECT_EQ(a->get(), a2->get());
  auto b2 = cache.get_or_compile(kSmallSpec, config_of(2, 1));
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
  EXPECT_NE(b->get(), b2->get());
  EXPECT_TRUE((*b)->serialize(Message((*b)->original()).root(), 1).ok() ||
              true);  // evicted instance still safely usable
}

TEST(ProtocolCache, CompileErrorIsReportedNotCached) {
  ProtocolCache cache;
  auto bad = cache.get_or_compile("protocol Broken {", config_of(1, 1));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(ProtocolCache, ConcurrentMissesOnOneKeyCompileOnce) {
  // A miss storm on one key must compile exactly once: the first thread in
  // becomes the leader, the rest either coalesce onto its in-flight compile
  // or (arriving after publication) hit the cache.
  ProtocolCache cache;
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<ProtocolCache::Entry> entries(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto entry = cache.get_or_compile(http::request_spec(), config_of(5, 2));
      ASSERT_TRUE(entry.ok()) << entry.error().message;
      entries[t] = *entry;
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(entries[0].get(), entries[t].get()) << "thread " << t;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced,
            static_cast<std::size_t>(kThreads - 1));
  EXPECT_EQ(stats.size, 1u);
}

TEST(ProtocolCache, CoalescedWaitersSeeCompileErrors) {
  ProtocolCache cache;
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto entry = cache.get_or_compile("protocol Broken {", config_of(1, 1));
      if (!entry.ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), kThreads);
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(ProtocolCache, GraphOverloadSharesEntriesViaHash) {
  ProtocolCache cache;
  auto g = Framework::load_spec(kSmallSpec).value();
  const std::uint64_t h = ProtocolCache::hash_graph(g);
  auto a = cache.get_or_compile(g, h, config_of(9, 2));
  auto b = cache.get_or_compile(g, h, config_of(9, 2));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->get(), b->get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

// --- WorkerPool -------------------------------------------------------------

TEST(WorkerPool, CoversEveryIndexExactlyOnce) {
  WorkerPool pool(/*threads=*/3);
  EXPECT_EQ(pool.width(), 4u);
  std::vector<std::atomic<int>> seen(101);
  pool.parallel_for(101, [&](std::size_t, std::size_t begin,
                             std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) seen[i].fetch_add(1);
  });
  for (const auto& count : seen) EXPECT_EQ(count.load(), 1);
}

TEST(WorkerPool, ShardIdsAreDenseAndDistinct) {
  WorkerPool pool(/*threads=*/2);
  std::mutex mu;
  std::set<std::size_t> shards;
  pool.parallel_for(30, [&](std::size_t shard, std::size_t, std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    shards.insert(shard);
  });
  for (const std::size_t shard : shards) EXPECT_LT(shard, pool.width());
}

TEST(WorkerPool, ConcurrentCallsWaitOnlyOnTheirOwnShards) {
  // Regression for the global in-flight counter: caller B's wait must not
  // be entangled with caller A's shards. A's shards block until B finishes
  // its own parallel_for — with shared completion state that is a deadlock
  // (B waits for A's blocked shards, which wait for B). A watchdog turns a
  // regression into a failure instead of a hang.
  WorkerPool pool(/*threads=*/4);
  std::atomic<bool> release{false};
  std::atomic<bool> b_done{false};

  std::thread a([&] {
    pool.parallel_for(2, [&](std::size_t, std::size_t, std::size_t) {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  // Let A's shards occupy the pool before B starts.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::thread b([&] {
    std::atomic<int> covered{0};
    pool.parallel_for(2, [&](std::size_t, std::size_t begin,
                             std::size_t end) {
      covered += static_cast<int>(end - begin);
    });
    EXPECT_EQ(covered.load(), 2);
    b_done.store(true);
  });

  for (int i = 0; i < 500 && !b_done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(b_done.load())
      << "parallel_for waits are serialized across concurrent callers";
  release.store(true);
  a.join();
  b.join();
}

TEST(WorkerPool, TwoSessionsSharingAPoolBatchConcurrently) {
  // Two sessions over one pool running batches at the same time: results
  // must match the plain per-message paths, with no cross-talk between the
  // concurrent parallel_for waits.
  ProtocolCache cache;
  auto protocol =
      cache.get_or_compile(modbus::request_spec(), config_of(21, 2));
  ASSERT_TRUE(protocol.ok()) << protocol.error().message;
  auto g = Framework::load_spec(modbus::request_spec()).value();

  WorkerPool pool(/*threads=*/3);
  constexpr int kRounds = 8;
  constexpr std::size_t kBatch = 24;

  auto run_session = [&](std::uint64_t salt) {
    Rng rng(salt);
    std::vector<Message> msgs;
    for (std::size_t i = 0; i < kBatch; ++i) {
      msgs.push_back(modbus::random_request(g, rng));
    }
    std::vector<BatchItem> items;
    std::vector<Bytes> expected;
    for (std::size_t i = 0; i < kBatch; ++i) {
      items.push_back({&msgs[i].root(), salt + i});
      expected.push_back(
          (*protocol)->serialize(msgs[i].root(), salt + i).value());
    }
    Session session(*protocol, &pool);
    for (int round = 0; round < kRounds; ++round) {
      auto wires = session.serialize_batch(items);
      ASSERT_EQ(wires.size(), kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        ASSERT_TRUE(wires[i].ok()) << wires[i].error().message;
        EXPECT_EQ(*wires[i], expected[i]) << "item " << i;
      }
      std::vector<BytesView> views(expected.begin(), expected.end());
      auto trees = session.parse_batch(views);
      ASSERT_EQ(trees.size(), kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        ASSERT_TRUE(trees[i].ok()) << trees[i].error().message;
      }
    }
  };

  std::thread first([&] { run_session(1000); });
  std::thread second([&] { run_session(9000); });
  first.join();
  second.join();
}

TEST(WorkerPool, HandlesEmptyAndTinyRanges) {
  WorkerPool pool(/*threads=*/2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t, std::size_t, std::size_t) {
    ++calls;
  });
  EXPECT_EQ(calls, 0);
  std::atomic<int> covered{0};
  pool.parallel_for(1, [&](std::size_t, std::size_t begin, std::size_t end) {
    covered += static_cast<int>(end - begin);
  });
  EXPECT_EQ(covered.load(), 1);
}

// --- Session equivalence ----------------------------------------------------

struct Workset {
  std::shared_ptr<const ObfuscatedProtocol> protocol;
  std::vector<Message> msgs;
};

Workset make_workset(std::string_view spec, int per_node, std::uint64_t seed,
                     bool http_msgs) {
  ProtocolCache cache;
  auto protocol = cache.get_or_compile(spec, config_of(seed, per_node));
  EXPECT_TRUE(protocol.ok()) << protocol.error().message;
  Workset w;
  w.protocol = *protocol;
  auto g = Framework::load_spec(spec).value();
  Rng rng(seed * 31 + 1);
  for (int i = 0; i < 12; ++i) {
    w.msgs.push_back(http_msgs ? http::random_request(g, rng)
                               : modbus::random_request(g, rng));
  }
  return w;
}

class SessionEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(SessionEquivalence, ArenaAndBatchMatchPlainPaths) {
  const bool http_proto = std::get<0>(GetParam());
  const int per_node = std::get<1>(GetParam());
  Workset w = make_workset(
      http_proto ? http::request_spec() : modbus::request_spec(), per_node,
      /*seed=*/40 + per_node, http_proto);

  WorkerPool pool(/*threads=*/2);
  Session session(w.protocol, &pool);

  // Arena single-message path: byte-identical to the unpooled path, and
  // repeated use of the same arena stays identical (no stale-state bleed).
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

  // Batched paths agree item-for-item with the per-message calls.
  std::vector<BatchItem> items;
  std::vector<Bytes> plain_wires;
  for (std::size_t i = 0; i < w.msgs.size(); ++i) {
    items.push_back({&w.msgs[i].root(), 7000 + i});
    plain_wires.push_back(
        w.protocol->serialize(w.msgs[i].root(), 7000 + i).value());
  }
  auto batched = session.serialize_batch(items);
  ASSERT_EQ(batched.size(), items.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ASSERT_TRUE(batched[i].ok()) << batched[i].error().message;
    EXPECT_EQ(*batched[i], plain_wires[i]) << "item " << i;
  }

  std::vector<BytesView> views(plain_wires.begin(), plain_wires.end());
  auto trees = session.parse_batch(views);
  ASSERT_EQ(trees.size(), views.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    ASSERT_TRUE(trees[i].ok()) << trees[i].error().message;
    auto plain_tree = w.protocol->parse(plain_wires[i]);
    ASSERT_TRUE(plain_tree.ok());
    EXPECT_TRUE(ast::equal(**trees[i], **plain_tree)) << "item " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, SessionEquivalence,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0, 1, 3)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
      return std::string(std::get<0>(info.param) ? "Http" : "Modbus") + "_o" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SessionBatch, ErrorItemsAreIsolated) {
  ProtocolCache cache;
  auto protocol = cache.get_or_compile(kSmallSpec, config_of(3, 1));
  ASSERT_TRUE(protocol.ok()) << protocol.error().message;
  auto g = Framework::load_spec(kSmallSpec).value();

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

  Session session(*protocol);
  std::vector<BatchItem> items = {{&good.root(), 1},
                                  {&bad.root(), 2},
                                  {nullptr, 3},
                                  {&good.root(), 4}};
  auto results = session.serialize_batch(items);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_FALSE(results[2].ok());
  ASSERT_TRUE(results[3].ok());
  EXPECT_EQ(*results[3],
            *(*protocol)->serialize(good.root(), 4));

  // A garbage wire image among valid ones fails alone too.
  const Bytes garbage = {0xff, 0xff, 0xff};
  std::vector<BytesView> views = {BytesView(*results[0]),
                                  BytesView(garbage),
                                  BytesView(*results[3])};
  auto trees = session.parse_batch(views);
  ASSERT_EQ(trees.size(), 3u);
  EXPECT_TRUE(trees[0].ok());
  EXPECT_FALSE(trees[1].ok());
  EXPECT_TRUE(trees[2].ok());
}

TEST(SessionArena, RetainsCapacityAcrossMessages) {
  ProtocolCache cache;
  auto protocol = cache.get_or_compile(kSmallSpec, config_of(11, 2));
  ASSERT_TRUE(protocol.ok()) << protocol.error().message;
  auto g = Framework::load_spec(kSmallSpec).value();
  Message msg(g);
  msg.set_uint("tag", 9);
  msg.set("data", to_bytes("0123456789abcdef"));

  Session session(*protocol);
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
  ProtocolCache cache;
  auto protocol = cache.get_or_compile(kSmallSpec, config_of(11, 2));
  ASSERT_TRUE(protocol.ok()) << protocol.error().message;
  auto g = Framework::load_spec(kSmallSpec).value();
  Message msg(g);
  msg.set_uint("tag", 9);
  msg.set("data", to_bytes("0123456789abcdef"));

  obs::SessionMetrics& m = obs::SessionMetrics::get();
  const std::uint64_t serialized_before = m.serialize_ns.count();
  const std::uint64_t parsed_before = m.parse_ns.count();
  constexpr std::uint32_t kCalls = 2 * obs::SessionMetrics::kSampleEvery;
  Session session(*protocol);
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
