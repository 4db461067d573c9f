// Connection-volume soak under a seeded fault schedule (ISSUE 8 headline).
//
// Many ReliableClients hammer one sharded echo server over loopback while a
// FaultInjector on both sides shortens reads, storms EAGAIN, refuses dials
// and kills connections mid-frame at scheduled byte offsets. The pinned
// properties:
//
//   * zero loss — every sequence number every client sent is seen by the
//     server (dedup'd server-side: at-least-once allows duplicates on the
//     wire, never holes);
//   * zero duplication through ReliableClient — each client confirms every
//     message exactly once (cumulative acks reach exactly SOAK_MSGS);
//   * a pure transport fault never surfaces as Malformed — not in any
//     server close, any client parse result, or any client give-up;
//   * memory returns to baseline — SessionArena::shrink on the survivors
//     releases everything, and a graceful drain leaves zero active
//     connections on the server;
//   * the whole schedule replays from one logged seed (SOAK_SEED).
//
// Scale is env-driven so CI stays cheap and a real soak stays possible.
// Budget ~2 fds per connection plus a few dozen of overhead: the full
// 10k-connection soak needs `ulimit -n` comfortably above 20k.
//   SOAK_CONNS   clients            (default 48;  CI 256;  full soak 10000)
//   SOAK_MSGS    messages/client    (default 16)
//   SOAK_SEED    fault-plan seed    (default 42; echoed to stdout)
//   SOAK_FAULTS  0 disables faults  (default on)
//   SOAK_TIMEOUT_MS completion wait (default scales with the load)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/protoobf.hpp"
#include "net/fault.hpp"
#include "net/reconnect.hpp"
#include "net/server.hpp"
#include "obs/families.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace protoobf {
namespace {

using namespace protoobf::net;

constexpr std::string_view kSpec = R"(
protocol SoakDemo
msg: seq end {
  tag: terminal fixed(2)
  blen: terminal fixed(2)
  body: terminal length(blen)
}
)";

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? std::strtoull(value, nullptr, 10)
                                            : fallback;
}

/// One soak message: tag carries the client id, the body leads with the
/// big-endian sequence number plus a size-varying filler tail.
Message soak_message(const Graph& g, std::uint16_t client, std::uint32_t seq) {
  Message msg(g);
  Bytes tag{static_cast<Byte>(client >> 8), static_cast<Byte>(client & 0xff)};
  Bytes body{static_cast<Byte>(seq >> 24), static_cast<Byte>(seq >> 16),
             static_cast<Byte>(seq >> 8), static_cast<Byte>(seq & 0xff)};
  body.resize(4 + seq % 13, static_cast<Byte>('x'));
  EXPECT_TRUE(msg.set("tag", std::move(tag)).ok());
  EXPECT_TRUE(msg.set("body", std::move(body)).ok());
  return msg;
}

std::uint16_t tag_of(const Graph& g, const Inst& root) {
  const Inst* tag = ast::find_path(g, root, "msg.tag");
  if (tag == nullptr || tag->value.size() != 2) return 0xffff;
  return static_cast<std::uint16_t>((tag->value[0] << 8) | tag->value[1]);
}

std::uint32_t seq_of(const Graph& g, const Inst& root) {
  const Inst* body = ast::find_path(g, root, "msg.body");
  if (body == nullptr || body->value.size() < 4) return 0;
  return (static_cast<std::uint32_t>(body->value[0]) << 24) |
         (static_cast<std::uint32_t>(body->value[1]) << 16) |
         (static_cast<std::uint32_t>(body->value[2]) << 8) |
         static_cast<std::uint32_t>(body->value[3]);
}

/// Per-client bookkeeping, written only from that client's loop thread;
/// atomics because the main thread polls for completion.
struct ClientState {
  std::unique_ptr<ReliableClient> client;
  std::atomic<std::uint64_t> acked{0};
  std::atomic<bool> gave_up{false};
  std::atomic<bool> saw_malformed{false};
};

TEST(Soak, FaultScheduleLosesNothing) {
  const auto conns = static_cast<std::size_t>(env_u64("SOAK_CONNS", 48));
  const auto msgs = static_cast<std::uint32_t>(env_u64("SOAK_MSGS", 16));
  const std::uint64_t seed = env_u64("SOAK_SEED", 42);
  const bool faults = env_u64("SOAK_FAULTS", 1) != 0;
  const auto timeout = std::chrono::milliseconds(
      env_u64("SOAK_TIMEOUT_MS", 30000 + 25 * conns * (faults ? 2 : 1)));
  // The reproduction recipe: a failing run is replayed by exporting this.
  std::printf("[soak] SOAK_CONNS=%zu SOAK_MSGS=%u SOAK_SEED=%llu\n", conns,
              msgs, static_cast<unsigned long long>(seed));

  // The metrics registry is process-global; zero it so the consistency
  // checks below count only this run's traffic.
  obs::MetricsRegistry::global().reset_values();

  auto g = Framework::load_spec(kSpec).value();
  ObfuscationConfig ocfg;
  ocfg.seed = 7;
  ocfg.per_node = 2;
  auto protocol = std::make_shared<const ObfuscatedProtocol>(
      Framework::generate(g, ocfg).value());

  // Two injectors (separate stats), one seed: kills scheduled on either
  // side of the wire, replayable together.
  FaultPlan plan;
  plan.seed = seed;
  if (faults) {
    plan.short_read = 0.2;
    plan.short_write = 0.2;
    plan.eagain = 0.1;
    plan.kill_rate = 0.4;
    plan.kill_window_bytes = 2048;
    plan.refuse_every = 5;
  }
  FaultInjector server_faults(plan);
  FaultPlan client_plan = plan;
  client_plan.seed = seed ^ 0x9e3779b97f4a7c15ull;
  FaultInjector client_faults(client_plan);

  // Server: sharded echo with dedup bookkeeping. seen[i] is the set of
  // sequence numbers client i has proven delivered; duplicates (resends
  // whose first copy did land) are counted, not failed — at-least-once
  // promises no holes, not no repeats. Every receipt is (re-)echoed so the
  // client can always make progress.
  std::mutex seen_mu;
  std::vector<std::set<std::uint32_t>> seen(conns);
  std::atomic<std::uint64_t> wire_duplicates{0};
  std::atomic<bool> server_saw_malformed{false};

  Server::Config scfg;
  scfg.shards = 4;
  scfg.max_connections = conns + 64;
  if (faults) scfg.connection.ops = &server_faults;
  scfg.connection.drain_timeout = std::chrono::milliseconds(2000);
  Server server(protocol, length_prefix_framer_factory(), scfg);
  server.on_accept([&](Connection& conn) {
    conn.on_message([&](Connection& c, Expected<InstPtr> msg) {
      if (!msg.ok()) {
        if (msg.error().kind == ErrorKind::Malformed) {
          server_saw_malformed.store(true);
        }
        return;
      }
      const std::uint16_t client = tag_of(g, **msg);
      const std::uint32_t seq = seq_of(g, **msg);
      if (client < conns && seq != 0) {
        std::lock_guard<std::mutex> lock(seen_mu);
        if (!seen[client].insert(seq).second) wire_duplicates.fetch_add(1);
      }
      (void)c.send(**msg, c.stats().messages_in);
    });
    conn.on_close([&](Connection&, const Error* err) {
      if (err != nullptr && err->kind == ErrorKind::Malformed) {
        server_saw_malformed.store(true);
      }
    });
  });
  ASSERT_TRUE(server.start().ok());
  const Endpoint ep{"127.0.0.1", server.port()};

  // Clients: spread across a few loops, each client sending its full
  // window up front — everything unacked rides through every reconnect.
  const std::size_t n_loops = conns < 4 ? conns : 4;
  std::vector<std::unique_ptr<EventLoop>> loops;
  for (std::size_t i = 0; i < n_loops; ++i) {
    loops.push_back(std::make_unique<EventLoop>());
  }
  std::vector<ClientState> clients(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    EventLoop& loop = *loops[i % n_loops];
    ReliableClient::Config ccfg;
    ccfg.endpoint = ep;
    ccfg.framer_factory = length_prefix_framer_factory();
    if (faults) ccfg.connection.ops = &client_faults;
    ccfg.backoff.initial = std::chrono::milliseconds(5);
    ccfg.backoff.cap = std::chrono::milliseconds(100);
    ccfg.max_unacked = msgs;
    ccfg.seed = seed + i;
    ClientState& state = clients[i];
    state.client = std::make_unique<ReliableClient>(loop, protocol, ccfg);
    state.client->on_message([&state, &g](Expected<InstPtr> msg) {
      if (!msg.ok()) {
        if (msg.error().kind == ErrorKind::Malformed) {
          state.saw_malformed.store(true);
        }
        return;
      }
      state.client->ack(seq_of(g, **msg));
      state.acked.store(state.client->stats().acked);
    });
    state.client->on_gave_up(
        [&state](const Error&) { state.gave_up.store(true); });
  }

  std::vector<std::thread> threads;
  for (auto& loop : loops) {
    threads.emplace_back([&loop] { loop->run(); });
  }
  for (std::size_t i = 0; i < conns; ++i) {
    ClientState& state = clients[i];
    EventLoop& loop = *loops[i % n_loops];
    const auto id = static_cast<std::uint16_t>(i);
    loop.post([&state, &g, proto = protocol, id, msgs] {
      state.client->start();
      for (std::uint32_t seq = 1; seq <= msgs; ++seq) {
        Message msg = soak_message(g, id, seq);
        ASSERT_TRUE(proto->canonicalize(msg.root()).ok());
        ASSERT_TRUE(state.client->send(msg.root()).ok());
      }
    });
  }

  // Completion: every client confirmed its whole window (or gave up, which
  // fails below with the seed printed above for replay).
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  auto done = [&] {
    for (const ClientState& state : clients) {
      if (state.gave_up.load()) return true;  // fail fast
      if (state.acked.load() < msgs) return false;
    }
    return true;
  };
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  for (std::size_t i = 0; i < conns; ++i) {
    EXPECT_FALSE(clients[i].gave_up.load()) << "client " << i << " gave up";
    EXPECT_EQ(clients[i].acked.load(), msgs) << "client " << i;
    EXPECT_FALSE(clients[i].saw_malformed.load()) << "client " << i;
  }

  // Zero loss server-side: each client's dedup'd set is exactly 1..msgs.
  {
    std::lock_guard<std::mutex> lock(seen_mu);
    for (std::size_t i = 0; i < conns; ++i) {
      ASSERT_EQ(seen[i].size(), msgs) << "client " << i << " lost messages";
      EXPECT_EQ(*seen[i].begin(), 1u);
      EXPECT_EQ(*seen[i].rbegin(), msgs);
    }
  }
  EXPECT_FALSE(server_saw_malformed.load())
      << "a transport fault surfaced as Malformed";

  // Memory back to baseline: shrink every survivor's arena on its loop
  // thread and observe zero retained bytes.
  std::atomic<std::size_t> retained{0};
  std::atomic<std::size_t> shrunk{0};
  for (std::size_t i = 0; i < conns; ++i) {
    EventLoop& loop = *loops[i % n_loops];
    ClientState& state = clients[i];
    loop.post([&state, &retained, &shrunk] {
      if (Connection* conn = state.client->connection()) {
        conn->session().arena().shrink();
        retained.fetch_add(conn->session().arena().retained());
      }
      state.client->stop();
      shrunk.fetch_add(1);
    });
  }
  const auto stop_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (shrunk.load() < conns &&
         std::chrono::steady_clock::now() < stop_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(shrunk.load(), conns);
  EXPECT_EQ(retained.load(), 0u) << "arenas held memory after shrink";

  // Graceful drain: listeners close, queues flush, nothing stays active.
  server.drain(std::chrono::milliseconds(5000));
  const Server::Stats sstats = server.stats();
  EXPECT_EQ(sstats.active, 0u);

  for (auto& loop : loops) loop->stop();
  for (auto& thread : threads) thread.join();
  // Clients destroyed here, after their loops stopped.
  clients.clear();

  // Metrics consistency (ISSUE 9): the registry's view of the run must
  // agree with the test's own ground-truth bookkeeping.
  //
  // Server-side parsed messages == receipts the handler saw: every client's
  // dedup'd window plus the wire duplicates. At-least-once means resends
  // can repeat on the wire, but the counter and the handler must agree
  // exactly — a gap either way is a lost or phantom message.
  EXPECT_EQ(obs::NetMetrics::sum(
                [](obs::NetMetrics& m) -> obs::Counter& {
                  return m.messages_in;
                },
                /*include_client=*/false),
            static_cast<std::uint64_t>(conns) * msgs +
                wire_duplicates.load());
  // Client-side confirmed sends: the acked counter is the sum of every
  // client's confirmed window.
  EXPECT_EQ(obs::ReconnectMetrics::get().acked.value(),
            static_cast<std::uint64_t>(conns) * msgs);
  EXPECT_EQ(obs::ReconnectMetrics::get().unacked.value(), 0);
  // Occupancy returns to zero once the drain finished and every client
  // connection was destroyed — leaks show up as a stuck gauge.
  EXPECT_EQ(
      obs::NetMetrics::sum(
          [](obs::NetMetrics& m) -> obs::Gauge& { return m.active; },
          /*include_client=*/true),
      0);
  // The close-taxonomy view of "no transport fault surfaces as Malformed".
  EXPECT_EQ(obs::NetMetrics::sum(
                [](obs::NetMetrics& m) -> obs::Counter& {
                  return m.close_malformed;
                },
                /*include_client=*/true),
            0u);

  if (faults) {
    const FaultInjector::Stats sf = server_faults.stats();
    const FaultInjector::Stats cf = client_faults.stats();
    // Injected-fault counters mirror the injectors one-for-one: both
    // injectors feed the same labeled registry family, so each kind must
    // equal the sum of the two tallies.
    const obs::FaultMetrics& fm = obs::FaultMetrics::get();
    EXPECT_EQ(fm.short_reads.value(), sf.short_reads + cf.short_reads);
    EXPECT_EQ(fm.short_writes.value(), sf.short_writes + cf.short_writes);
    EXPECT_EQ(fm.eagains.value(), sf.eagains + cf.eagains);
    EXPECT_EQ(fm.resets.value(), sf.resets + cf.resets);
    EXPECT_EQ(fm.epipes.value(), sf.epipes + cf.epipes);
    EXPECT_EQ(fm.fins.value(), sf.fins + cf.fins);
    EXPECT_EQ(fm.refused.value(), sf.refused + cf.refused);
    EXPECT_EQ(fm.connections.value(), sf.connections + cf.connections);
    std::printf(
        "[soak] faults: kills=%llu (server %llu / client %llu) "
        "short_r=%llu short_w=%llu eagain=%llu refused=%llu dup_wire=%llu\n",
        static_cast<unsigned long long>(server_faults.kills() +
                                        client_faults.kills()),
        static_cast<unsigned long long>(server_faults.kills()),
        static_cast<unsigned long long>(client_faults.kills()),
        static_cast<unsigned long long>(sf.short_reads + cf.short_reads),
        static_cast<unsigned long long>(sf.short_writes + cf.short_writes),
        static_cast<unsigned long long>(sf.eagains + cf.eagains),
        static_cast<unsigned long long>(cf.refused),
        static_cast<unsigned long long>(wire_duplicates.load()));
  }
}

}  // namespace
}  // namespace protoobf
