// Fault-recovery bench: what a hostile transport costs ReliableClient.
//
// Two identical drills — N ReliableClients confirming M echoed messages
// each against a sharded loopback server — once on a clean transport and
// once under a seeded FaultInjector schedule (short reads/writes, EAGAIN
// storms, scheduled kills, refused dials). Reported:
//
//   clean/faulty msgs/s   end-to-end confirmed-echo throughput;
//   recovery latency      per drop: connection-lost edge to the replacement
//                         connection serving traffic again (on_state false
//                         -> true), the time the backoff+redial machinery
//                         actually costs. Recorded into an obs::Histogram —
//                         the same log-bucketed instrument the live
//                         /metrics endpoint serves — so the bench
//                         quantiles and production quantiles share one
//                         estimator;
//   recovery_vs_cap       mean recovery latency over the backoff cap — the
//                         CI ratio guard: redials must resolve within a
//                         small multiple of the configured worst-case
//                         delay, or the retry loop is spinning not healing.
//
// Usage: bench_faults [conns] [messages] [fault_seed] [json_path]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/protoobf.hpp"
#include "net/fault.hpp"
#include "net/reconnect.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace protoobf;

constexpr std::string_view kSpec = R"(
protocol FaultBench
msg: seq end {
  tag: terminal fixed(2)
  blen: terminal fixed(2)
  body: terminal length(blen)
}
)";

constexpr std::chrono::milliseconds kBackoffInitial{5};
constexpr std::chrono::milliseconds kBackoffCap{100};

Message bench_message(const Graph& g, Rng& rng) {
  Message msg(g);
  Bytes tag(2);
  Bytes body(static_cast<std::size_t>(rng.between(4, 32)));
  for (Byte& b : tag) b = static_cast<Byte>(rng.between('A', 'Z'));
  for (Byte& b : body) b = static_cast<Byte>(rng.between('a', 'z'));
  (void)msg.set("tag", std::move(tag));
  (void)msg.set("body", std::move(body));
  return msg;
}

/// Loop-thread-only client state; atomics are the main thread's window.
struct DrillClient {
  std::unique_ptr<net::ReliableClient> client;
  std::uint64_t confirmed = 0;
  std::uint64_t dropped_at_ns = 0;
  bool down = false;
  std::atomic<std::uint64_t> acked{0};
  std::atomic<bool> gave_up{false};
};

struct DrillResult {
  double msgs_per_sec = 0;
  double elapsed_ms = 0;
  std::size_t complete = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t resent = 0;
  // Drop -> serving-again latency, all clients pooled. Histogram::record
  // is thread-safe, so the loop threads feed it directly.
  obs::Histogram::Snapshot recovery;
};

DrillResult run_drill(std::shared_ptr<const ObfuscatedProtocol> protocol,
                      const Graph& g, std::size_t conns, std::uint64_t msgs,
                      net::FaultInjector* server_faults,
                      net::FaultInjector* client_faults,
                      std::uint64_t seed) {
  // Heap-allocated: a Histogram carries its padded per-thread blocks
  // inline (~tens of KB) — too big for comfort on the stack.
  auto recovery_hist = std::make_unique<obs::Histogram>();
  net::Server::Config scfg;
  scfg.endpoint = {"127.0.0.1", 0};
  scfg.shards = 2;
  scfg.max_connections = conns + 32;
  scfg.connection.drain_timeout = std::chrono::milliseconds(2000);
  if (server_faults != nullptr) scfg.connection.ops = server_faults;
  net::Server server(protocol, net::length_prefix_framer_factory(), scfg);
  server.on_accept([](net::Connection& conn) {
    conn.on_message([](net::Connection& c, Expected<InstPtr> msg) {
      if (!msg.ok()) return;
      (void)c.send(**msg, c.stats().messages_in);
    });
  });
  if (Status s = server.start(); !s) {
    std::fprintf(stderr, "server start failed: %s\n",
                 s.error().message.c_str());
    std::exit(1);
  }

  const std::size_t n_loops = conns < 2 ? conns : 2;
  std::vector<std::unique_ptr<net::EventLoop>> loops;
  for (std::size_t i = 0; i < n_loops; ++i) {
    loops.push_back(std::make_unique<net::EventLoop>());
  }
  std::vector<DrillClient> clients(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    net::ReliableClient::Config ccfg;
    ccfg.endpoint = {"127.0.0.1", server.port()};
    ccfg.framer_factory = net::length_prefix_framer_factory();
    if (client_faults != nullptr) ccfg.connection.ops = client_faults;
    ccfg.backoff.initial = kBackoffInitial;
    ccfg.backoff.cap = kBackoffCap;
    ccfg.max_unacked = msgs;
    ccfg.seed = seed + i;
    DrillClient& state = clients[i];
    state.client = std::make_unique<net::ReliableClient>(
        *loops[i % n_loops], protocol, ccfg);
    state.client->on_message([&state](Expected<InstPtr> msg) {
      if (!msg.ok()) return;
      state.client->ack(++state.confirmed);
      state.acked.store(state.client->stats().acked);
    });
    state.client->on_state([&state, hist = recovery_hist.get()](
                               bool connected) {
      const std::uint64_t now = obs::now_ns();
      if (!connected) {
        state.down = true;
        state.dropped_at_ns = now;
      } else if (state.down) {
        state.down = false;
        hist->record(now - state.dropped_at_ns);
      }
    });
    state.client->on_gave_up(
        [&state](const Error&) { state.gave_up.store(true); });
  }

  std::vector<std::thread> threads;
  for (auto& loop : loops) {
    threads.emplace_back([&loop] { loop->run(); });
  }
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < conns; ++i) {
    DrillClient& state = clients[i];
    loops[i % n_loops]->post([&state, &g, proto = protocol, seed, i, msgs] {
      state.client->start();
      Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
      for (std::uint64_t m = 0; m < msgs; ++m) {
        Message msg = bench_message(g, rng);
        (void)proto->canonicalize(msg.root());
        (void)state.client->send(msg.root());
      }
    });
  }

  const auto deadline =
      started + std::chrono::milliseconds(30000 + 50 * conns * msgs);
  auto done = [&] {
    for (const DrillClient& state : clients) {
      if (state.gave_up.load()) return true;
      if (state.acked.load() < msgs) return false;
    }
    return true;
  };
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  DrillResult result;
  result.elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - started)
                          .count();
  std::atomic<std::uint64_t> reconnects{0};
  std::atomic<std::uint64_t> resent{0};
  std::atomic<std::size_t> stopped{0};
  for (std::size_t i = 0; i < conns; ++i) {
    DrillClient& state = clients[i];
    if (state.acked.load() >= msgs) ++result.complete;
    loops[i % n_loops]->post([&state, &stopped, &reconnects, &resent] {
      reconnects.fetch_add(state.client->stats().reconnects);
      resent.fetch_add(state.client->stats().resent);
      state.client->stop();
      stopped.fetch_add(1);
    });
  }
  const auto stop_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stopped.load() < conns &&
         std::chrono::steady_clock::now() < stop_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.drain(std::chrono::milliseconds(5000));
  for (auto& loop : loops) loop->stop();
  for (auto& thread : threads) thread.join();
  result.recovery = recovery_hist->snapshot();
  result.reconnects = reconnects.load();
  result.resent = resent.load();
  result.msgs_per_sec = result.elapsed_ms > 0
                            ? 1000.0 * static_cast<double>(result.complete) *
                                  static_cast<double>(msgs) /
                                  result.elapsed_ms
                            : 0;
  clients.clear();  // after their loops stopped
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t conns =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 32;
  const std::uint64_t msgs =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 32;
  const std::uint64_t seed =
      argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 42;
  const char* json_path = argc > 4 ? argv[4] : "BENCH_faults.json";
  if (conns == 0 || msgs == 0) {
    std::fprintf(stderr,
                 "usage: bench_faults [conns>0] [messages>0] [fault_seed] "
                 "[json_path]\n");
    return 2;
  }

  ObfuscationConfig ocfg;
  ocfg.seed = 7;
  ocfg.per_node = 2;
  auto g = Framework::load_spec(kSpec).value();
  auto compiled = Framework::generate(g, ocfg);
  if (!compiled) {
    std::fprintf(stderr, "obfuscation failed: %s\n",
                 compiled.error().message.c_str());
    return 1;
  }
  auto protocol =
      std::make_shared<const ObfuscatedProtocol>(std::move(*compiled));

  // Clean baseline first, then the same drill under the fault schedule.
  const DrillResult clean =
      run_drill(protocol, g, conns, msgs, nullptr, nullptr, seed);

  net::FaultPlan plan;
  plan.seed = seed;
  plan.short_read = 0.2;
  plan.short_write = 0.2;
  plan.eagain = 0.1;
  plan.kill_rate = 0.4;
  plan.kill_window_bytes = 2048;
  plan.refuse_every = 5;
  net::FaultInjector server_faults(plan);
  net::FaultPlan client_plan = plan;
  client_plan.seed = seed ^ 0x9e3779b97f4a7c15ull;
  net::FaultInjector client_faults(client_plan);
  const DrillResult faulty = run_drill(protocol, g, conns, msgs,
                                       &server_faults, &client_faults, seed);

  const double ratio = clean.msgs_per_sec > 0
                           ? faulty.msgs_per_sec / clean.msgs_per_sec
                           : 0;
  // Histogram quantiles come back in nanoseconds; the report speaks ms.
  const obs::Histogram::Snapshot& rec = faulty.recovery;
  const double mean_recovery = rec.mean() / 1e6;
  const double p50_recovery = rec.p50 / 1e6;
  const double p95_recovery = rec.p95 / 1e6;
  const double p99_recovery = rec.p99 / 1e6;
  const double max_recovery = static_cast<double>(rec.max) / 1e6;
  const double cap_ms =
      std::chrono::duration<double, std::milli>(kBackoffCap).count();
  const double recovery_vs_cap = mean_recovery / cap_ms;
  const std::uint64_t kills =
      server_faults.kills() + client_faults.kills();

  std::printf("faults — %zu clients x %llu msgs, fault seed %llu\n", conns,
              static_cast<unsigned long long>(msgs),
              static_cast<unsigned long long>(seed));
  std::printf("  %-22s %12.0f msgs/s  (%zu/%zu complete)\n", "echo/clean",
              clean.msgs_per_sec, clean.complete, conns);
  std::printf("  %-22s %12.0f msgs/s  (%zu/%zu complete)\n", "echo/faulty",
              faulty.msgs_per_sec, faulty.complete, conns);
  std::printf("  faulty/clean: %.3fx\n", ratio);
  std::printf(
      "  recovery: %llu drops healed, mean %.1f ms, p50 %.1f ms, "
      "p95 %.1f ms, p99 %.1f ms, max %.1f ms "
      "(backoff cap %.0f ms, mean/cap %.2f)\n",
      static_cast<unsigned long long>(rec.count), mean_recovery,
      p50_recovery, p95_recovery, p99_recovery, max_recovery, cap_ms,
      recovery_vs_cap);
  std::printf("  faults: %llu kills, %llu reconnects, %llu resends\n",
              static_cast<unsigned long long>(kills),
              static_cast<unsigned long long>(faulty.reconnects),
              static_cast<unsigned long long>(faulty.resent));

  // The drills must both complete; the fault schedule may cost throughput
  // but never messages.
  if (clean.complete != conns || faulty.complete != conns) {
    std::fprintf(stderr, "DRILL LOST CLIENTS: clean %zu/%zu faulty %zu/%zu\n",
                 clean.complete, conns, faulty.complete, conns);
    return 1;
  }

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"faults\",\n"
                 "  \"conns\": %zu,\n"
                 "  \"messages\": %llu,\n"
                 "  \"fault_seed\": %llu,\n"
                 "  \"clean_msgs_per_sec\": %.1f,\n"
                 "  \"faulty_msgs_per_sec\": %.1f,\n"
                 "  \"faulty_vs_clean_ratio\": %.4f,\n"
                 "  \"recoveries\": %llu,\n"
                 "  \"mean_recovery_ms\": %.2f,\n"
                 "  \"p50_recovery_ms\": %.2f,\n"
                 "  \"p95_recovery_ms\": %.2f,\n"
                 "  \"p99_recovery_ms\": %.2f,\n"
                 "  \"max_recovery_ms\": %.2f,\n"
                 "  \"backoff_cap_ms\": %.0f,\n"
                 "  \"recovery_vs_cap_ratio\": %.4f,\n"
                 "  \"kills\": %llu,\n"
                 "  \"reconnects\": %llu,\n"
                 "  \"resends\": %llu\n"
                 "}\n",
                 conns, static_cast<unsigned long long>(msgs),
                 static_cast<unsigned long long>(seed), clean.msgs_per_sec,
                 faulty.msgs_per_sec, ratio,
                 static_cast<unsigned long long>(rec.count), mean_recovery,
                 p50_recovery, p95_recovery, p99_recovery, max_recovery,
                 cap_ms, recovery_vs_cap,
                 static_cast<unsigned long long>(kills),
                 static_cast<unsigned long long>(faulty.reconnects),
                 static_cast<unsigned long long>(faulty.resent));
    std::fclose(f);
    std::printf("  wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  return 0;
}
