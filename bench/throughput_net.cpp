// Socket-transport throughput: loopback echo round trips vs the in-memory
// Channel path.
//
// The net subsystem's cost over the streaming API is two kernel crossings
// per read slice (epoll-driven read + one write for all of the slice's
// replies) plus the event-loop dispatch. This bench measures full echo
// round trips — client serialize+frame, server reassemble+parse, server
// re-serialize (the echo), client reassemble+parse — first through a
// pair of in-memory Channels (no sockets at all),
// then through a real epoll Server on loopback TCP. Both paths do exactly
// 2 serializations + 2 parses per message, so the ratio isolates what the
// transport costs:
//
//   echo/in-memory     Channel -> Channel, bytes handed over directly
//   echo/net@S         loopback TCP through the S-shard epoll server
//
// The CI smoke guards "net/in-memory" >= 0.5: the socket transport must
// sustain at least half the in-memory rate (ISSUE 4 acceptance).
//
// Usage: bench_throughput_net [messages] [repeats] [per_node] [shards]
//                             [json_path]
#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "stream/channel.hpp"

namespace {

using namespace protoobf;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::uint64_t msg_seed_of(std::size_t i) {
  return 0x7e7 + 11400714819323198485ull * i;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t messages =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 256;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 4;
  const int per_node = argc > 3 ? std::atoi(argv[3]) : 2;
  const std::size_t shards =
      argc > 4 ? static_cast<std::size_t>(std::atoll(argv[4])) : 1;
  const char* json_path = argc > 5 ? argv[5] : "BENCH_net.json";
  if (messages == 0 || repeats <= 0 || per_node < 0 || shards == 0) {
    std::fprintf(stderr,
                 "usage: bench_throughput_net [messages>0] [repeats>0] "
                 "[per_node>=0] [shards>0] [json_path]\n");
    return 2;
  }

  bench::Workload workload = bench::http_workload();
  const Graph& g = workload.graphs[0];
  ObfuscationConfig config;
  config.seed = 2018;
  config.per_node = per_node;
  auto compiled = Framework::generate(g, config);
  if (!compiled) {
    std::fprintf(stderr, "obfuscation failed: %s\n",
                 compiled.error().message.c_str());
    return 1;
  }
  auto protocol =
      std::make_shared<const ObfuscatedProtocol>(std::move(*compiled));

  Rng rng(7);
  std::vector<Message> msgs;
  msgs.reserve(messages);
  for (std::size_t i = 0; i < messages; ++i) {
    msgs.push_back(workload.make(0, g, rng));
  }

  std::size_t checksum = 0;

  // --- in-memory echo baseline ----------------------------------------------
  // client channel -> server channel -> echo -> client channel, no kernel.
  Session client_tx(protocol), server_rx(protocol), server_tx(protocol),
      client_rx(protocol);
  LengthPrefixFramer f1, f2, f3, f4;
  Channel client_out(client_tx, f1), server_in(server_rx, f2),
      server_out(server_tx, f3), client_in(client_rx, f4);

  const auto run_memory = [&]() {
    std::size_t got = 0;
    for (std::size_t i = 0; i < messages; ++i) {
      auto framed = client_out.send(msgs[i].root(), msg_seed_of(i));
      if (!framed) continue;
      server_in.on_bytes(*framed);
      while (auto m = server_in.receive()) {
        if (!m->ok()) continue;
        auto echo = server_out.send(***m, msg_seed_of(i) ^ 0x5a5a);
        if (!echo) continue;
        client_in.on_bytes(*echo);
        while (auto back = client_in.receive()) {
          checksum += back->ok() ? (**back)->children.size() : 0;
          ++got;
        }
      }
    }
    return got;
  };

  // --- net echo through the epoll server ------------------------------------
  net::Server::Config server_cfg;
  server_cfg.shards = shards;
  net::Server server(protocol, net::length_prefix_framer_factory(),
                     server_cfg);
  server.on_accept([](net::Connection& conn) {
    conn.on_message([](net::Connection& c, Expected<InstPtr> msg) {
      if (!msg.ok()) return;
      (void)c.send(**msg, c.stats().messages_in ^ 0x5a5a);
    });
  });
  if (Status s = server.start(); !s) {
    std::fprintf(stderr, "server start failed: %s\n",
                 s.error().message.c_str());
    return 1;
  }

  // Nonblocking client: queue framed messages, poll-pump both directions.
  auto fd = net::connect_tcp({"127.0.0.1", server.port()});
  if (!fd) {
    std::fprintf(stderr, "connect failed: %s\n", fd.error().message.c_str());
    return 1;
  }
  {
    pollfd ready{fd->get(), POLLOUT, 0};
    (void)::poll(&ready, 1, 5000);  // finish the nonblocking handshake
  }
  Session net_tx(protocol), net_rx(protocol);
  LengthPrefixFramer f5, f6;
  Channel net_out(net_tx, f5), net_in(net_rx, f6);

  // Per-echo round-trip latency, recorded into the same log-bucketed
  // histogram the live /metrics endpoint uses. TCP plus the echo handler
  // preserve message order on one connection, so a FIFO of send stamps
  // pairs each receive with its originating send.
  auto echo_hist = std::make_unique<obs::Histogram>();
  std::deque<std::uint64_t> sent_at_ns;

  const auto run_net = [&]() {
    std::size_t got = 0;
    Bytes pending;         // frames not yet accepted by the kernel
    std::size_t head = 0;  // consumed prefix of pending
    std::size_t next = 0;  // next message to frame
    Byte buf[16 * 1024];
    sent_at_ns.clear();
    while (got < messages) {
      // Top up the send queue (bounded so both directions keep moving).
      while (next < messages && pending.size() - head < 64 * 1024) {
        auto framed = net_out.send(msgs[next].root(), msg_seed_of(next));
        ++next;
        if (framed) {
          append(pending, *framed);
          sent_at_ns.push_back(obs::now_ns());
        }
      }
      pollfd pfd{fd->get(), POLLIN, 0};
      if (head < pending.size()) pfd.events |= POLLOUT;
      if (::poll(&pfd, 1, 5000) <= 0) {
        std::fprintf(stderr, "poll stalled at %zu/%zu echoes\n", got,
                     messages);
        return got;
      }
      if ((pfd.revents & POLLOUT) != 0 && head < pending.size()) {
        const ssize_t n = ::send(fd->get(), pending.data() + head,
                                 pending.size() - head, MSG_NOSIGNAL);
        if (n > 0) head += static_cast<std::size_t>(n);
        if (head == pending.size()) {
          pending.clear();
          head = 0;
        }
      }
      if ((pfd.revents & POLLIN) != 0) {
        const ssize_t n = ::recv(fd->get(), buf, sizeof buf, 0);
        if (n <= 0) {
          std::fprintf(stderr, "server closed at %zu/%zu echoes\n", got,
                       messages);
          return got;
        }
        net_in.on_bytes(BytesView(buf, static_cast<std::size_t>(n)));
        while (auto m = net_in.receive()) {
          checksum += m->ok() ? (**m)->children.size() : 0;
          ++got;
          if (!sent_at_ns.empty()) {
            echo_hist->record(obs::now_ns() - sent_at_ns.front());
            sent_at_ns.pop_front();
          }
        }
      }
    }
    return got;
  };

  // Warm-up both paths, then interleave timed trials; best window wins
  // (same discipline as the other throughput benches).
  (void)run_memory();
  (void)run_net();
  echo_hist->reset();  // quantiles cover the timed trials only

  double memory_rate = 0;
  double net_rate = 0;
  const double total =
      static_cast<double>(messages) * static_cast<double>(repeats);
  constexpr int kTrials = 5;
  for (int t = 0; t < kTrials; ++t) {
    {
      const auto start = std::chrono::steady_clock::now();
      std::size_t got = 0;
      for (int r = 0; r < repeats; ++r) got += run_memory();
      if (got != messages * static_cast<std::size_t>(repeats)) {
        std::fprintf(stderr, "IN-MEMORY PATH LOST MESSAGES: %zu\n", got);
        return 1;
      }
      memory_rate = std::max(memory_rate, total / seconds_since(start));
    }
    {
      const auto start = std::chrono::steady_clock::now();
      std::size_t got = 0;
      for (int r = 0; r < repeats; ++r) got += run_net();
      if (got != messages * static_cast<std::size_t>(repeats)) {
        std::fprintf(stderr, "NET PATH LOST MESSAGES: %zu\n", got);
        return 1;
      }
      net_rate = std::max(net_rate, total / seconds_since(start));
    }
  }
  fd->reset();
  const net::Server::Stats stats = server.stats();
  server.stop();

  std::printf("throughput_net — %s, per_node=%d, %zu msgs x %d repeats, "
              "%zu shard%s\n",
              workload.name.c_str(), per_node, messages, repeats, shards,
              shards == 1 ? "" : "s");
  std::printf("  %-20s %12.0f msgs/s\n", "echo/in-memory", memory_rate);
  static char net_label[32];
  std::snprintf(net_label, sizeof net_label, "echo/net@%zu", shards);
  std::printf("  %-20s %12.0f msgs/s\n", net_label, net_rate);
  std::printf("  net/in-memory: %.3fx\n", net_rate / memory_rate);
  const obs::Histogram::Snapshot echo = echo_hist->snapshot();
  std::printf(
      "  echo latency: p50 %.1f us, p95 %.1f us, p99 %.1f us, "
      "max %.1f us (%llu round trips)\n",
      echo.p50 / 1e3, echo.p95 / 1e3, echo.p99 / 1e3,
      static_cast<double>(echo.max) / 1e3,
      static_cast<unsigned long long>(echo.count));
  std::printf("  (checksum %zu, server accepted %llu connections)\n",
              checksum, static_cast<unsigned long long>(stats.accepted));

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"throughput_net\",\n"
                 "  \"workload\": \"%s\",\n"
                 "  \"per_node\": %d,\n"
                 "  \"messages\": %zu,\n"
                 "  \"repeats\": %d,\n"
                 "  \"shards\": %zu,\n"
                 "  \"echo_memory_msgs_per_sec\": %.1f,\n"
                 "  \"echo_net_msgs_per_sec\": %.1f,\n"
                 "  \"net_vs_memory_ratio\": %.4f,\n"
                 "  \"echo_p50_us\": %.2f,\n"
                 "  \"echo_p95_us\": %.2f,\n"
                 "  \"echo_p99_us\": %.2f,\n"
                 "  \"echo_max_us\": %.2f\n"
                 "}\n",
                 workload.name.c_str(), per_node, messages, repeats, shards,
                 memory_rate, net_rate, net_rate / memory_rate,
                 echo.p50 / 1e3, echo.p95 / 1e3, echo.p99 / 1e3,
                 static_cast<double>(echo.max) / 1e3);
    std::fclose(f);
    std::printf("  wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  return 0;
}
