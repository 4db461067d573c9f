// Obfuscated echo over real sockets: the src/net subsystem end to end.
//
// Everything the repo built so far — compiled protocol, session arenas,
// framers, channels — finally crosses a kernel boundary: a sharded epoll
// Server listens on loopback, a Connector dials it, and obfuscated Modbus
// requests round-trip through actual TCP sockets. The server parses each
// frame it receives and serializes the tree right back (an echo is the
// smallest protocol gateway: decode obfuscated, re-encode obfuscated).
//
// Run it to see the wire bytes differ from the logical bytes (that is the
// point of the paper) while the parsed echoes compare equal to what was
// sent. Exits 0 only if every echo matches — CMake registers this as a
// test, so the demo doubles as an end-to-end check.
#include <atomic>
#include <iostream>
#include <memory>
#include <thread>

#include "net/connector.hpp"
#include "net/server.hpp"
#include "protocols/modbus.hpp"

namespace {

using namespace protoobf;

}  // namespace

int main() {
  // Compile the Modbus request side once; server and client share it.
  const Graph modbus_graph =
      Framework::load_spec(modbus::request_spec()).value();
  ObfuscationConfig config;
  config.seed = 2018;
  config.per_node = 2;
  auto compiled = Framework::generate(modbus_graph, config);
  if (!compiled.ok()) {
    std::cerr << "obfuscation failed: " << compiled.error().message << "\n";
    return 1;
  }
  auto protocol =
      std::make_shared<const ObfuscatedProtocol>(std::move(*compiled));
  std::cout << "obfuscated Modbus: " << protocol->journal().size()
            << " transformations applied\n";

  // --- server: 2 shards on an ephemeral loopback port ----------------------
  net::Server::Config server_cfg;
  server_cfg.shards = 2;
  net::Server server(protocol, net::length_prefix_framer_factory(),
                     server_cfg);
  server.on_accept([](net::Connection& conn) {
    conn.on_message([](net::Connection& c, Expected<InstPtr> msg) {
      if (!msg.ok()) return;
      (void)c.send(**msg, c.stats().messages_in);
    });
  });
  if (Status s = server.start(); !s) {
    std::cerr << "server start failed: " << s.error().message << "\n";
    return 1;
  }
  std::cout << "server listening on 127.0.0.1:" << server.port() << " ("
            << server.shard_count() << " shards)\n";

  // --- client: dial, send three requests, await the echoes ------------------
  net::EventLoop loop;
  auto dialed = net::Connector::dial(
      loop, {"127.0.0.1", server.port()}, protocol,
      std::make_unique<LengthPrefixFramer>(), {});
  if (!dialed.ok()) {
    std::cerr << "dial failed: " << dialed.error().message << "\n";
    return 1;
  }
  std::unique_ptr<net::Connection> conn = std::move(*dialed);

  const std::uint16_t addrs[] = {0x0010, 0x0400, 0x006b};
  std::vector<Message> requests;
  for (int i = 0; i < 3; ++i) {
    requests.push_back(modbus::make_read_holding(
        modbus_graph, static_cast<std::uint16_t>(i + 1), 0x11, addrs[i], 2));
    if (Status s = protocol->canonicalize(requests.back().root()); !s) {
      std::cerr << "canonicalize failed: " << s.error().message << "\n";
      return 1;
    }
  }

  std::size_t echoed = 0;
  bool all_equal = true;
  conn->on_message([&](net::Connection&, Expected<InstPtr> reply) {
    if (!reply.ok()) {
      std::cerr << "echo parse failed: " << reply.error().message << "\n";
      all_equal = false;
      return;
    }
    const bool equal = ast::equal(**reply, requests[echoed].root());
    std::cout << "  echo " << echoed << ": "
              << (equal ? "matches the request tree" : "MISMATCH") << "\n";
    all_equal = all_equal && equal;
    ++echoed;
  });
  if (Status s = conn->open(); !s) {
    std::cerr << "open failed: " << s.error().message << "\n";
    return 1;
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto wire = protocol->serialize(requests[i].root(), 100 + i);
    if (wire.ok()) {
      std::cout << "  request " << i << ": " << wire->size()
                << " obfuscated wire bytes\n";
    }
    if (Status s = conn->send(requests[i].root(), 100 + i); !s) {
      std::cerr << "send failed: " << s.error().message << "\n";
      return 1;
    }
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (echoed < requests.size() &&
         std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  conn->close();
  loop.run_once(0);
  server.stop();

  if (echoed != requests.size() || !all_equal) {
    std::cerr << "echo exchange failed (" << echoed << "/"
              << requests.size() << ")\n";
    return 1;
  }
  std::cout << "all " << echoed
            << " echoes parsed back equal over real sockets\n";
  return 0;
}
