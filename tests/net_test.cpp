// Socket-transport tests: event loop, echo round trips, sharding, the
// truncated-vs-malformed taxonomy over real connections, and backpressure.
//
// The load-bearing properties (ISSUE 4 acceptance):
//   * messages exchanged over loopback sockets are byte-identical to the
//     in-memory Channel path for the same (protocol, message, seed);
//   * a peer that disappears mid-frame — at any random cut point — is
//     reported as Truncated on close, never as Malformed;
//   * a slow reader trips the high-watermark backpressure signal and the
//     writable callback fires once the queue drains;
//   * the replies to one read slice leave in one write, and they reach the
//     peer before the FIN when a handler closes after replying or a bad
//     frame follows the messages they answer.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/protoobf.hpp"
#include "net/connector.hpp"
#include "runtime/parse.hpp"
#include "net/server.hpp"
#include "obs/families.hpp"
#include "util/rng.hpp"

namespace protoobf {
namespace {

using namespace protoobf::net;

constexpr std::string_view kSpec = R"(
protocol NetDemo
msg: seq end {
  tag: terminal fixed(2)
  blen: terminal fixed(2)
  body: terminal length(blen)
}
)";

ObfuscationConfig config_of(std::uint64_t seed, int per_node) {
  ObfuscationConfig cfg;
  cfg.seed = seed;
  cfg.per_node = per_node;
  return cfg;
}

std::shared_ptr<const ObfuscatedProtocol> compile(std::uint64_t seed,
                                                  int per_node) {
  return std::make_shared<const ObfuscatedProtocol>(
      Framework::generate(Framework::load_spec(kSpec).value(),
                          config_of(seed, per_node))
          .value());
}

/// A canonicalized random message (tag + body user data, blen derived).
Message random_message(const Graph& g, Rng& rng) {
  Message msg(g);
  Bytes tag(2);
  Bytes body(static_cast<std::size_t>(rng.between(1, 40)));
  for (Byte& b : tag) b = static_cast<Byte>(rng.between('A', 'Z'));
  for (Byte& b : body) b = static_cast<Byte>(rng.between('a', 'z'));
  EXPECT_TRUE(msg.set("tag", std::move(tag)).ok());
  EXPECT_TRUE(msg.set("body", std::move(body)).ok());
  return msg;
}

bool wait_for(const std::function<bool()>& cond,
              std::chrono::milliseconds timeout =
                  std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!cond()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// Blocking loopback client socket (the "simple peer" side of the tests —
/// the framework side under test is the nonblocking server). Its recv()
/// gives up after 10 s, so a server that never replies or closes fails the
/// test's assertions instead of wedging it.
int blocking_client(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const timeval recv_timeout{10, 0};
  EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
                         sizeof recv_timeout),
            0)
      << std::strerror(errno);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  return fd;
}

/// Echo server over `protocol`: parses every message and serializes it
/// right back with a per-connection deterministic seed (messages_in after
/// the increment, i.e. 1, 2, 3...).
std::unique_ptr<Server> echo_server(
    std::shared_ptr<const ObfuscatedProtocol> protocol, Server::Config cfg,
    std::atomic<bool>* saw_malformed_close = nullptr,
    std::atomic<std::uint64_t>* closes = nullptr) {
  auto server = std::make_unique<Server>(
      protocol, length_prefix_framer_factory(), cfg);
  server->on_accept([saw_malformed_close, closes](Connection& conn) {
    conn.on_message([](Connection& c, Expected<InstPtr> msg) {
      if (!msg.ok()) return;  // per-message parse error: stream continues
      (void)c.send(**msg, c.stats().messages_in);
    });
    conn.on_close([saw_malformed_close, closes](Connection&,
                                                const Error* err) {
      if (saw_malformed_close != nullptr && err != nullptr &&
          err->kind == ErrorKind::Malformed) {
        saw_malformed_close->store(true);
      }
      if (closes != nullptr) closes->fetch_add(1);
    });
  });
  EXPECT_TRUE(server->start().ok());
  return server;
}

// --- event loop -------------------------------------------------------------

TEST(EventLoop, CrossThreadPostRunsOnTheLoop) {
  EventLoop loop;
  std::atomic<int> ran{0};
  std::thread poster([&] {
    for (int i = 0; i < 10; ++i) loop.post([&] { ++ran; });
  });
  poster.join();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (ran.load() < 10 && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  EXPECT_EQ(ran.load(), 10);
}

TEST(EventLoop, TimersFireInOrderAndCancelLazily) {
  EventLoop loop;
  std::vector<int> order;
  loop.add_timer(std::chrono::milliseconds(30), [&] { order.push_back(2); });
  loop.add_timer(std::chrono::milliseconds(5), [&] { order.push_back(1); });
  const auto cancelled =
      loop.add_timer(std::chrono::milliseconds(10), [&] { order.push_back(9); });
  loop.cancel_timer(cancelled);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (order.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(EventLoop, PeriodicTimerRepeatsUntilCancelledFromItsOwnCallback) {
  EventLoop loop;
  int fires = 0;
  EventLoop::TimerId id = 0;
  id = loop.add_timer(
      std::chrono::milliseconds(1),
      [&] {
        if (++fires == 3) loop.cancel_timer(id);
      },
      std::chrono::milliseconds(1));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fires < 3 && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(20);
  }
  EXPECT_EQ(fires, 3);
  // A few extra rounds must not fire the cancelled timer again.
  for (int i = 0; i < 5; ++i) loop.run_once(5);
  EXPECT_EQ(fires, 3);
}

// --- echo round trip through Connector/Connection ---------------------------

TEST(NetEcho, ConnectorClientRoundTripsThroughShardedServer) {
  auto protocol = compile(2018, 2);
  ASSERT_NE(protocol, nullptr);
  auto g = Framework::load_spec(kSpec).value();

  // Round-robin handoff mode: shard 0 accepts, connections run on the
  // other shards' threads too.
  Server::Config cfg;
  cfg.shards = 2;
  cfg.reuse_port = false;
  auto server = echo_server(protocol, cfg);

  constexpr std::size_t kMessages = 8;
  Rng rng(7);
  std::vector<Message> sent;
  for (std::size_t i = 0; i < kMessages; ++i) {
    sent.push_back(random_message(g, rng));
    // What the echo must compare equal to: the canonical form.
    ASSERT_TRUE(protocol->canonicalize(sent.back().root()).ok());
  }

  EventLoop client_loop;
  auto framer = std::make_unique<LengthPrefixFramer>();
  auto conn = Connector::dial(client_loop, {"127.0.0.1", server->port()},
                              protocol, std::move(framer), {});
  ASSERT_TRUE(conn.ok()) << conn.error().message;

  std::atomic<std::size_t> echoed{0};
  std::atomic<bool> mismatch{false};
  (*conn)->on_message([&](Connection&, Expected<InstPtr> msg) {
    ASSERT_TRUE(msg.ok()) << msg.error().message;
    const std::size_t i = echoed.load();
    if (i < sent.size() && !ast::equal(**msg, sent[i].root())) {
      mismatch.store(true);
    }
    echoed.fetch_add(1);
  });
  ASSERT_TRUE((*conn)->open().ok());

  std::thread client_thread([&] { client_loop.run(); });
  Connection* raw = conn->get();
  for (std::size_t i = 0; i < kMessages; ++i) {
    client_loop.post([raw, &sent, i] {
      EXPECT_TRUE(raw->send(sent[i].root(), 100 + i).ok());
    });
  }
  EXPECT_TRUE(wait_for([&] { return echoed.load() == kMessages; }))
      << "echoed " << echoed.load() << "/" << kMessages;
  EXPECT_FALSE(mismatch.load());

  client_loop.post([raw] { raw->close(); });
  client_loop.stop();
  client_thread.join();
  // Leak check while the shards are still alive (stats() reads them):
  // the server must observe the client's close and retire the connection.
  EXPECT_TRUE(wait_for([&] { return server->stats().active == 0; }));
  server->stop();
}

TEST(NetEcho, AsyncConnectorResolvesOnTheLoop) {
  auto protocol = compile(2018, 1);
  auto server = echo_server(protocol, {});

  EventLoop loop;
  Connector connector(loop);
  std::unique_ptr<Connection> conn;
  bool failed = false;
  connector.connect({"127.0.0.1", server->port()}, protocol,
                    std::make_unique<LengthPrefixFramer>(), {},
                    [&](Expected<std::unique_ptr<Connection>> result) {
                      if (result.ok()) {
                        conn = std::move(*result);
                      } else {
                        failed = true;
                      }
                    });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (conn == nullptr && !failed &&
         std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  ASSERT_TRUE(conn != nullptr) << "async connect did not resolve";

  // One echo through the async-connected channel, loop pumped inline.
  auto g = Framework::load_spec(kSpec).value();
  Rng rng(11);
  Message msg = random_message(g, rng);
  ASSERT_TRUE(protocol->canonicalize(msg.root()).ok());
  bool got_echo = false;
  conn->on_message([&](Connection&, Expected<InstPtr> reply) {
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(ast::equal(**reply, msg.root()));
    got_echo = true;
  });
  ASSERT_TRUE(conn->open().ok());
  ASSERT_TRUE(conn->send(msg.root(), 5).ok());
  while (!got_echo && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  EXPECT_TRUE(got_echo);
  conn->close();
  server->stop();
}

TEST(NetEcho, SendBeforeOpenFlushesOnceOpened) {
  auto protocol = compile(2018, 1);
  auto g = Framework::load_spec(kSpec).value();
  auto server = echo_server(protocol, {});

  EventLoop loop;
  auto conn = Connector::dial(loop, {"127.0.0.1", server->port()}, protocol,
                              std::make_unique<LengthPrefixFramer>(), {});
  ASSERT_TRUE(conn.ok()) << conn.error().message;

  // Queue traffic on the unopened connection — a client greeting. Big
  // enough that part of it outlives the kernel's immediate appetite, so
  // the flush genuinely depends on open() arming EPOLLOUT.
  Rng rng(19);
  std::vector<Message> sent;
  constexpr std::size_t kMessages = 5;
  for (std::size_t i = 0; i < kMessages; ++i) {
    sent.push_back(random_message(g, rng));
    ASSERT_TRUE(protocol->canonicalize(sent.back().root()).ok());
    ASSERT_TRUE((*conn)->send(sent[i].root(), 70 + i).ok());
  }

  std::size_t echoed = 0;
  (*conn)->on_message([&](Connection&, Expected<InstPtr> msg) {
    ASSERT_TRUE(msg.ok());
    EXPECT_TRUE(ast::equal(**msg, sent[echoed].root()));
    ++echoed;
  });
  ASSERT_TRUE((*conn)->open().ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (echoed < kMessages && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  EXPECT_EQ(echoed, kMessages);
  (*conn)->close();
  server->stop();
}

TEST(NetEcho, AsyncConnectToDeadPortReportsError) {
  // Grab an ephemeral port, then close the listener so nothing serves it.
  auto doomed = listen_tcp({"127.0.0.1", 0}, 1);
  ASSERT_TRUE(doomed.ok());
  const std::uint16_t port = local_port(doomed->get()).value();
  doomed->reset();

  auto protocol = compile(2018, 1);
  EventLoop loop;
  Connector connector(loop);
  bool resolved = false;
  bool failed = false;
  connector.connect({"127.0.0.1", port}, protocol,
                    std::make_unique<LengthPrefixFramer>(), {},
                    [&](Expected<std::unique_ptr<Connection>> result) {
                      resolved = true;
                      failed = !result.ok();
                    });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!resolved && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(50);
  }
  EXPECT_TRUE(resolved);
  EXPECT_TRUE(failed);
}

// --- byte identity vs the in-memory channel path ----------------------------

TEST(NetEcho, EchoBytesAreIdenticalToTheInMemoryChannelPath) {
  auto protocol = compile(2018, 2);
  auto g = Framework::load_spec(kSpec).value();
  auto server = echo_server(protocol, {});

  constexpr std::size_t kMessages = 12;
  Rng rng(13);
  std::vector<Message> sent;
  for (std::size_t i = 0; i < kMessages; ++i) {
    sent.push_back(random_message(g, rng));
    ASSERT_TRUE(protocol->canonicalize(sent.back().root()).ok());
  }

  // The in-memory replica of the server's send path: same protocol, same
  // framer type, same seeds (messages_in counts 1, 2, 3...). What it emits
  // is what the socket must carry, byte for byte.
  Session replica_session(protocol);
  LengthPrefixFramer replica_framer;
  Channel replica(replica_session, replica_framer);
  Bytes expected_stream;
  for (std::size_t i = 0; i < kMessages; ++i) {
    auto framed = replica.send(sent[i].root(), i + 1);
    ASSERT_TRUE(framed.ok()) << framed.error().message;
    append(expected_stream, *framed);
  }

  // Client sends through its own channel and captures the raw echo bytes.
  Session client_session(protocol);
  LengthPrefixFramer client_framer;
  Channel client_channel(client_session, client_framer);
  const int fd = blocking_client(server->port());
  Rng chunk_rng(17);
  for (std::size_t i = 0; i < kMessages; ++i) {
    auto framed = client_channel.send(sent[i].root(), 100 + i);
    ASSERT_TRUE(framed.ok());
    // Random chunk sizes exercise the server's partial-read reassembly.
    std::size_t off = 0;
    while (off < framed->size()) {
      const std::size_t n = std::min<std::size_t>(
          framed->size() - off,
          static_cast<std::size_t>(chunk_rng.between(1, 23)));
      ASSERT_EQ(::send(fd, framed->data() + off, n, 0),
                static_cast<ssize_t>(n));
      off += n;
    }
  }

  Bytes echoed;
  Byte buf[4096];
  while (echoed.size() < expected_stream.size()) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0) << "peer closed after " << echoed.size() << "/"
                    << expected_stream.size() << " bytes";
    echoed.insert(echoed.end(), buf, buf + n);
  }
  EXPECT_EQ(echoed, expected_stream);
  ::close(fd);
  server->stop();
}

// --- one write per read slice -----------------------------------------------

/// The real transport, counting the server's syscalls: recv calls that
/// returned bytes, every send call, and the send calls that moved bytes.
class CountingOps : public SocketOps {
 public:
  ssize_t recv(int fd, void* buf, std::size_t len) override {
    const ssize_t n = SocketOps::recv(fd, buf, len);
    if (n > 0) reads.fetch_add(1);
    return n;
  }
  ssize_t send(int fd, const void* buf, std::size_t len, int flags) override {
    sends.fetch_add(1);
    const ssize_t n = SocketOps::send(fd, buf, len, flags);
    if (n > 0) writes.fetch_add(1);
    return n;
  }

  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> sends{0};
  std::atomic<std::uint64_t> writes{0};
};

TEST(NetEcho, EachReadSliceIsAnsweredWithOneWrite) {
  auto protocol = compile(2018, 2);
  auto g = Framework::load_spec(kSpec).value();
  CountingOps ops;
  Server::Config cfg;
  cfg.connection.ops = &ops;
  obs::Counter& shard_writes = obs::NetMetrics::for_shard(0).writes;
  const std::uint64_t shard_writes_before = shard_writes.value();
  auto server = echo_server(protocol, cfg);

  constexpr std::size_t kMessages = 64;
  Rng rng(29);
  std::vector<Message> sent;
  for (std::size_t i = 0; i < kMessages; ++i) {
    sent.push_back(random_message(g, rng));
    ASSERT_TRUE(protocol->canonicalize(sent.back().root()).ok());
  }

  // What the server's send path must emit, built as in
  // EchoBytesAreIdenticalToTheInMemoryChannelPath: batching the writes
  // must not change a byte of the stream.
  Session replica_session(protocol);
  LengthPrefixFramer replica_framer;
  Channel replica(replica_session, replica_framer);
  Bytes expected_stream;
  for (std::size_t i = 0; i < kMessages; ++i) {
    auto framed = replica.send(sent[i].root(), i + 1);
    ASSERT_TRUE(framed.ok()) << framed.error().message;
    append(expected_stream, *framed);
  }

  // All 64 requests in one write, so they arrive in a handful of slices.
  Session client_session(protocol);
  LengthPrefixFramer client_framer;
  Channel client_channel(client_session, client_framer);
  Bytes requests;
  for (std::size_t i = 0; i < kMessages; ++i) {
    auto framed = client_channel.send(sent[i].root(), 300 + i);
    ASSERT_TRUE(framed.ok());
    append(requests, *framed);
  }
  const int fd = blocking_client(server->port());
  ASSERT_EQ(::send(fd, requests.data(), requests.size(), 0),
            static_cast<ssize_t>(requests.size()));

  Bytes echoed;
  Byte buf[4096];
  while (echoed.size() < expected_stream.size()) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0) << "no echo after " << echoed.size() << "/"
                    << expected_stream.size() << " bytes";
    echoed.insert(echoed.end(), buf, buf + n);
  }
  EXPECT_EQ(echoed, expected_stream);
  ::close(fd);
  server->stop();  // joins the loop: the counters below are final

  EXPECT_GE(ops.reads.load(), 1u);
  EXPECT_LE(ops.sends.load(), ops.reads.load())
      << "more writes than read slices";
  EXPECT_LT(ops.sends.load(), kMessages) << "one write per reply";
  EXPECT_EQ(shard_writes.value() - shard_writes_before, ops.writes.load());
}

/// Writes `count` random requests to a fresh client in one ::send, plus
/// `trailer`, and reads the server's echoes until EOF. Returns how many
/// whole echoes arrived; each must equal its request, and the FIN must not
/// cut one short.
std::size_t echoes_before_fin(
    const std::shared_ptr<const ObfuscatedProtocol>& protocol,
    std::uint16_t port, std::size_t count, BytesView trailer) {
  auto g = Framework::load_spec(kSpec).value();
  Rng rng(31);
  std::vector<Message> sent;
  Session session(protocol);
  LengthPrefixFramer framer;
  Channel channel(session, framer);
  Bytes requests;
  for (std::size_t i = 0; i < count; ++i) {
    sent.push_back(random_message(g, rng));
    EXPECT_TRUE(protocol->canonicalize(sent.back().root()).ok());
    auto framed = channel.send(sent.back().root(), 40 + i);
    EXPECT_TRUE(framed.ok());
    if (framed.ok()) append(requests, *framed);
  }
  append(requests, trailer);
  const int fd = blocking_client(port);
  EXPECT_EQ(::send(fd, requests.data(), requests.size(), 0),
            static_cast<ssize_t>(requests.size()));

  std::size_t received = 0;
  Byte buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    EXPECT_GE(n, 0) << std::strerror(errno);
    if (n <= 0) break;
    channel.on_bytes(BytesView(buf, static_cast<std::size_t>(n)));
    while (auto m = channel.receive()) {
      EXPECT_TRUE(m->ok() && received < count &&
                  ast::equal(***m, sent[received].root()))
          << "echo " << received << " is not its request";
      ++received;
    }
  }
  ::close(fd);
  EXPECT_EQ(channel.reader().buffered(), 0u) << "FIN cut an echo short";
  return received;
}

TEST(NetEcho, HandlerThatRepliesThenClosesSendsTheReplyBeforeTheFin) {
  auto protocol = compile(2018, 2);
  constexpr std::size_t kMessages = 3;

  // Echoes every message and closes gracefully after the last one, from
  // inside the handler — while the slice's replies are still queued.
  Server server(protocol, length_prefix_framer_factory(), {});
  server.on_accept([](Connection& conn) {
    conn.on_message([](Connection& c, Expected<InstPtr> msg) {
      ASSERT_TRUE(msg.ok()) << msg.error().message;
      ASSERT_TRUE(c.send(**msg, c.stats().messages_in).ok());
      if (c.stats().messages_in == kMessages) c.close();
    });
  });
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(echoes_before_fin(protocol, server.port(), kMessages, {}),
            kMessages);
  server.stop();
}

TEST(NetEcho, FramingErrorClosesAfterTheRepliesToTheMessagesBeforeIt) {
  auto protocol = compile(2018, 2);
  std::atomic<bool> saw_malformed{false};
  std::atomic<std::uint64_t> closes{0};
  auto server = echo_server(protocol, {}, &saw_malformed, &closes);

  // Three good requests, then a length prefix far over the framer's limit
  // in the same slice: the replies already queued still go out.
  const Byte bad_prefix[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_EQ(echoes_before_fin(protocol, server->port(), 3,
                              BytesView(bad_prefix, sizeof bad_prefix)),
            3u);
  EXPECT_TRUE(wait_for([&] { return closes.load() == 1; }));
  EXPECT_TRUE(saw_malformed.load()) << "the bad prefix closed as Truncated";
  server->stop();
}

// --- multi-client soak: random chunks, random close points ------------------

TEST(NetSoak, TruncatedClosesAreNeverReportedMalformed) {
  auto protocol = compile(2018, 2);
  auto g = Framework::load_spec(kSpec).value();

  std::atomic<bool> saw_malformed{false};
  std::atomic<std::uint64_t> closes{0};
  Server::Config cfg;
  cfg.shards = 2;
  cfg.reuse_port = true;  // kernel-spread accepts across both shards
  auto server = echo_server(protocol, cfg, &saw_malformed, &closes);

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kMessagesPerClient = 20;
  Rng rng(23);

  std::size_t complete_sent = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    Session session(protocol);
    LengthPrefixFramer framer;
    Channel channel(session, framer);
    const int fd = blocking_client(server->port());

    const bool cut_mid_frame = c % 2 == 0;
    for (std::size_t i = 0; i < kMessagesPerClient; ++i) {
      Message msg = random_message(g, rng);
      auto framed = channel.send(msg.root(), c * 1000 + i);
      ASSERT_TRUE(framed.ok());

      const bool last = i + 1 == kMessagesPerClient;
      // Random cut point strictly inside the frame (a cut at offset 0
      // sends nothing — that is a clean close, covered by the odd
      // clients' last message).
      const std::size_t cut =
          last && cut_mid_frame
              ? 1 + static_cast<std::size_t>(
                        rng.between(0, static_cast<int>(framed->size()) - 2))
              : framed->size();
      std::size_t off = 0;
      while (off < cut) {
        const std::size_t n = std::min<std::size_t>(
            cut - off, static_cast<std::size_t>(rng.between(1, 19)));
        ASSERT_EQ(::send(fd, framed->data() + off, n, 0),
                  static_cast<ssize_t>(n));
        off += n;
      }
      if (cut == framed->size()) ++complete_sent;
    }
    ::close(fd);  // half the clients die mid-frame, half cleanly
  }

  EXPECT_TRUE(wait_for([&] { return closes.load() == kClients; }))
      << closes.load() << "/" << kClients << " closes";
  EXPECT_FALSE(saw_malformed.load())
      << "a truncated close was misreported as Malformed";

  const Server::Stats stats = server->stats();
  EXPECT_EQ(stats.accepted, kClients);
  server->stop();
  (void)complete_sent;  // the echoes themselves are asserted elsewhere
}

// --- backpressure -----------------------------------------------------------

TEST(NetBackpressure, HighWatermarkPausesAndWritableFiresOnDrain) {
  auto protocol = compile(2018, 1);
  auto g = Framework::load_spec(kSpec).value();

  Message big(g);
  ASSERT_TRUE(big.set("tag", to_bytes("XX")).ok());
  ASSERT_TRUE(big.set("body", Bytes(512, 'x')).ok());
  ASSERT_TRUE(protocol->canonicalize(big.root()).ok());

  std::atomic<bool> hit_watermark{false};
  std::atomic<bool> writable_fired{false};
  std::atomic<std::uint64_t> sent_count{0};

  Server::Config cfg;
  // A tiny SO_SNDBUF forces the kernel to refuse bytes almost at once, so
  // the user-space queue (and the watermark) does the flow control.
  cfg.connection.send_buffer = 4096;
  cfg.connection.high_watermark = 32 * 1024;

  Server server(protocol, length_prefix_framer_factory(), cfg);
  server.on_accept([&](Connection& conn) {
    conn.on_writable([&](Connection& c) {
      writable_fired.store(true);
      c.close();  // graceful: flush the tail, then FIN
    });
    conn.on_message([&](Connection& c, Expected<InstPtr> msg) {
      if (!msg.ok()) return;
      // Flood until the watermark trips: a well-behaved producer stops
      // here and waits for on_writable.
      std::size_t guard = 0;
      while (c.writable()) {
        ASSERT_TRUE(c.send(big.root(), sent_count.fetch_add(1) + 1).ok());
        ASSERT_LT(++guard, 100000u) << "watermark never tripped";
      }
      hit_watermark.store(true);
    });
  });
  ASSERT_TRUE(server.start().ok());

  const int fd = blocking_client(server.port());
  // Trigger the flood.
  Session session(protocol);
  LengthPrefixFramer framer;
  Channel channel(session, framer);
  auto trigger = channel.send(big.root(), 7);
  ASSERT_TRUE(trigger.ok());
  ASSERT_EQ(::send(fd, trigger->data(), trigger->size(), 0),
            static_cast<ssize_t>(trigger->size()));

  ASSERT_TRUE(wait_for([&] { return hit_watermark.load(); }));

  // Now drain: read everything until the server's graceful close.
  std::size_t received = 0;
  Byte buf[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    channel.on_bytes(BytesView(buf, static_cast<std::size_t>(n)));
    while (auto m = channel.receive()) {
      ASSERT_TRUE(m->ok()) << (*m).error().message;
      ++received;
    }
  }
  ::close(fd);

  EXPECT_TRUE(writable_fired.load());
  EXPECT_EQ(received, sent_count.load());
  EXPECT_EQ(channel.reader().buffered(), 0u) << "server cut a frame short";
  server.stop();
}

// --- idle timeout -----------------------------------------------------------

TEST(NetIdle, IdleTimeoutClosesWithTruncatedTaxonomy) {
  auto protocol = compile(2018, 1);

  std::atomic<bool> closed{false};
  std::atomic<bool> truncated{false};
  Server::Config cfg;
  cfg.connection.idle_timeout = std::chrono::milliseconds(80);
  Server server(protocol, length_prefix_framer_factory(), cfg);
  server.on_accept([&](Connection& conn) {
    conn.on_close([&](Connection&, const Error* err) {
      truncated.store(err != nullptr && err->kind == ErrorKind::Truncated);
      closed.store(true);
    });
  });
  ASSERT_TRUE(server.start().ok());

  const int fd = blocking_client(server.port());
  // A frame prefix, then silence: the idle sweep must reap the connection.
  const Byte partial[3] = {0, 0, 0};
  ASSERT_EQ(::send(fd, partial, sizeof partial, 0), 3);

  EXPECT_TRUE(wait_for([&] { return closed.load(); }));
  EXPECT_TRUE(truncated.load()) << "idle close not classified Truncated";
  ::close(fd);
  server.stop();
}

// --- per-connection framer state: obfuscated framing over sockets -----------

TEST(NetObfFraming, ObfuscatedFramerFactoryServesConcurrentClients) {
  auto protocol = compile(2018, 2);
  auto g = Framework::load_spec(kSpec).value();

  // Obfuscated frame boundary: compile a stream-safe frame protocol.
  constexpr std::string_view kFrameSpec = R"(
protocol Frame
frame: seq end {
  flen: terminal fixed(4)
  fbody: terminal length(flen)
}
)";
  const Graph frame_graph = Framework::load_spec(kFrameSpec).value();
  std::shared_ptr<const ObfuscatedProtocol> framing;
  for (std::uint64_t seed = 13; seed < 13 + 64; ++seed) {
    auto compiled = Framework::generate(frame_graph, config_of(seed, 2));
    if (!compiled.ok()) continue;
    auto entry =
        std::make_shared<const ObfuscatedProtocol>(std::move(*compiled));
    if (!stream_safe(entry->wire_graph()).ok()) continue;
    if (ObfuscatedFramer::create(entry).ok()) {
      framing = entry;
      break;
    }
  }
  ASSERT_NE(framing, nullptr) << "no stream-safe frame seed found";

  std::atomic<bool> saw_malformed{false};
  std::atomic<std::uint64_t> closes{0};
  Server server(protocol, obfuscated_framer_factory(framing), {});
  server.on_accept([&](Connection& conn) {
    conn.on_message([](Connection& c, Expected<InstPtr> msg) {
      if (!msg.ok()) return;
      (void)c.send(**msg, c.stats().messages_in);
    });
    conn.on_close([&](Connection&, const Error* err) {
      if (err != nullptr && err->kind == ErrorKind::Malformed) {
        saw_malformed.store(true);
      }
      closes.fetch_add(1);
    });
  });
  ASSERT_TRUE(server.start().ok());

  // Two interleaved clients with independent framer decode state.
  constexpr std::size_t kMessages = 6;
  Rng rng(31);
  struct Client {
    std::unique_ptr<Session> session;
    std::unique_ptr<ObfuscatedFramer> framer;
    std::unique_ptr<Channel> channel;
    int fd = -1;
    std::size_t echoed = 0;
    std::vector<Message> sent;
  };
  Client clients[2];
  for (Client& c : clients) {
    c.session = std::make_unique<Session>(protocol);
    c.framer = ObfuscatedFramer::create(framing).value();
    c.channel = std::make_unique<Channel>(*c.session, *c.framer);
    c.fd = blocking_client(server.port());
  }
  for (std::size_t i = 0; i < kMessages; ++i) {
    for (Client& c : clients) {
      c.sent.push_back(random_message(g, rng));
      ASSERT_TRUE(protocol->canonicalize(c.sent.back().root()).ok());
      auto framed = c.channel->send(c.sent.back().root(), i + 50);
      ASSERT_TRUE(framed.ok()) << framed.error().message;
      ASSERT_EQ(::send(c.fd, framed->data(), framed->size(), 0),
                static_cast<ssize_t>(framed->size()));
    }
  }
  for (Client& c : clients) {
    Byte buf[4096];
    while (c.echoed < kMessages) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      ASSERT_GT(n, 0);
      c.channel->on_bytes(BytesView(buf, static_cast<std::size_t>(n)));
      while (auto m = c.channel->receive()) {
        ASSERT_TRUE(m->ok()) << (*m).error().message;
        EXPECT_TRUE(ast::equal(***m, c.sent[c.echoed].root()));
        ++c.echoed;
      }
      ASSERT_FALSE(c.channel->failed()) << c.channel->error().message;
    }
    ::close(c.fd);
  }
  EXPECT_TRUE(wait_for([&] { return closes.load() == 2; }));
  EXPECT_FALSE(saw_malformed.load());
  server.stop();
}

TEST(NetObfFraming, DelimiterBoundedFramesResumeAcrossSocketFragments) {
  // ISSUE 5: socket delivery of a delimiter-bounded frame spec rides the
  // resumable prefix parse — a fragmented frame is continued, not
  // re-parsed from byte 0, on every readiness callback. The spec carries
  // no length field anywhere, so without resumption every delivered
  // fragment would re-walk the whole accumulated front.
  constexpr std::string_view kDelimFrameSpec = R"(
protocol DelimFrame
frame: seq end {
  fbody: terminal delimited("\r\n") ascii
}
)";
  // Identity compilations: the inner NetDemo wire bytes (A-Z tags, a-z
  // bodies, a small binary length) can never contain "\r\n", so delimiter
  // containment at encode time holds for every message.
  auto protocol = compile(1, 0);
  auto g = Framework::load_spec(kSpec).value();
  auto framing = std::make_shared<const ObfuscatedProtocol>(
      Framework::generate(Framework::load_spec(kDelimFrameSpec).value(),
                          config_of(1, 0))
          .value());
  ObfuscatedFramer::Config framer_cfg;
  framer_cfg.payload_path = "fbody";

  // Per-connection resume accounting, read server-side at close.
  std::atomic<std::uint64_t> attempts{0}, resumed{0}, frames_in{0};
  std::atomic<std::uint64_t> closes{0};
  std::atomic<bool> saw_malformed{false};
  Server server(protocol,
                obfuscated_framer_factory(framing, framer_cfg), {});
  server.on_accept([&](Connection& conn) {
    conn.on_message([&](Connection& c, Expected<InstPtr> msg) {
      if (!msg.ok()) return;
      frames_in.fetch_add(1);
      (void)c.send(**msg, c.stats().messages_in);
    });
    conn.on_close([&](Connection& c, const Error* err) {
      if (err != nullptr && err->kind == ErrorKind::Malformed) {
        saw_malformed.store(true);
      }
      if (const auto* obf = dynamic_cast<const ObfuscatedFramer*>(
              &c.channel().framer())) {
        attempts.fetch_add(obf->resume_stats().attempts);
        resumed.fetch_add(obf->resume_stats().resumed);
      }
      closes.fetch_add(1);
    });
  });
  ASSERT_TRUE(server.start().ok());

  Session session(protocol);
  auto client_framer = ObfuscatedFramer::create(framing, framer_cfg).value();
  Channel channel(session, *client_framer);
  const int fd = blocking_client(server.port());

  constexpr std::size_t kMessages = 4;
  Rng rng(47);
  std::vector<Message> sent;
  for (std::size_t i = 0; i < kMessages; ++i) {
    sent.push_back(random_message(g, rng));
    ASSERT_TRUE(protocol->canonicalize(sent.back().root()).ok());
    auto framed = channel.send(sent.back().root(), i + 7);
    ASSERT_TRUE(framed.ok()) << framed.error().message;
    // Trickle each frame in small slices with pauses, so the server's
    // readiness loop sees the frame arrive in fragments.
    for (std::size_t off = 0; off < framed->size(); off += 3) {
      const std::size_t n = std::min<std::size_t>(3, framed->size() - off);
      ASSERT_EQ(::send(fd, framed->data() + off, n, 0),
                static_cast<ssize_t>(n));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  std::size_t echoed = 0;
  Byte buf[4096];
  while (echoed < kMessages) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0);
    channel.on_bytes(BytesView(buf, static_cast<std::size_t>(n)));
    while (auto m = channel.receive()) {
      ASSERT_TRUE(m->ok()) << (*m).error().message;
      EXPECT_TRUE(ast::equal(***m, sent[echoed].root()));
      ++echoed;
    }
    ASSERT_FALSE(channel.failed()) << channel.error().message;
  }
  ::close(fd);
  EXPECT_TRUE(wait_for([&] { return closes.load() == 1; }));
  EXPECT_FALSE(saw_malformed.load());
  EXPECT_EQ(frames_in.load(), kMessages);
  // The property under test: *if* the kernel delivered any frame in
  // fragments (attempts > one per frame), the retries resumed a suspended
  // parse instead of restarting. Fully coalesced delivery (possible on a
  // loaded machine) trivially satisfies it with attempts == frames.
  EXPECT_TRUE(resumed.load() > 0 || attempts.load() <= frames_in.load())
      << "attempts=" << attempts.load() << " resumed=" << resumed.load();
  server.stop();
}

// --- timer dispatch re-entrancy (ISSUE 8 satellites) ------------------------

TEST(EventLoop, PeriodicTimerCancelsItselfDuringItsOwnDispatch) {
  EventLoop loop;
  int fired = 0;
  EventLoop::TimerId id = 0;
  id = loop.add_timer(std::chrono::milliseconds(5),
                      [&] {
                        ++fired;
                        // Self-cancel from inside the callback: the
                        // periodic re-arm below it must be suppressed.
                        loop.cancel_timer(id);
                      },
                      std::chrono::milliseconds(5));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(120);
  while (std::chrono::steady_clock::now() < deadline) loop.run_once(10);
  EXPECT_EQ(fired, 1) << "a self-cancelled periodic timer refired";
}

TEST(EventLoop, TimerReAddedDuringItsOwnDispatchFiresOnSchedule) {
  EventLoop loop;
  std::vector<char> order;
  loop.add_timer(std::chrono::milliseconds(5), [&] {
    order.push_back('a');
    // Re-add from inside dispatch: the new timer joins the heap and fires
    // on its own deadline — neither recursively in this batch nor never.
    loop.add_timer(std::chrono::milliseconds(5),
                   [&] { order.push_back('c'); });
  });
  loop.add_timer(std::chrono::milliseconds(30), [&] { order.push_back('b'); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (order.size() < 3 && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(10);
  }
  EXPECT_EQ(order, (std::vector<char>{'a', 'c', 'b'}));
}

TEST(EventLoop, PeriodicTimerCancelsItselfAndReArmsAReplacement) {
  EventLoop loop;
  int periodic = 0;
  int replacement = 0;
  EventLoop::TimerId id = 0;
  id = loop.add_timer(std::chrono::milliseconds(5),
                      [&] {
                        if (++periodic == 2) {
                          // The hardest interleaving: cancel the firing
                          // timer AND grow the heap in the same callback.
                          loop.cancel_timer(id);
                          loop.add_timer(std::chrono::milliseconds(5),
                                         [&] { ++replacement; });
                        }
                      },
                      std::chrono::milliseconds(5));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (replacement == 0 && std::chrono::steady_clock::now() < deadline) {
    loop.run_once(10);
  }
  EXPECT_EQ(periodic, 2);
  EXPECT_EQ(replacement, 1);
}

// --- round-robin handoff at the per-shard cap -------------------------------

TEST(NetServer, RoundRobinHandoffSkipsShardAtItsConnectionCap) {
  auto protocol = compile(2018, 1);
  Server::Config cfg;
  cfg.shards = 3;
  cfg.reuse_port = false;  // shard 0 accepts, hands fds around
  cfg.shard_max_connections = 1;
  auto server = echo_server(protocol, cfg);

  // c1 -> shard 0, c2 -> shard 1 (plain rotation).
  const int c1 = blocking_client(server->port());
  ASSERT_TRUE(wait_for([&] { return server->stats().active == 1; }));
  const int c2 = blocking_client(server->port());
  ASSERT_TRUE(wait_for([&] { return server->stats().active == 2; }));
  EXPECT_EQ(server->shard_occupancy(0), 1u);
  EXPECT_EQ(server->shard_occupancy(1), 1u);

  // Free shard 1, fill shard 2: the rotation cursor now points at shard 0,
  // which is AT its cap.
  ::close(c2);
  ASSERT_TRUE(wait_for([&] { return server->stats().active == 1; }));
  const int c3 = blocking_client(server->port());
  ASSERT_TRUE(wait_for([&] { return server->stats().active == 2; }));
  EXPECT_EQ(server->shard_occupancy(2), 1u);

  // The handoff must skip at-cap shard 0 and land on shard 1 — the fd is
  // served, not dropped.
  const int c4 = blocking_client(server->port());
  ASSERT_TRUE(wait_for([&] { return server->stats().active == 3; }));
  EXPECT_EQ(server->shard_occupancy(0), 1u);
  EXPECT_EQ(server->shard_occupancy(1), 1u);
  EXPECT_EQ(server->shard_occupancy(2), 1u);

  // Proof the skipped-to connection really works: echo one message on it.
  auto g = Framework::load_spec(kSpec).value();
  Rng rng(23);
  Message msg = random_message(g, rng);
  ASSERT_TRUE(protocol->canonicalize(msg.root()).ok());
  Session session(protocol);
  LengthPrefixFramer framer;
  Channel channel(session, framer);
  auto framed = channel.send(msg.root(), 9);
  ASSERT_TRUE(framed.ok());
  ASSERT_EQ(::send(c4, framed->data(), framed->size(), 0),
            static_cast<ssize_t>(framed->size()));
  Byte buf[4096];
  InstPtr echo;
  while (echo == nullptr) {
    const ssize_t n = ::recv(c4, buf, sizeof buf, 0);
    ASSERT_GT(n, 0);
    channel.on_bytes(BytesView(buf, static_cast<std::size_t>(n)));
    if (auto m = channel.receive()) {
      ASSERT_TRUE(m->ok());
      echo = std::move(**m);
    }
  }
  EXPECT_TRUE(ast::equal(*echo, msg.root()));

  ::close(c1);
  ::close(c3);
  ::close(c4);
  server->stop();
}

}  // namespace
}  // namespace protoobf
