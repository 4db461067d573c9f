// Obfuscated TCP server: N event-loop shards owning N sets of Channels.
//
// The Server is the end of the road the repo has been building toward: the
// compiled protocol is shared (one immutable ObfuscatedProtocol), but every
// accepted connection gets its own Session (arena, node pool) and its own
// Framer from a pluggable factory — per-connection decode state, as the
// streaming layer requires. Two sharding modes:
//
//   * reuse_port (default) — every shard binds its own SO_REUSEPORT listen
//     socket on the same endpoint and the kernel spreads accepts across
//     them; no cross-thread handoff at all;
//   * round-robin — shard 0 owns the only listen socket and hands accepted
//     fds to shards via EventLoop::post; useful where SO_REUSEPORT is
//     unavailable or connection balance must be exact.
//
// Handlers run on shard threads. The per-connection callbacks installed in
// on_accept stay on that connection's shard for its whole life, so handler
// code needs no locking as long as it keeps to per-connection state.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"

namespace protoobf::net {

class Server {
 public:
  struct Config {
    Endpoint endpoint;          // port 0 = ephemeral, read back via port()
    std::size_t shards = 1;     // event-loop threads
    bool reuse_port = true;     // per-shard listeners vs round-robin handoff
    int backlog = 128;
    Connection::Config connection;

    // Overload protection. At max_connections the listeners stop being
    // watched (pending peers wait in the kernel backlog instead of
    // consuming fds and sessions); accepting resumes once closes bring the
    // count down to low_watermark (0 = 7/8 of the cap). 0 = no cap.
    std::size_t max_connections = 0;
    std::size_t low_watermark = 0;
    // Per-shard connection ceiling consulted by the round-robin handoff:
    // an at-cap shard is skipped in favour of the next one with room (the
    // fd is never dropped — if every shard is full the least-loaded one
    // takes it; the global cap is what actually stops intake). 0 = derive
    // ceil(max_connections / shards), unlimited when that is 0 too.
    std::size_t shard_max_connections = 0;
    // Per-shard ceiling on summed write-queue bytes. A periodic sweep
    // sheds connections — oldest activity first, queue discarded — until
    // the shard is back under. 0 = no ceiling.
    std::size_t shard_pending_limit = 0;
    std::chrono::milliseconds pending_sweep_interval{100};
    // drain() logs a final registry snapshot (JSON, stderr) once every
    // connection is gone — the operator's shutdown report. Off by default;
    // `protoobf serve` turns it on unless --no-metrics.
    bool log_drain_snapshot = false;
  };

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;  // framer factory / registration failures
    std::uint64_t closed = 0;
    std::uint64_t shed = 0;      // aborted by the pending-byte sweep
    std::uint64_t active = 0;
  };

  /// Runs on the owning shard's thread right after a connection is
  /// created and before it starts reading — install on_message/on_close/
  /// on_writable here.
  using AcceptHandler = std::function<void(Connection&)>;

  Server(std::shared_ptr<const ObfuscatedProtocol> protocol,
         FramerFactory framer_factory, Config config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void on_accept(AcceptHandler handler) { accept_cb_ = std::move(handler); }

  /// Binds, listens, and starts the shard threads. Fails without side
  /// effects (no threads) when binding fails.
  Status start();

  /// Stops accepting, aborts the remaining connections, stops the loops
  /// and joins the shard threads. Idempotent.
  void stop();

  /// Graceful shutdown (the SIGTERM path): closes the listeners, asks
  /// every connection to close gracefully — write queues flush first —
  /// then waits up to `grace` for them to finish before stop(). Call from
  /// outside the shard threads (a signal-handling main thread).
  void drain(std::chrono::milliseconds grace = std::chrono::milliseconds(5000));

  /// The bound port (meaningful after start(); resolves endpoint.port 0).
  std::uint16_t port() const { return port_; }

  Stats stats() const;
  std::size_t shard_count() const { return shards_.size(); }

  /// Live connections currently owned by shard `i` (handoffs in flight
  /// included). Exposed so tests can pin the handoff balance.
  std::size_t shard_occupancy(std::size_t i) const;

 private:
  struct Shard {
    std::size_t index = 0;
    obs::NetMetrics* metrics = nullptr;  // this shard's registry bundle
    EventLoop loop;
    std::thread thread;
    Fd listen;
    std::unordered_map<int, std::unique_ptr<Connection>> conns;
    // Close handlers run inside Connection frames; dead connections rest
    // here until a posted sweep destroys them off that stack.
    std::vector<std::unique_ptr<Connection>> graveyard;
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> closed{0};
    std::atomic<std::uint64_t> shed{0};
    // Connections owned + handoffs posted but not yet adopted. Written by
    // the accepting shard, read by every shard's retire path.
    std::atomic<std::int64_t> occupancy{0};
    std::atomic<bool> accept_paused{false};
  };

  void handle_accept(Shard& shard);
  void adopt(Shard& shard, Fd fd);
  void retire(Shard& shard, int key, Connection& conn);
  Shard& pick_target();
  std::size_t per_shard_cap() const;
  std::size_t total_occupancy() const;
  void maybe_resume_accepts();
  void sweep_pending(Shard& shard);

  std::shared_ptr<const ObfuscatedProtocol> protocol_;
  FramerFactory framer_factory_;
  Config config_;
  AcceptHandler accept_cb_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t next_shard_ = 0;  // round-robin cursor (shard-0 thread only)
  std::uint16_t port_ = 0;
  bool started_ = false;
};

}  // namespace protoobf::net
