// Obfuscation session: the per-connection runtime object.
//
// A Session binds one compiled protocol (immutable, shared by every session
// that speaks it) to one SessionArena of per-session serialization state.
// It is the intended entry point for servers: the arena amortizes buffer
// and node allocation across the messages of one connection, and a server
// gets its parallelism by sharding connections, each with its own session.
//
// Semantics contract (tests/session_test.cpp): every path produces results
// byte-identical to the plain ObfuscatedProtocol::serialize()/parse() calls
// with the same arguments, including error behaviour. The session only
// changes where the bytes live.
//
// Threading: one Session per thread of control. The shared protocol is safe
// to share across sessions.
#pragma once

#include <memory>
#include <vector>

#include "runtime/protocol.hpp"
#include "session/arena.hpp"

namespace protoobf {

class Session {
 public:
  explicit Session(std::shared_ptr<const ObfuscatedProtocol> protocol)
      : protocol_(std::move(protocol)) {}

  const ObfuscatedProtocol& protocol() const { return *protocol_; }

  /// Serializes through the session arena. The returned view aliases the
  /// arena and is valid until the next serialize() on this session;
  /// callers that need to keep the bytes copy them.
  Expected<BytesView> serialize(const Inst& message, std::uint64_t msg_seed,
                                std::vector<FieldSpan>* spans = nullptr);

  /// Parses with the arena backing the whole operation: scratch buffers
  /// for mirrored regions and read-plan registers, derive-pass scratch,
  /// and the node pool every instance of the result comes from. Steady
  /// state performs O(1) small allocations per message (under one for HTTP
  /// at per_node 2 and 4, pinned in alloc_test), never O(nodes).
  /// Because dropping the returned tree recycles its nodes
  /// into the arena's pool, the tree must not outlive the session and
  /// must be destroyed on the session's thread of control — handing a
  /// tree to another thread requires dropping it back here (or copying
  /// it).
  Expected<InstPtr> parse(BytesView wire);

  /// The session arena. Channel routes its frame buffer through it so
  /// streaming reuses the session's capacity; same threading rule as the
  /// session itself (one thread of control).
  SessionArena& arena() { return arena_; }

 private:
  std::shared_ptr<const ObfuscatedProtocol> protocol_;
  SessionArena arena_;
};

}  // namespace protoobf
