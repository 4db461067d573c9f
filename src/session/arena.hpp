// Per-session serialization arena.
//
// A session serializes and parses a long stream of messages against one
// compiled protocol. Without an arena every serialize() grows a fresh Bytes
// from zero capacity, every mirrored region in parse() allocates its
// reversed copy, and every message materializes a fresh Inst tree node by
// node; at traffic scale those per-message heap round-trips dominate the
// runtime cost of small messages. The arena keeps one wire buffer, one
// frame buffer, one scratch pool, one derive-pass bundle and one AST node
// pool per session so the steady state reuses capacity established by the
// first few messages — including whole parse trees and serialize workspaces,
// which recycle through the node pool. Each buffer's own capacity is its
// high-water mark: emission clears a buffer without releasing it.
//
// Not thread-safe: one arena per session, one session per thread of
// control.
#pragma once

#include "ast/pool.hpp"
#include "runtime/derive.hpp"
#include "util/bytes.hpp"

namespace protoobf {

class SessionArena {
 public:
  /// Reusable wire-image buffer for serialize_into(). Contents are valid
  /// until the next serialization through this arena.
  Bytes& wire() { return wire_; }
  const Bytes& wire() const { return wire_; }

  /// Reusable framed-image buffer: Channel::send() wraps wire() into a
  /// frame here, so the framing layer allocates nothing in steady state.
  /// Contents are valid until the next send through this arena.
  Bytes& frame() { return frame_; }
  const Bytes& frame() const { return frame_; }

  /// Scratch buffers for parse() mirrored-region copies.
  BufferPool& scratch() { return scratch_; }

  /// Reusable derive-pass scratch (the pairs, encoding and read-plan
  /// register buffers of canonicalize()/fix_holders()), the last
  /// per-message allocations of the hot path before it was arena-held.
  DeriveScratch& derive() { return derive_; }

  /// AST node pool backing parse trees and serialize workspaces. Trees
  /// drawn from it must not outlive the arena.
  InstPool& nodes() { return nodes_; }
  const InstPool& nodes() const { return nodes_; }

  /// Bytes of capacity currently retained by the wire and frame buffers.
  std::size_t retained() const { return wire_.capacity() + frame_.capacity(); }

  /// Releases all retained memory (e.g. when a session goes idle). Node
  /// slabs with live trees stay pinned until those trees are dropped.
  void shrink();

 private:
  Bytes wire_;
  Bytes frame_;
  BufferPool scratch_;
  DeriveScratch derive_;
  InstPool nodes_;
};

}  // namespace protoobf
