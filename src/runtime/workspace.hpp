// Workspace: the reusable state one runtime call works in.
//
// Serialize, parse and their passes (runtime/protocol.hpp, parse.hpp,
// derive.hpp) take one Workspace& instead of a pointer per buffer. Each
// member keeps its capacity between messages, so a caller that keeps its
// workspace — a session arena, a framer, a fuzz runner — serializes and
// parses without heap traffic in steady state. The plain
// ObfuscatedProtocol::serialize()/parse()/canonicalize() build a local one
// per call.
//
// Nothing in a workspace carries meaning from one call to the next: each
// pass resets what it uses, so one workspace may alternate between
// protocols message by message.
//
// Not thread-safe: a workspace belongs to one thread of control, and so do
// the trees drawn from its node pool (they may outlive it; ast/pool.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ast/ast.hpp"
#include "ast/pool.hpp"
#include "transform/exec.hpp"
#include "transform/lineage.hpp"
#include "util/bytes.hpp"

namespace protoobf {

/// One (holder, measured) pair of a derive pass: the instance carrying a
/// derived value and the instance whose emitted size (Length) or element
/// count (Counter) defines it.
struct DeriveRef {
  static constexpr std::uint64_t kUnmeasured = ~std::uint64_t{0};

  Inst* holder;
  Inst* measured;
  const HolderInfo* info;
  std::size_t first;    // index of the first pair with this holder instance
  std::uint64_t value;  // first pair: the value its visited pairs measured
  bool is_counter;
};

/// A condition-bearing Optional the G1 walk reached, and the instance of
/// its condition target (null when the target did not resolve).
struct ConditionRef {
  const Inst* optional;
  const Inst* target;
};

struct Workspace {
  static constexpr std::size_t kNoPair = ~std::size_t{0};

  std::vector<DeriveRef> pairs;     // a derive pass's work list
  std::vector<std::size_t> latest;  // per holder of the table: its latest
                                    // pair so far (kNoPair: none)
  std::vector<ConditionRef> conditions;  // the G1 walk's Optionals
  Bytes encoded;                    // holder-encoding buffer
  Bytes region;                     // a measured region, emitted to be sized
  Bytes registers;                  // a read plan's registers: fix_holders'
                                    // checks and the parser's reference
                                    // reads, which never nest
  EntryStreams streams;             // serialize's per-entry random streams
  InstPool nodes;                   // serialize's working copy, parse trees
  BufferPool buffers;               // reversed copies of mirrored regions,
                                    // which nest

  /// Releases every member's capacity (e.g. when a session goes idle).
  /// Node slabs with live trees stay pinned until those trees are dropped.
  void shrink() {
    pairs = {};
    latest = {};
    conditions = {};
    encoded = {};
    region = {};
    registers = {};
    streams = {};
    nodes.shrink();
    buffers.shrink();
  }
};

}  // namespace protoobf
