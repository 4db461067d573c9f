// ParseResume: the checkpoint a truncated prefix parse leaves behind.
//
// A delimiter-bounded wire format gives the receiver no length field to
// plan around, so under trickled delivery the prefix parser used to re-walk
// the buffer front from byte 0 on every arriving chunk — O(n²) work per
// frame, the DoS shape ScrambleSuit-style deployments face on purpose.
// ParseResume converts every truncation-retry path into continue-from-
// cursor: when parse_wire_prefix ends in ErrorKind::Truncated it suspends
// its state here, and the next attempt on the same (grown) buffer front
// restores it instead of starting over.
//
// What is checkpointed — exactly the state of the *stream-open spine*, the
// recursion path parsed against the soft end of the input (everything off
// that path either completed or failed hard, so nothing else can be
// mid-flight at a truncation):
//   * one ResumeFrame per spine node: the partially built, pooled Inst
//     (committed children stay parsed), the child/element cursor, the
//     position the in-progress child started at;
//   * incremental matcher state: how far a delimiter scan got without
//     finding its delimiter, so the retry never re-reads rejected bytes,
//     and the cached element count of an open Tabular.
// Nothing else: the retry walks the spine down again, which rebuilds the
// ancestors references resolve from (runtime/scope.hpp), and a committed
// holder is found inside the partial trees where it was linked.
//
// Validity contract (README "Streaming over TCP" spells it out for users):
// a checkpoint is only meaningful while the retry sees the *same buffer
// front with bytes appended*. The owner must invalidate() whenever the
// front moves for any other reason — StreamReader does so on resync() and
// reset() through Framer::invalidate_decode_state(); compaction is fine
// (offsets are window-relative and the retained bytes do not move
// logically). A successful parse or a hard (Malformed) failure clears the
// state automatically. As a last-resort guard the parser invalidates a
// checkpoint on its own when the buffer shrank below the suspended size.
//
// The partial trees draw from the same workspace pool as the eventual
// result, and may outlive it (ast/pool.hpp). One thread of control, like
// that workspace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "ast/ast.hpp"
#include "graph/graph.hpp"

namespace protoobf {

/// Checkpoint of one node on the stream-open spine.
struct ResumeFrame {
  NodeId node = kNoNode;       // graph node this frame describes
  InstPtr partial;             // committed children; null before creation
  std::size_t start = 0;       // window offset the node's parse began at
  std::size_t pos = 0;         // window offset of the in-progress child
  std::size_t next_child = 0;  // Sequence: child index; Rep/Tabular: element#
  std::uint64_t total = 0;     // Tabular: cached element count…
  bool counted = false;        // …valid once the holder was read
  std::size_t scan_from = 0;   // Delimited: next delimiter-scan start
  bool scanning = false;       // scan_from valid (a scan came up short)
};

class ParseResume {
 public:
  struct Stats {
    std::uint64_t attempts = 0;       // prefix-parse attempts overall
    std::uint64_t resumed = 0;        // attempts continued from a checkpoint
    std::uint64_t suspensions = 0;    // truncations that left a checkpoint
    std::uint64_t invalidations = 0;  // checkpoints dropped unconsumed
    std::uint64_t scanned_bytes = 0;  // delimiter/stop-marker bytes examined
  };

  ParseResume() = default;
  ParseResume(const ParseResume&) = delete;
  ParseResume& operator=(const ParseResume&) = delete;

  /// Whether a suspended parse is waiting to be continued.
  bool active() const { return active_; }

  /// Drops any suspended state: partial trees return to their pool. Must
  /// be called whenever the buffer front the checkpoint describes moves for
  /// any reason other than appending bytes. Calling it before every attempt
  /// measures the restart-from-zero baseline with the same accounting.
  void invalidate() {
    if (active_ || !spine_.empty()) ++stats_.invalidations;
    discard();
  }

  const Stats& stats() const { return stats_; }

  /// Bytes of the buffer front already accounted for by the checkpoint
  /// (the suspended attempt's window size). 0 when inactive.
  std::size_t suspended_size() const { return active_ ? seen_ : 0; }

  /// Spine depth of the suspended parse (tests/diagnostics).
  std::size_t depth() const { return spine_.size(); }

  // --- parser-internal interface (parse_wire_prefix is the only writer) ---

  std::deque<ResumeFrame>& spine() { return spine_; }
  Stats& mutable_stats() { return stats_; }

  /// Marks the current spine as a live checkpoint for a window of `seen`
  /// bytes (called when a checkpointed attempt ends Truncated).
  void suspend(std::size_t seen) {
    active_ = true;
    seen_ = seen;
    ++stats_.suspensions;
  }

  /// Clears without counting an invalidation: a fresh attempt starting
  /// over, or a completed parse consuming its checkpoint.
  void discard() {
    spine_.clear();
    active_ = false;
    seen_ = 0;
  }

 private:
  std::deque<ResumeFrame> spine_;  // root → leaf of the open spine
  std::size_t seen_ = 0;            // window size at suspension
  bool active_ = false;
  Stats stats_;
};

}  // namespace protoobf
