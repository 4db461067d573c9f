// Wire parser: byte buffer -> wire AST (instances of G(n+1)).
//
// A recursive-descent parser driven by the final message format graph. The
// interesting part is reference resolution (paper §V-C: "to rebuild a
// sub-node of AST from the message, it must first delimit the corresponding
// sub-part"): a Length/Counter/Condition target may itself have been
// transformed — split in two, xored, wrapped — so the parser recovers its
// *logical* value by running the target's read plan (transform/lineage.hpp:
// its lineage chain's inverse over the leaf bytes of the already-parsed
// subtree, with no node copied) before using it to delimit what follows.
// The target's instance is found along its static route from the
// dependant's ancestors (runtime/scope.hpp), which the parser's recursion
// carries on the stack.
#pragma once

#include "ast/ast.hpp"
#include "graph/graph.hpp"
#include "runtime/resume.hpp"
#include "runtime/workspace.hpp"
#include "transform/lineage.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace protoobf {

/// Parses a complete wire message. Errors carry the wire offset where the
/// failure was detected. The returned tree instantiates the *final* graph;
/// run transform/exec.hpp's inverse_program to recover the G1 tree.
///
/// Every tree node comes from the workspace's pool — and every terminal
/// payload lands in recycled Bytes capacity — so a kept workspace parses
/// with no heap allocation in steady state. Non-direct reference reads run
/// in its `registers`, mirrored regions' reversed copies come from its
/// `buffers`.
Expected<InstPtr> parse_wire(const Graph& wire, const Journal& journal,
                             const HolderTable& table, BytesView data,
                             Workspace& ws);

/// Streaming variant: parses exactly one message from the *front* of
/// `data`, tolerating trailing bytes (the next message's prefix in a byte
/// stream). On success `consumed` receives the message's wire size. When
/// the buffer ends before the message does, the error carries
/// ErrorKind::Truncated plus a minimum-additional-bytes hint instead of a
/// plain failure — the signal framers turn into "need more bytes".
///
/// `resume`, when given, makes truncation retries incremental: a Truncated
/// outcome suspends the partial parse (pooled partial tree, child cursors,
/// delimiter-scan progress) into `resume`, and the next call with the same
/// buffer front — same bytes, possibly more appended — continues from the
/// truncation point instead of byte 0. The retry walks the suspended spine
/// down again, so references to committed holders resolve inside the
/// partial trees. This is what
/// keeps delimiter-bounded wire formats at amortized O(1) parse work per
/// delivered byte under trickled delivery. The caller owns invalidation:
/// see ParseResume's header for the validity contract. A streaming caller
/// keeps its workspace across calls, as it keeps `resume`.
///
/// Requires a stream-safe wire graph (see stream_safe()): a boundary that
/// extends "to the end of the input" cannot delimit itself in a stream, and
/// is reported as malformed here.
Expected<InstPtr> parse_wire_prefix(const Graph& wire, const Journal& journal,
                                    const HolderTable& table, BytesView data,
                                    std::size_t& consumed, Workspace& ws,
                                    ParseResume* resume = nullptr);

/// Checks that the wire graph delimits its own messages, i.e. that no node
/// parsed in a stream-open position depends on where the input ends: a
/// Terminal/Repetition (or mirrored subtree) bounded by `end`, or a split
/// `half`, consumes "whatever is left" and therefore cannot be framed by
/// content alone. Root sequences bounded by `end` are fine — their children
/// delimit themselves. Framers check this once at construction instead of
/// failing on the first decode.
Status stream_safe(const Graph& wire);

/// Static lower bound on the wire size of any message of `wire`: fixed
/// regions and delimiters/stop markers count in full, optionals and
/// repetitions count as absent/empty, length/count-bounded regions as zero.
/// Stream framers use it as the minimum-bytes floor before the first decode
/// attempt — for a length-driven frame format this makes the initial
/// need-more hint exact (the header size) instead of the 1-byte floor.
std::size_t min_wire_size(const Graph& wire);

}  // namespace protoobf
