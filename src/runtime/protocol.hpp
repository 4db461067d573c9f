// ObfuscatedProtocol: the runtime artifact the framework produces.
//
// Paper §IV: "the output of the framework is the source code for the
// message parser and the corresponding message serializer". This class is
// the executable equivalent of that generated library (src/codegen emits
// the literal source-code rendition): it bundles the original graph G1, the
// final graph G(n+1), the transformation journal compiled into per-node
// programs, and the derived-field lineage, and exposes serialize()/parse()
// that perform each node's transformations on the fly at that node's
// instances, as the paper's generated code does.
//
// Each direction walks the G1 tree once (runtime/derive.hpp): serialize
// copies the caller's tree into pool nodes while it checks it against G1
// and canonicalizes it, then runs the compiled journal forward, derives the
// wire holders (fix_holders) and emits; parse reads the wire (parse_wire),
// inverts the journal and canonicalizes the result in place, which also
// checks it. The identity protocol — an empty journal over a wire graph
// equal to G1 — serializes the canonical copy as it is: the forward pass
// and fix_holders would leave it unchanged.
//
// Round-trip contract (property-tested): for any message m built against
// G1, parse(serialize(m)) compares equal to canonical(m) — canonical
// meaning constant fields filled and derived fields recomputed.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "runtime/derive.hpp"
#include "runtime/emit.hpp"
#include "runtime/resume.hpp"
#include "runtime/workspace.hpp"
#include "transform/engine.hpp"
#include "transform/lineage.hpp"
#include "util/result.hpp"

namespace protoobf {

class ObfuscatedProtocol {
 public:
  /// Obfuscates `g1` per `config` and prepares the runtime metadata.
  /// `config.per_node == 0` yields the identity (non-obfuscated) protocol.
  static Expected<ObfuscatedProtocol> create(const Graph& g1,
                                             const ObfuscationConfig& config);

  /// Rebuilds a protocol from persisted parts (runtime/persist.hpp). Both
  /// graphs are re-validated, the journal is checked against them while it
  /// is compiled (compile_program) and while the holders' read plans are
  /// (build_holder_table), and statistics are recomputed from it.
  static Expected<ObfuscatedProtocol> from_parts(Graph original, Graph wire,
                                                 Journal journal);

  const Graph& original() const { return original_; }
  const Graph& wire_graph() const { return wire_; }
  const Journal& journal() const { return journal_; }
  const ObfuscationStats& stats() const { return stats_; }

  /// The compiled journal and the lineage table serialize()/parse() run
  /// on.
  const JournalProgram& program() const { return program_; }
  const HolderTable& holders() const { return holders_; }

  /// True when the journal is empty and the wire graph equals G1 node for
  /// node: serialize emits its canonical copy without the forward pass or
  /// fix_holders. An empty journal alone is not enough: a persisted
  /// artifact may pair G1 with a wire graph that sizes a holder otherwise.
  bool identity() const { return identity_; }

  /// Serializes a logical message (an instance of G1). `msg_seed` drives the
  /// per-message randomness (split halves, pad bytes): the same message with
  /// a different seed produces a different wire image. Optional `spans`
  /// receive the ground-truth wire location of every terminal. Works in a
  /// local Workspace.
  Expected<Bytes> serialize(const Inst& message, std::uint64_t msg_seed,
                            std::vector<FieldSpan>* spans = nullptr) const;

  /// Allocation-lean variant: serializes into `out`, replacing its contents
  /// but reusing its capacity. The user's tree is never cloned on the heap:
  /// the G1 walk copies it into nodes of the workspace's pool, and the
  /// forward-transform and holder passes mutate that copy, so a kept
  /// workspace (a session arena's) serializes without heap traffic. The
  /// walk's and the derive passes' work vectors, including the buffer they
  /// emit each measured region into, are the workspace's too.
  Status serialize_into(const Inst& message, std::uint64_t msg_seed,
                        Bytes& out, Workspace& ws,
                        std::vector<FieldSpan>* spans = nullptr) const;

  /// Parses a wire message back into a canonical logical tree, working in
  /// a local Workspace. The tree stays valid after it (ast/pool.hpp).
  Expected<InstPtr> parse(BytesView wire) const;

  /// parse() in `ws`: every instance of the result comes from its node
  /// pool, and the parse and derive passes run in its buffers.
  Expected<InstPtr> parse(BytesView wire, Workspace& ws) const;

  /// Streaming variant of parse(): reads exactly one message from the front
  /// of `buffer`, tolerating trailing bytes (the next message), and reports
  /// the message's wire size in `consumed`. A buffer that ends before the
  /// message does fails with ErrorKind::Truncated and a minimum
  /// additional-byte hint — the signal framers translate into "need more
  /// bytes" instead of a parse failure. Requires stream_safe(wire_graph()).
  ///
  /// `resume`, when given, suspends a Truncated parse so the next call on
  /// the same buffer front (same bytes, more appended) continues from the
  /// truncation point instead of byte 0 — see parse_wire_prefix and
  /// ParseResume for the validity contract. A streaming caller keeps `ws`
  /// across calls, as it keeps `resume`.
  Expected<InstPtr> parse_prefix(BytesView buffer, std::size_t& consumed,
                                 Workspace& ws,
                                 ParseResume* resume = nullptr) const;

  /// Fills constants and derived fields of a user-built logical tree so it
  /// compares equal with parse() results, and checks every Optional's
  /// presence against its condition, as serialize() does.
  Status canonicalize(Inst& message) const;

 private:
  ObfuscatedProtocol(Graph original, ObfuscationResult result,
                     JournalProgram program, HolderTable holders,
                     bool identity);

  /// create()'s and from_parts()' tail: compiles the journal and the
  /// holder table, counts the statistics from the journal and decides
  /// identity().
  static Expected<ObfuscatedProtocol> assemble(Graph original,
                                               ObfuscationResult result);

  Expected<InstPtr> finish_parse(Expected<InstPtr> tree,
                                 Workspace& ws) const;

  Graph original_;
  Graph wire_;
  Journal journal_;
  ObfuscationStats stats_;
  JournalProgram program_;
  HolderTable holders_;
  HolderTable canon_holders_;  // G1's own table (empty journal)
  bool identity_ = false;
};

}  // namespace protoobf
