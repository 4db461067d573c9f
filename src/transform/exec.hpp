// On-the-fly execution of transformations on message ASTs (paper §V-C).
//
// The serializer runs the journal *forward* — the AST of G1 becomes, entry
// by entry, the AST of G(n+1) that is then emitted. The parser runs it
// *backward* on the tree recovered from the wire. Per-entry randomness
// (SplitAdd's X1, pad bytes) is drawn per message and never needs to be
// recorded: the inverse operations eliminate it.
//
// Two executors share one per-kind apply function per direction:
//   * the compiled one (forward_program / inverse_program) runs each G1
//     node's resolved ops (transform/lineage.hpp's JournalProgram) at that
//     node's own instances, one post-order pass to serialize and one
//     top-down pass to parse. An op follows its precomputed path from the
//     node's slot to the instances it acts on, so nothing is searched:
//     O(N + ops) per message. ReadFromEnd has no op;
//   * the sequential one (forward_all / inverse_all) replays the journal
//     entry by entry, each entry searching the whole tree for its target
//     (for_each_match), O(J × N). It is the reference the compiled
//     executor is tested against; the holder chains (rerun_chain,
//     invert_chain) apply entries the same way.
// Both draw entry i's bytes from its own keyed stream (EntryStreams), so
// they emit identical wire images.
//
// Reference reads (read_value) run a holder's or condition target's read
// plan over its wire subtree. A plan that is one untransformed leaf, as
// every plan of the identity protocol is, reads that leaf in place.
//
// Every operation satisfies inverse(forward(t)) == t by construction
// (tested exhaustively in tests/transform_test.cpp; the dropped
// ReadFromEnd in tests/op_list_test.cpp).
#pragma once

#include <vector>

#include "ast/ast.hpp"
#include "ast/pool.hpp"
#include "transform/journal.hpp"
#include "transform/lineage.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace protoobf {

/// Every entry point takes an optional InstPool: nodes the execution
/// creates (split halves, inserted length fields, replacement composites)
/// are drawn from it, and nodes it destroys return to it, so a session
/// replays journals with zero heap traffic in steady state. Null keeps the
/// plain heap behaviour. Results are bit-identical either way.

/// Per-entry randomness of one message. Entry i draws from its own
/// SplitMix64 stream keyed on (msg_seed, i), and the stream carries over
/// across that entry's instances within the message, so the drawn bytes
/// do not depend on the order in which entries run. reset() keeps the
/// capacity, so an arena-held instance costs no allocation per message.
class EntryStreams {
 public:
  void reset(std::uint64_t msg_seed, std::size_t entries);
  Rng& operator[](std::size_t index) { return streams_[index]; }

 private:
  std::vector<Rng> streams_;
};

/// Applies one τi to every instance of its target in the tree.
Status forward_entry(InstPtr& root, const AppliedTransform& entry, Rng& rng,
                     InstPool* pool = nullptr);

/// Applies τi⁻¹ to every instance of inverse_site(τi) in the tree.
Status inverse_entry(InstPtr& root, const AppliedTransform& entry,
                     InstPool* pool = nullptr);

/// Sequential reference: runs the whole journal forward (τ1 ... τn), entry
/// i drawing from EntryStreams' stream i for `msg_seed`.
Status forward_all(InstPtr& root, const Journal& journal,
                   std::uint64_t msg_seed, InstPool* pool = nullptr);

/// Sequential reference: runs the whole journal backward (τn⁻¹ ... τ1⁻¹).
Status inverse_all(InstPtr& root, const Journal& journal,
                   InstPool* pool = nullptr);

/// Runs the compiled journal forward over a logical (G1) tree in one
/// post-order pass: a node's ops run at its slot once its children's have,
/// op k drawing from streams[k's entry]. `streams` must have been reset for
/// the message. Produces the same tree as forward_all with the same
/// msg_seed; a program without ops returns without touching the tree. An
/// op whose path does not end at an instance of its target fails, naming
/// the journal entry.
Status forward_program(InstPtr& root, const JournalProgram& program,
                       const Journal& journal, EntryStreams& streams,
                       InstPool* pool = nullptr);

/// Inverts the compiled journal over a parsed wire tree in one top-down
/// pass: each slot has its owner's ops inverted (in reverse, along their
/// inverse paths) before the pass descends into the slot's children. Same
/// result as inverse_all.
Status inverse_program(InstPtr& root, const JournalProgram& program,
                       const Journal& journal, InstPool* pool = nullptr);

/// Reads the logical value of a holder or condition target off its wire
/// subtree `top` with its read plan (transform/lineage.hpp), without
/// copying a node. A direct() plan reads in place: the view is the leaf's
/// own value, and `registers` is not touched. Any other plan evaluates in
/// `registers` (cleared first, capacity reused), and the view points into
/// it. Fails where invert_chain would: a leaf missing from the subtree, or
/// arithmetic split halves of unequal size.
Expected<BytesView> read_value(const ReadPlan& plan, const Inst& top,
                               const Journal& journal, Bytes& registers);

/// Test reference for read_value: deep-copies the wire subtree of a
/// referenced field and inverts its lineage `chain` (indices into the
/// journal) in reverse, recovering the logical value as a node. Entries
/// outside the chain never match inside the subtree, so this equals
/// inverting the whole journal over it.
Expected<InstPtr> invert_chain(const Inst& wire_subtree, const Journal& journal,
                               const std::vector<std::size_t>& chain,
                               InstPool* pool = nullptr);

/// Rebuilds the wire subtree of a derived field: starts from the original
/// terminal with its freshly computed logical value (copied into a pooled
/// node's recycled buffer) and replays the lineage entries (`chain`,
/// indices into the journal). Deterministic for a given rng seed.
Expected<InstPtr> rerun_chain(NodeId origin, BytesView logical_value,
                              const Journal& journal,
                              const std::vector<std::size_t>& chain, Rng& rng,
                              InstPool* pool = nullptr);

}  // namespace protoobf
