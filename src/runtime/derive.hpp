// Derived-field computation.
//
// The framework owns every value the application should not maintain by
// hand: constant fields, length holders and count holders. Two derivation
// modes exist:
//
//  * the G1 walk computes *logical* values against G1 — what a
//    non-obfuscated peer would put on the wire — so both sides of a round
//    trip compare equal. Each direction walks the G1 tree once:
//      - canonical_copy() (serialize) copies the caller's read-only tree
//        into pool nodes, checking each node with ast::check_shape before
//        it copies it, filling constants, seeding holders, collecting the
//        (holder, measured) pairs and recording every condition-bearing
//        Optional on the way; absent Optionals' stale children are not
//        copied;
//      - canonicalize_parsed() (parse) runs the same walk in place over the
//        tree inverse_program recovered, and is also the integrity check
//        of a parsed message: a contradicted constant, a tree that does not
//        follow G1;
//      - canonicalize() runs it in place over a user-built tree, with
//        presence checked as serialize checks it.
//    The derive pass then sets every holder, and the recorded Optionals are
//    checked against their conditions last, because a condition target
//    may be a holder the pass rewrites.
//
//  * fix_holders() computes *wire* values against G(n+1) — the length a
//    parser will use to delimit a region after all transformations resized
//    it. Because value transformations may sit on top of a holder (split
//    length fields, xored counters...), the holder's subtree is rebuilt by
//    replaying its lineage chain over the fresh value (transform/lineage),
//    unless its read plan shows it already carries that value. A protocol
//    whose journal is empty and whose wire graph equals G1 skips it: the
//    canonical copy already is the wire tree (ObfuscatedProtocol::identity).
//
// Both derive every holder in one pass: a walk in parse order records a
// (holder, measured) pair at each Length/Counter node, and the pass visits
// the pairs from last to first. That order is exact: a pair's holder is
// complete before its measured node is reached (validate() guarantees it),
// so a holder inside a measured region belongs to a later pair, and is
// final, width included, before the region is measured. A holder instance
// measured by several pairs (several nodes reference it, or its dependant
// repeats in Repetition/Tabular elements) is set by its first pair, once
// all of them agree. A rebuild draws from the stream keyed on that pair's
// parse-order index.
#pragma once

#include "ast/ast.hpp"
#include "graph/graph.hpp"
#include "runtime/workspace.hpp"
#include "transform/journal.hpp"
#include "transform/lineage.hpp"
#include "util/result.hpp"

namespace protoobf {

/// Serialize's G1 walk: copies `message` into nodes drawn from the
/// workspace's pool into `out`, checking it against G1 as it goes, and
/// canonicalizes and presence-checks the copy. `table` must equal
/// build_holder_table(g1, g1, {}). Fails with ast::check's, canonicalize()'s
/// or the presence check's own error string, whichever the walk meets
/// first.
Status canonical_copy(const Graph& g1, const HolderTable& table,
                      const Inst& message, InstPtr& out, Workspace& ws);

/// Parse's G1 walk over the tree inverse_program recovered, in place:
/// fills the constants (a contradicted one fails "parsed message rejected:
/// ..."), derives the holders, and checks the tree against G1 (a mismatch
/// fails "parsed message malformed: ..." once the derivation succeeded, as
/// a check run after it would). Derivation errors are not prefixed. No
/// presence check: the parser evaluated every condition itself.
Status canonicalize_parsed(const Graph& g1, const HolderTable& table,
                           Inst& root, Workspace& ws);

/// The G1 walk in place over a user-built tree: constants, length/count
/// holders per G1 semantics, then every Optional's presence against its
/// condition. A Length region is measured by emitting it into the
/// workspace's `region` buffer, so it fails with the same error emit()
/// would. `table` must equal build_holder_table(g1, g1, {}).
Status canonicalize(const Graph& g1, const HolderTable& table, Inst& root,
                    Workspace& ws);

/// Wire derivation on the transformed tree: recomputes every holder from
/// the final wire sizes/counts and replays its transformation lineage. A
/// holder whose read plan already yields the fresh value is left alone, so
/// an already-derived tree draws no node from the workspace's pool, which
/// backs the rebuilt holder subtrees. `msg_seed` keeps the replayed
/// randomness deterministic per message.
Status fix_holders(const Graph& wire, const Journal& journal,
                   const HolderTable& table, Inst& root,
                   std::uint64_t msg_seed, Workspace& ws);

}  // namespace protoobf
