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
#include "ast/pool.hpp"
#include "graph/graph.hpp"
#include "transform/exec.hpp"
#include "transform/lineage.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

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

/// Reusable scratch for the derive passes: an arena-held bundle re-derives
/// without touching the heap. Not thread-safe, like the arena.
struct DeriveScratch {
  static constexpr std::size_t kNoPair = ~std::size_t{0};

  std::vector<DeriveRef> pairs;     // the pass's work list
  std::vector<std::size_t> latest;  // per holder of the table: its latest
                                    // pair so far (kNoPair: none)
  std::vector<ConditionRef> conditions;  // the G1 walk's Optionals
  Bytes encoded;                    // holder-encoding buffer
  Bytes region;                     // a measured region, emitted to be sized
  Bytes registers;                  // fix_holders()' read-plan registers
  EntryStreams streams;             // serialize's per-entry random streams
};

/// Serialize's G1 walk: copies `message` into nodes drawn from `pool`
/// (heap when null) into `out`, checking it against G1 as it goes, and
/// canonicalizes and presence-checks the copy. `table` must equal
/// build_holder_table(g1, g1, {}). Fails with ast::check's, canonicalize()'s
/// or the presence check's own error string, whichever the walk meets
/// first.
Status canonical_copy(const Graph& g1, const HolderTable& table,
                      const Inst& message, InstPtr& out, InstPool* pool,
                      DeriveScratch& scratch);

/// Parse's G1 walk over the tree inverse_program recovered, in place:
/// fills the constants (a contradicted one fails "parsed message rejected:
/// ..."), derives the holders, and checks the tree against G1 (a mismatch
/// fails "parsed message malformed: ..." once the derivation succeeded, as
/// a check run after it would). Derivation errors are not prefixed. No
/// presence check: the parser evaluated every condition itself.
Status canonicalize_parsed(const Graph& g1, const HolderTable& table,
                           Inst& root, DeriveScratch& scratch);

/// The G1 walk in place over a user-built tree: constants, length/count
/// holders per G1 semantics, then every Optional's presence against its
/// condition. A Length region is measured by emitting it into the scratch's
/// `region` buffer, so it fails with the same error emit() would.
/// `holders`, when given, must equal build_holder_table(g1, g1, {}) (it is
/// rebuilt when null); `scratch` is a reusable bundle for the walk's work
/// vectors and buffers (a local one is used when null).
Status canonicalize(const Graph& g1, Inst& root,
                    const HolderTable* holders = nullptr,
                    DeriveScratch* scratch = nullptr);

/// Wire derivation on the transformed tree: recomputes every holder from
/// the final wire sizes/counts and replays its transformation lineage. A
/// holder whose read plan already yields the fresh value is left alone, so
/// an already-derived tree draws no node from `pool`. `msg_seed` keeps the
/// replayed randomness deterministic per message; `pool`, when given,
/// backs the rebuilt holder subtrees so steady-state sessions rebuild
/// without heap traffic.
Status fix_holders(const Graph& wire, const Journal& journal,
                   const HolderTable& table, Inst& root,
                   std::uint64_t msg_seed, InstPool* pool = nullptr,
                   DeriveScratch* scratch = nullptr);

}  // namespace protoobf
