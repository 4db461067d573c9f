// Derived-field computation.
//
// The framework owns every value the application should not maintain by
// hand: constant fields, length holders and count holders. Two derivation
// modes exist:
//
//  * canonicalize() computes *logical* values against G1 — what a
//    non-obfuscated peer would put on the wire. It runs on user-built
//    messages before serialization and on parsed messages after inversion,
//    so both sides of a round trip compare equal.
//
//  * fix_holders() computes *wire* values against G(n+1) — the length a
//    parser will use to delimit a region after all transformations resized
//    it. Because value transformations may sit on top of a holder (split
//    length fields, xored counters...), the holder's subtree is rebuilt by
//    replaying its lineage chain over the fresh value (transform/lineage),
//    unless its read plan shows it already carries that value.
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

/// Reusable scratch for the derive passes: an arena-held bundle re-derives
/// without touching the heap. Not thread-safe, like the arena.
struct DeriveScratch {
  static constexpr std::size_t kNoPair = ~std::size_t{0};

  std::vector<DeriveRef> pairs;     // the pass's work list
  std::vector<std::size_t> latest;  // per holder of the table: its latest
                                    // pair so far (kNoPair: none)
  Bytes encoded;                    // holder-encoding buffer
  Bytes region;                     // a measured region, emitted to be sized
  Bytes registers;                  // fix_holders()' read-plan registers
  EntryStreams streams;             // serialize's per-entry random streams
};

/// Fills empty constant fields; errors if a non-empty value contradicts the
/// specification's constant.
Status fill_consts(const Graph& graph, Inst& root);

/// Verifies every Optional's presence flag matches its condition evaluated
/// on the (logical, canonicalized) tree. `table` is build_holder_table(
/// graph, graph, {}): the conditions resolve along its routes.
Status check_presence(const Graph& graph, const HolderTable& table,
                      Inst& root);

/// Logical derivation: consts + length/count holders per G1 semantics.
/// A Length region is measured by emitting it into the scratch's `region`
/// buffer, so it fails with the same error emit() would. `holders`, when
/// given, must equal build_holder_table(g1, g1, {}) (it is rebuilt when
/// null); `scratch` is a reusable bundle for the pass's work vectors and
/// buffers (a local one is used when null).
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
