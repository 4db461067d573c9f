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
//    replaying its lineage chain over the fresh value (transform/lineage).
//
// Both run small fixpoint loops: an ASCII-decimal length's width depends on
// its own value, and nested holders depend on each other. Loops converge in
// one or two iterations for realistic specifications; a hard cap turns
// non-convergence (a cyclic specification) into an error.
#pragma once

#include "ast/ast.hpp"
#include "graph/graph.hpp"
#include "runtime/scope.hpp"
#include "transform/exec.hpp"
#include "transform/lineage.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace protoobf {

/// One (holder, measured) pair of a derive fixpoint: the instance carrying
/// a derived value and the instance whose emitted size (Length) or element
/// count (Counter) defines it.
struct DeriveRef {
  Inst* holder;
  Inst* measured;
  bool is_counter;
};

/// Reusable scratch for the derive fixpoints. These vectors used to be
/// function-local in canonicalize()/fix_holders() — the last O(1)-but-real
/// allocations on the session hot path (ROADMAP "residual per-message
/// allocations"). An arena-held bundle keeps their capacity across
/// messages, so the steady state re-derives without touching the heap.
/// Not thread-safe: one bundle per thread of control, like the arena.
struct DeriveScratch {
  std::vector<DeriveRef> pairs;  // fixpoint work list
  std::vector<Inst*> matches;    // canonicalize() placeholder targets
  Bytes encoded;                 // holder-encoding buffer
  EntryStreams streams;          // serialize's per-entry random streams
};

/// Fills empty constant fields; errors if a non-empty value contradicts the
/// specification's constant.
Status fill_consts(const Graph& graph, Inst& root);

/// Verifies every Optional's presence flag matches its condition evaluated
/// on the (logical, canonicalized) tree. `scopes`, when given, supplies a
/// reusable reference-scope table (reset first).
Status check_presence(const Graph& graph, Inst& root,
                      ScopeChain* scopes = nullptr);

/// The holder terminals (length/count targets) canonicalize seeds with
/// width-correct placeholders, in DFS order. Depends only on the graph, so
/// callers that canonicalize per message (ObfuscatedProtocol) compute it
/// once and pass it back in.
std::vector<NodeId> canonical_holder_ids(const Graph& g1);

/// Logical derivation: consts + length/count holders per G1 semantics.
/// Size measurements run through the counting emitter, so no intermediate
/// buffer is ever materialized. `holder_ids`, when given, must equal
/// canonical_holder_ids(g1) (it is recomputed when null); `scopes` is a
/// reusable scope table for the fixpoint walks and `scratch` a reusable
/// bundle for their work vectors (locals are used when null).
Status canonicalize(const Graph& g1, Inst& root,
                    const std::vector<NodeId>* holder_ids = nullptr,
                    ScopeChain* scopes = nullptr,
                    DeriveScratch* scratch = nullptr);

/// Wire derivation on the transformed tree: recomputes every holder from
/// the final wire sizes/counts and replays its transformation lineage. A
/// holder whose lineage already inverts to the fresh value is left alone.
/// `msg_seed` keeps the replayed randomness deterministic per message;
/// `pool`, when given, backs the rebuilt holder subtrees so steady-state
/// sessions rebuild without heap traffic, and `scopes` the fixpoint walks.
Status fix_holders(const Graph& wire, const Journal& journal,
                   const HolderTable& table, Inst& root,
                   std::uint64_t msg_seed, InstPool* pool = nullptr,
                   ScopeChain* scopes = nullptr,
                   DeriveScratch* scratch = nullptr);

}  // namespace protoobf
