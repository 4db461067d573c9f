// Wire emission: AST -> byte buffer.
//
// The overall message is the concatenation of the leaf values in ordered
// depth-first search (paper §V-A), with three twists:
//   * Delimited nodes append their delimiter after their content — and the
//     emitter verifies the content cannot be confused with it;
//   * stop-marker Repetitions append the marker once after all elements and
//     verify no element starts with it;
//   * mirrored nodes (ReadFromEnd) reverse their whole serialized region.
//
// The same routine serializes logical trees against G1 (the non-obfuscated
// baseline and the size oracle for derived fields) and wire trees against
// G(n+1).
#pragma once

#include <vector>

#include "ast/ast.hpp"
#include "graph/graph.hpp"
#include "util/result.hpp"

namespace protoobf {

/// Ground-truth location of a terminal on the wire (consumed by the PRE
/// resilience experiments to score field-inference quality).
struct FieldSpan {
  NodeId schema = kNoNode;
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// Serializes `root` against `graph`. On request, records where each
/// terminal landed (mirror-adjusted).
Expected<Bytes> emit(const Graph& graph, const Inst& root,
                     std::vector<FieldSpan>* spans = nullptr);

/// Serializes into `out`, replacing its contents but reusing its capacity —
/// the zero-allocation path for sessions that serialize many messages
/// through one buffer. `spans`, when given, is likewise overwritten.
Status emit_into(const Graph& graph, const Inst& root, Bytes& out,
                 std::vector<FieldSpan>* spans = nullptr);

/// Size of the serialization without materializing any bytes: a counting
/// walk over the tree that performs every validation a real emission would
/// (fixed-size mismatches, delimiter containment, stop-marker collisions,
/// empty repetition elements) by streaming values through incremental
/// matchers instead of writing a buffer. Returns exactly the size (and
/// exactly the errors, in the same order) that emit() would produce —
/// derive's passes call it once per measured region per message, so it
/// must neither write nor allocate per byte.
Expected<std::size_t> emitted_size(const Graph& graph, const Inst& root);

}  // namespace protoobf
