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
// baseline) and wire trees against G(n+1), and it is also how the derive
// passes measure a Length region: they emit the region into scratch and
// take its size, so a measured size and its errors are those of the wire.
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
/// through one buffer, and for the derive passes that measure every region
/// in one scratch buffer. `spans`, when given, is likewise overwritten.
Status emit_into(const Graph& graph, const Inst& root, Bytes& out,
                 std::vector<FieldSpan>* spans = nullptr);

}  // namespace protoobf
