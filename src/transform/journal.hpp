// Transformation journal (paper §V-B).
//
// "The framework memorizes, for each applied transformation τi, the node in
// the graph that corresponds to the graph pattern a. Accordingly, it is able
// to correctly derive the message serializer and the message parser."
//
// An AppliedTransform is one τi: the generic transformation kind, the target
// node (pattern a) in graph Gi, the nodes created for pattern b in G(i+1),
// and the parameters frozen at obfuscation time (split points, constant
// keys, pad sizes...). Per-message randomness (SplitAdd's X1, pad contents)
// is *not* in the journal — it is drawn at serialization time and discarded
// by the parser, which is what makes two serializations of the same message
// look different on the wire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/node.hpp"
#include "util/bytes.hpp"

namespace protoobf {

/// Generic transformations of Table I.
enum class TransformKind : std::uint8_t {
  SplitAdd,
  SplitSub,
  SplitXor,
  SplitCat,
  ConstAdd,
  ConstSub,
  ConstXor,
  BoundaryChange,
  PadInsert,
  ReadFromEnd,
  TabSplit,
  RepSplit,
  ChildMove,
};

inline constexpr TransformKind kAllTransformKinds[] = {
    TransformKind::SplitAdd,       TransformKind::SplitSub,
    TransformKind::SplitXor,       TransformKind::SplitCat,
    TransformKind::ConstAdd,       TransformKind::ConstSub,
    TransformKind::ConstXor,       TransformKind::BoundaryChange,
    TransformKind::PadInsert,      TransformKind::ReadFromEnd,
    TransformKind::TabSplit,       TransformKind::RepSplit,
    TransformKind::ChildMove,
};
inline constexpr std::size_t kTransformKindCount =
    sizeof(kAllTransformKinds) / sizeof(kAllTransformKinds[0]);

const char* to_string(TransformKind kind);

/// One applied transformation τi. Field meaning per kind:
///
///   SplitAdd/Sub/Xor : created_seq=S, created_a=A (random half, boundary
///                      Half), created_b=B (combined half, boundary End)
///   SplitCat         : same nodes, split_point = |A|
///   ConstAdd/Sub/Xor : key = cycled constant (frozen at obfuscation time)
///   BoundaryChange   : created_seq=S, created_a=L (inserted length field);
///                      target keeps its id and becomes the data child
///   PadInsert        : created_a=P (pad terminal), pad_index, pad_size
///   ReadFromEnd      : target's `mirrored` flag is set in the final graph
///   TabSplit         : created_seq=S, created_a=T1, created_b=T2,
///                      created_c=E2 (wrapper for element children [1:], or
///                      kNoNode when the element has exactly two children),
///                      element = original element node E
///   RepSplit         : created_seq=S, created_a=cnt (count field),
///                      created_b=T1, created_c=T2, created_d=E2 (see
///                      TabSplit), element = E
///   ChildMove        : child_i/child_j = swapped positions in target
struct AppliedTransform {
  TransformKind kind = TransformKind::SplitAdd;
  NodeId target = kNoNode;       // pattern-a top node in Gi
  NodeId replacement = kNoNode;  // pattern-b top node in G(i+1) (== target
                                 // for in-place transformations)

  NodeId created_seq = kNoNode;
  NodeId created_a = kNoNode;
  NodeId created_b = kNoNode;
  NodeId created_c = kNoNode;
  NodeId created_d = kNoNode;
  NodeId element = kNoNode;

  Bytes key;                    // Const*: cycled key; BoundaryChange/RepSplit:
                                // the removed delimiter/stop marker
  std::size_t split_point = 0;  // SplitCat
  std::size_t pad_index = 0;    // PadInsert
  std::size_t pad_size = 0;     // PadInsert
  int child_i = -1;             // ChildMove
  int child_j = -1;             // ChildMove
  std::size_t len_width = 0;    // BoundaryChange: width of inserted length
  bool len_ascii = false;       // BoundaryChange: ASCII-decimal length field

  /// Human-readable one-liner for examples and debugging.
  std::string describe(const class Graph& graph) const;
};

using Journal = std::vector<AppliedTransform>;

/// The node an entry's inverse acts on: created_seq, which only Split*,
/// BoundaryChange, TabSplit and RepSplit set (they put it in the target's
/// place), else the target, which every other kind rewrites in place.
inline NodeId inverse_site(const AppliedTransform& e) {
  return e.created_seq != kNoNode ? e.created_seq : e.target;
}

}  // namespace protoobf
