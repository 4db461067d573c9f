// Reference resolution shared by the parser and the derivation passes.
//
// A Length/Counter/Condition reference resolves to the instance of its
// target that the dependant's own position selects. validate() puts the
// target before the dependant in parse order, outside of it, and inside
// only those Repetition/Tabular elements and Optionals that enclose the
// dependant too (so a per-element length field resolves within its own
// element: the TLV pattern). Each referenced top therefore has a static
// Route (transform/lineage.hpp), and a reference resolves from the
// dependant's ancestors, which the recursion of the parser and of the
// walks below carries on the stack: up to the deepest ancestor on the
// route, then down the route's child indices.
//
// The descent starts at that deepest ancestor, not at the route's anchor,
// because the parser links a node into its parent only once the node is
// complete: an ancestor's in-flight child is unreachable from above. The
// target's branch precedes the dependant's and does not enclose it, so it
// is complete and linked below the ancestor where the two branches part.
#pragma once

#include <cstdint>

#include "ast/ast.hpp"
#include "transform/lineage.hpp"
#include "util/result.hpp"

namespace protoobf {

/// One instance on the path from the root to the node being visited.
struct Ancestor {
  Ancestor(Inst* inst, const Ancestor* up)
      : inst(inst), up(up), depth(up != nullptr ? up->depth + 1 : 0) {}

  Inst* inst;
  const Ancestor* up;   // the parent's entry; null at the root
  std::uint32_t depth;  // depth of inst's node in the graph, 0 at the root
};

/// The instance of `route`'s target that a dependant whose parent is
/// `parent` refers to; null when there is none (an absent Optional on the
/// route, or a tree that does not follow the graph).
inline Inst* resolve(const Route& route, const Ancestor* parent) {
  for (const Ancestor* a = parent; a != nullptr && a->depth >= route.anchor;
       a = a->up) {
    std::size_t at = a->depth - route.anchor;
    if (at >= route.index.size() || a->inst->schema != route.nodes[at]) {
      continue;
    }
    Inst* inst = a->inst;
    for (; at < route.index.size(); ++at) {
      const std::uint32_t k = route.index[at];
      if (!inst->present || k >= inst->children.size()) return nullptr;
      inst = inst->children[k].get();
      if (inst->schema != route.nodes[at + 1]) return nullptr;
    }
    return inst;
  }
  return nullptr;
}

/// Pre-order traversal, which is parse order: `pre(inst, parent)` runs when
/// an instance is reached, with its parent's entry to resolve references
/// from. Absent optionals are not descended. A template so the callable
/// inlines without a std::function box.
template <typename Pre>
Status walk_with_ancestors(Inst& inst, const Ancestor* parent, Pre& pre) {
  if (Status s = pre(inst, parent); !s) return s;
  if (!inst.present) return Status::success();
  const Ancestor here(&inst, parent);
  for (InstPtr& child : inst.children) {
    if (Status s = walk_with_ancestors(*child, &here, pre); !s) return s;
  }
  return Status::success();
}

}  // namespace protoobf
