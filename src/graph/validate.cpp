#include "graph/validate.hpp"

#include <algorithm>

namespace protoobf {

namespace {

Unexpected fail(const Graph& g, NodeId id, const std::string& what) {
  return Unexpected("node '" + g.path_of(id) + "': " + what);
}

bool boundary_allowed(NodeType type, BoundaryKind b) {
  switch (type) {
    case NodeType::Terminal:
      // Paper: "a Terminal field must be delimited either with a Fixed
      // boundary, a Delimited boundary, a Length boundary or an End
      // boundary". Half is the internal split boundary.
      return b == BoundaryKind::Fixed || b == BoundaryKind::Delimited ||
             b == BoundaryKind::Length || b == BoundaryKind::End ||
             b == BoundaryKind::Half;
    case NodeType::Sequence:
      return b == BoundaryKind::Delegated || b == BoundaryKind::Fixed ||
             b == BoundaryKind::Delimited || b == BoundaryKind::Length ||
             b == BoundaryKind::End || b == BoundaryKind::Half;
    case NodeType::Optional:
      // Extent is always the child's extent.
      return b == BoundaryKind::Delegated;
    case NodeType::Repetition:
      // A repetition needs an end: a stop marker (Delimited), the enclosing
      // region (End) or an explicit size (Length).
      return b == BoundaryKind::Delimited || b == BoundaryKind::End ||
             b == BoundaryKind::Length;
    case NodeType::Tabular:
      return b == BoundaryKind::Counter;
  }
  return false;
}

/// True when `maybe_ancestor` is an ancestor of (or equal to) `id`.
bool in_subtree(const Graph& g, NodeId id, NodeId maybe_ancestor) {
  for (NodeId n = id; n != kNoNode; n = g.node(n).parent) {
    if (n == maybe_ancestor) return true;
  }
  return false;
}

/// Innermost Optional ancestor of `id` (or kNoNode).
NodeId optional_ancestor(const Graph& g, NodeId id) {
  for (NodeId n = g.node(id).parent; n != kNoNode; n = g.node(n).parent) {
    if (g.node(n).type == NodeType::Optional) return n;
  }
  return kNoNode;
}

Status check_reference(const Graph& g, NodeId from, NodeId to,
                       const std::vector<std::size_t>& pos,
                       const char* what) {
  if (to == kNoNode || to >= g.arena_size()) {
    return fail(g, from, std::string(what) + " reference is unset");
  }
  if (pos[to] == static_cast<std::size_t>(-1)) {
    return fail(g, from, std::string(what) + " references detached node '" +
                             g.node(to).name + "'");
  }
  if (pos[to] >= pos[from]) {
    return fail(g, from, std::string(what) + " reference '" +
                             g.path_of(to) +
                             "' does not precede the dependant in parse "
                             "order");
  }
  // An enclosing target is not complete when its dependant needs it.
  if (in_subtree(g, from, to)) {
    return fail(g, from, std::string(what) + " reference '" +
                             g.path_of(to) + "' encloses the dependant");
  }
  // The reference must be evaluable whenever the dependant is parsed: every
  // Optional ancestor of the target must also enclose the dependant.
  for (NodeId opt = optional_ancestor(g, to); opt != kNoNode;
       opt = optional_ancestor(g, opt)) {
    if (!in_subtree(g, from, opt)) {
      return fail(g, from, std::string(what) + " reference '" +
                               g.path_of(to) +
                               "' sits inside an Optional subtree that does "
                               "not enclose the dependant");
    }
  }
  // A target inside a repeated element is instantiated once per element; it
  // is only unambiguous for dependants inside the same element (the TLV
  // pattern). Every Repetition/Tabular ancestor of the target must
  // therefore also be an ancestor of the dependant.
  for (NodeId a = g.node(to).parent; a != kNoNode; a = g.node(a).parent) {
    const NodeType t = g.node(a).type;
    if ((t == NodeType::Repetition || t == NodeType::Tabular) &&
        !in_subtree(g, from, a)) {
      return fail(g, from, std::string(what) + " reference '" +
                               g.path_of(to) +
                               "' sits inside a repeated element the "
                               "dependant is outside of");
    }
  }
  return Status::success();
}

}  // namespace

Status validate_parse_order(const Graph& graph) {
  const auto pos = graph.dfs_positions();
  for (NodeId id : graph.dfs_order()) {
    const Node& n = graph.node(id);
    if (n.boundary == BoundaryKind::Length) {
      if (Status s = check_reference(graph, id, n.ref, pos, "Length"); !s) {
        return s;
      }
    }
    if (n.boundary == BoundaryKind::Counter) {
      if (Status s = check_reference(graph, id, n.ref, pos, "Counter"); !s) {
        return s;
      }
    }
    if (n.type == NodeType::Optional &&
        n.condition.kind != Condition::Kind::Always) {
      if (Status s =
              check_reference(graph, id, n.condition.ref, pos, "Condition");
          !s) {
        return s;
      }
    }
  }
  return Status::success();
}

Status validate(const Graph& graph) {
  if (graph.root() == kNoNode) return Unexpected("graph has no root");
  const auto order = graph.dfs_order();

  for (NodeId id : order) {
    const Node& n = graph.node(id);
    if (n.name.empty()) return fail(graph, id, "empty name");

    if (!boundary_allowed(n.type, n.boundary)) {
      return fail(graph, id,
                  std::string("boundary ") + to_string(n.boundary) +
                      " is not consistent with type " + to_string(n.type));
    }

    switch (n.type) {
      case NodeType::Terminal:
        if (!n.children.empty()) {
          return fail(graph, id, "terminal must not have sub-nodes");
        }
        break;
      case NodeType::Sequence:
        if (n.children.empty()) {
          return fail(graph, id, "sequence needs at least one sub-node");
        }
        break;
      case NodeType::Optional:
      case NodeType::Repetition:
      case NodeType::Tabular:
        if (n.children.size() != 1) {
          return fail(graph, id, "node needs exactly one sub-node");
        }
        break;
    }

    if (n.boundary == BoundaryKind::Fixed) {
      if (n.fixed_size == 0) return fail(graph, id, "fixed size of zero");
      if (n.has_const && n.const_value.size() != n.fixed_size) {
        return fail(graph, id, "const value size differs from fixed size");
      }
    }
    if (n.boundary == BoundaryKind::Delimited && n.delimiter.empty()) {
      return fail(graph, id, "delimited boundary with empty delimiter");
    }

    // Length/Counter references may target any node: after transformations
    // the holder terminal can be wrapped in created structure, and its
    // logical value is recovered through the journal. (The spec parser
    // guarantees the *original* target is a terminal simply because only a
    // terminal's value can hold a number.)

    // Child parent links must be coherent.
    for (NodeId child : n.children) {
      if (graph.node(child).parent != id) {
        return fail(graph, id, "child/parent link mismatch");
      }
    }
  }

  return validate_parse_order(graph);
}

}  // namespace protoobf
