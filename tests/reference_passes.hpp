// The G1 passes as separate walks: the reference the one-walk derivation
// (runtime/derive.hpp) is tested against.
//
// Serialize used to run ast::check, ast::copy, canonicalize and a presence
// walk one after another over the message; parse ran fill_consts,
// canonicalize and ast::check after inverting the journal. These are those
// passes, kept test-local with their error strings: g1_walk_test diffs the
// walk against them, and holder_plan_test borrows fill_consts and
// check_presence for its own reference.
#pragma once

#include <vector>

#include "ast/ast.hpp"
#include "runtime/derive.hpp"
#include "runtime/emit.hpp"
#include "runtime/parse.hpp"
#include "runtime/protocol.hpp"
#include "runtime/scope.hpp"
#include "transform/exec.hpp"

namespace protoobf::reference {

inline Status encode_holder_into(Bytes& out, const Graph& graph, NodeId holder,
                                 std::uint64_t value) {
  const Node& n = graph.node(holder);
  if (n.encoding == Encoding::AsciiDec) {
    const std::size_t width =
        n.boundary == BoundaryKind::Fixed ? n.fixed_size : 0;
    ascii_dec_encode_into(out, value, width);
    if (width != 0 && out.size() != width) {
      return Unexpected("derived value " + std::to_string(value) +
                        " does not fit in ASCII field '" + n.name + "'");
    }
    return Status::success();
  }
  if (n.boundary != BoundaryKind::Fixed) {
    return Unexpected("binary holder '" + n.name + "' must be fixed-size");
  }
  if (n.fixed_size < 8 && value >= (1ull << (8 * n.fixed_size))) {
    return Unexpected("derived value " + std::to_string(value) +
                      " overflows field '" + n.name + "'");
  }
  be_encode_into(out, value, n.fixed_size);
  return Status::success();
}

inline Status fill_const(const Node& n, Inst& inst) {
  if (!n.has_const) return Status::success();
  if (inst.value.empty()) {
    inst.value = n.const_value;
  } else if (inst.value != n.const_value) {
    return Unexpected("constant field '" + n.name +
                      "' set to a non-constant value");
  }
  return Status::success();
}

/// Fills empty constant fields; errors if a non-empty value contradicts the
/// specification's constant.
inline Status fill_consts(const Graph& graph, Inst& root) {
  if (Status s = fill_const(graph.node(root.schema), root); !s) return s;
  if (root.present) {
    for (auto& child : root.children) {
      if (Status s = fill_consts(graph, *child); !s) return s;
    }
  }
  return Status::success();
}

/// Every Optional's presence flag against its condition, evaluated on the
/// canonicalized tree. `table` is build_holder_table(graph, graph, {}).
inline Status check_presence(const Graph& graph, const HolderTable& table,
                             Inst& root) {
  const auto pre = [&](Inst& inst, const Ancestor* parent) -> Status {
    const Node& n = graph.node(inst.schema);
    if (n.type != NodeType::Optional ||
        n.condition.kind == Condition::Kind::Always) {
      return Status::success();
    }
    const HolderInfo* info = table.find_reference(n.condition.ref);
    const Inst* ref = info != nullptr ? resolve(info->route, parent) : nullptr;
    if (ref == nullptr) {
      return Unexpected("condition target of '" + n.name + "' not in scope");
    }
    const bool expected = n.condition.evaluate(ref->value);
    if (expected != inst.present) {
      return Unexpected("optional '" + n.name + "' is " +
                        (inst.present ? "present" : "absent") +
                        " but its condition evaluates to " +
                        (expected ? "true" : "false"));
    }
    return Status::success();
  };
  return walk_with_ancestors(root, nullptr, pre);
}

/// Constants and holders, no presence: one walk fills constants, seeds
/// holders and collects the (holder, measured) pairs, then the pairs are
/// derived from last to first.
inline Status canonicalize(const Graph& g1, Inst& root,
                           const HolderTable& table) {
  if (table.holders.empty()) return fill_consts(g1, root);
  constexpr std::size_t kNoPair = ~std::size_t{0};
  Bytes encoded;
  std::vector<DeriveRef> pairs;
  std::vector<std::size_t> latest(table.holders.size(), kNoPair);
  const auto pre = [&](Inst& inst, const Ancestor* parent) -> Status {
    const Node& n = g1.node(inst.schema);
    if (Status s = fill_const(n, inst); !s) return s;
    if (table.find_by_top(inst.schema) != nullptr) {
      if (Status s = encode_holder_into(encoded, g1, inst.schema, 0); !s) {
        return s;
      }
      inst.value = encoded;
    }
    if (n.boundary != BoundaryKind::Length &&
        n.boundary != BoundaryKind::Counter) {
      return Status::success();
    }
    const HolderInfo* info = table.find_by_top(n.ref);
    if (info == nullptr) {
      return Unexpected("no lineage for holder '" + g1.node(n.ref).name +
                        "'");
    }
    Inst* holder = resolve(info->route, parent);
    if (holder == nullptr) {
      return Unexpected("reference target '" + g1.node(n.ref).name +
                        "' not in scope of '" + n.name + "'");
    }
    std::size_t& last = latest[info - table.holders.data()];
    const std::size_t first = last != kNoPair && pairs[last].holder == holder
                                  ? pairs[last].first
                                  : pairs.size();
    last = pairs.size();
    pairs.push_back({holder, &inst, info, first, DeriveRef::kUnmeasured,
                     n.boundary == BoundaryKind::Counter});
    return Status::success();
  };
  if (Status s = walk_with_ancestors(root, nullptr, pre); !s) return s;
  Bytes region;
  for (std::size_t k = pairs.size(); k-- > 0;) {
    const DeriveRef& pair = pairs[k];
    std::uint64_t value = 0;
    if (pair.is_counter) {
      value = pair.measured->children.size();
    } else {
      if (Status s = emit_into(g1, *pair.measured, region); !s) return s;
      value = region.size();
    }
    DeriveRef& first = pairs[pair.first];
    if (first.value != DeriveRef::kUnmeasured && first.value != value) {
      return Unexpected("holder '" + g1.node(pair.holder->schema).name +
                        "' measures regions of different sizes");
    }
    first.value = value;
    if (pair.first == k) {
      if (Status s = encode_holder_into(encoded, g1, pair.holder->schema,
                                        first.value);
          !s) {
        return s;
      }
      pair.holder->value = encoded;
    }
  }
  return Status::success();
}

/// Serialize's G1 passes: check, copy, canonicalize, presence. `canon` is
/// build_holder_table(g1, g1, {}).
inline Expected<InstPtr> canonical_copy(const Graph& g1,
                                        const HolderTable& canon,
                                        const Inst& message) {
  if (Status s = ast::check(g1, message); !s) return Unexpected(s.error());
  InstPtr tree = ast::copy(nullptr, message);
  if (Status s = canonicalize(g1, *tree, canon); !s) {
    return Unexpected(s.error());
  }
  if (Status s = check_presence(g1, canon, *tree); !s) {
    return Unexpected(s.error());
  }
  return tree;
}

/// Parse's G1 passes over an inverted tree: fill_consts, canonicalize,
/// check, with parse's prefixes.
inline Status finish_parse(const Graph& g1, const HolderTable& canon,
                           Inst& tree) {
  if (Status s = fill_consts(g1, tree); !s) {
    return Unexpected("parsed message rejected: " + s.error().message);
  }
  if (Status s = canonicalize(g1, tree, canon); !s) return s;
  if (Status s = ast::check(g1, tree); !s) {
    return Unexpected("parsed message malformed: " + s.error().message);
  }
  return Status::success();
}

/// serialize() as the separate passes ran it: the G1 passes, then forward,
/// fix_holders and emit for every protocol, the identity one included.
inline Expected<Bytes> serialize(const ObfuscatedProtocol& p,
                                 const HolderTable& canon, const Inst& message,
                                 std::uint64_t msg_seed) {
  auto tree = canonical_copy(p.original(), canon, message);
  if (!tree) return Unexpected(tree.error());
  EntryStreams streams;
  streams.reset(msg_seed, p.journal().size());
  if (Status s = forward_program(*tree, p.program(), p.journal(), streams);
      !s) {
    return Unexpected(s.error());
  }
  Workspace ws;
  if (Status s = fix_holders(p.wire_graph(), p.journal(), p.holders(), **tree,
                             msg_seed, ws);
      !s) {
    return Unexpected(s.error());
  }
  return emit(p.wire_graph(), **tree);
}

/// parse() as the separate passes ran it.
inline Expected<InstPtr> parse(const ObfuscatedProtocol& p,
                               const HolderTable& canon, BytesView wire) {
  Workspace ws;
  auto tree = parse_wire(p.wire_graph(), p.journal(), p.holders(), wire, ws);
  if (!tree) return tree;
  if (Status s = inverse_program(*tree, p.program(), p.journal()); !s) {
    return Unexpected(s.error());
  }
  if (Status s = finish_parse(p.original(), canon, **tree); !s) {
    return Unexpected(s.error());
  }
  return tree;
}

}  // namespace protoobf::reference
