// Reference scoping shared by the parser and the derivation passes.
//
// Length/Counter/Condition references resolve to "the nearest instance of
// the referenced node parsed so far": one scope exists per Repetition or
// Tabular element (so a per-element length field resolves within its own
// element — the TLV pattern) plus the root scope; lookups walk scopes from
// innermost to outermost. Validation (graph/validate.cpp) guarantees a
// reference target is registered before any dependant needs it.
//
// Scopes are flat (NodeId, Inst*) vectors rather than hash maps: a map
// costs one heap node per registration — O(nodes) allocations per parsed
// message — while a vector's capacity survives clear(), so a reused chain
// registers every instance of a message without touching the heap. Lookups
// scan newest-first, which both preserves the map's overwrite semantics
// (the latest registration of a schema wins) and terminates quickly in
// practice, because references point at recently registered holders.
#pragma once

#include <utility>
#include <vector>

#include "ast/ast.hpp"
#include "graph/graph.hpp"
#include "util/result.hpp"

namespace protoobf {

class ScopeChain {
 public:
  /// One registration. `mark` is a slot for the caller, kNoMark until the
  /// caller sets it: the derive passes keep a holder instance's first
  /// (holder, measured) pair there.
  struct Entry {
    NodeId id;
    Inst* inst;
    std::size_t mark;
  };
  static constexpr std::size_t kNoMark = ~std::size_t{0};

  ScopeChain() { push(); }

  /// Opens a scope. Retired scopes keep their entry capacity, so iterating
  /// the elements of a Repetition costs no allocation after the first
  /// element — and none at all when the chain itself is reused across
  /// messages (session arenas hold one for exactly that).
  void push() {
    if (depth_ == scopes_.size()) {
      scopes_.emplace_back();
    } else {
      scopes_[depth_].clear();
    }
    ++depth_;
  }
  void pop() { --depth_; }

  void add(Inst* inst) {
    scopes_[depth_ - 1].push_back({inst->schema, inst, kNoMark});
  }

  /// The newest registration of `id` in scope, or null.
  Entry* find(NodeId id) {
    for (std::size_t i = depth_; i-- > 0;) {
      auto& entries = scopes_[i];
      for (std::size_t k = entries.size(); k-- > 0;) {
        if (entries[k].id == id) return &entries[k];
      }
    }
    return nullptr;
  }

  Inst* lookup(NodeId id) {
    Entry* entry = find(id);
    return entry != nullptr ? entry->inst : nullptr;
  }

  /// Back to a single empty root scope, keeping all entry capacity.
  void reset() {
    depth_ = 0;
    push();
  }

 private:
  std::vector<std::vector<Entry>> scopes_;
  std::size_t depth_ = 0;
};

namespace detail {

template <typename Pre>
Status walk_scoped_impl(const Graph& graph, Inst& inst, ScopeChain& scopes,
                        Pre& pre) {
  if (Status s = pre(inst, scopes); !s) return s;
  const Node& n = graph.node(inst.schema);
  if (inst.present) {
    const bool element_scope =
        n.type == NodeType::Repetition || n.type == NodeType::Tabular;
    for (auto& child : inst.children) {
      if (element_scope) scopes.push();
      const Status s = walk_scoped_impl(graph, *child, scopes, pre);
      if (element_scope) scopes.pop();
      if (!s) return s;
    }
  }
  scopes.add(&inst);
  return Status::success();
}

}  // namespace detail

/// In-order traversal mirroring parse order: `pre` runs when a node is
/// reached (references to earlier nodes already registered), registration
/// happens after the subtree completes, element scopes are pushed around
/// each Repetition/Tabular element. Absent optionals are not descended.
/// `reuse`, when given, supplies the scope table (reset first) so
/// per-message callers stop allocating one per walk; a template so the
/// callable inlines without a std::function box.
template <typename Pre>
Status walk_scoped(const Graph& graph, Inst& root, Pre&& pre,
                   ScopeChain* reuse = nullptr) {
  if (reuse != nullptr) {
    reuse->reset();
    return detail::walk_scoped_impl(graph, root, *reuse, pre);
  }
  ScopeChain local;
  return detail::walk_scoped_impl(graph, root, local, pre);
}

}  // namespace protoobf
