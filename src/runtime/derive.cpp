#include "runtime/derive.hpp"

#include <algorithm>

#include "runtime/emit.hpp"
#include "runtime/scope.hpp"
#include "transform/exec.hpp"
#include "util/rng.hpp"

namespace protoobf {

namespace {

/// Encodes a derived scalar with the holder terminal's encoding and width
/// into `out`, reusing its capacity (this runs once per pair per message,
/// so it must not allocate in steady state).
Status encode_holder_into(Bytes& out, const Graph& graph, NodeId holder,
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

/// Fills one constant field, or checks it against the specification.
Status fill_const(const Node& n, Inst& inst) {
  if (!n.has_const) return Status::success();
  if (inst.value.empty()) {
    inst.value = n.const_value;
  } else if (inst.value != n.const_value) {
    return Unexpected("constant field '" + n.name +
                      "' set to a non-constant value");
  }
  return Status::success();
}

/// Starts a pass's pair list: cleared, capacity reused across messages,
/// and no latest pair for any holder of `table`.
void start_pairs(const HolderTable& table, Workspace& ws) {
  ws.pairs.clear();
  // One right-sized allocation instead of a doubling climb on the first
  // call (a kept workspace keeps the capacity across messages).
  if (ws.pairs.capacity() == 0) ws.pairs.reserve(16);
  ws.latest.assign(table.holders.size(), Workspace::kNoPair);
}

/// Whether instances of `n` are measured into a holder: a Length or
/// Counter boundary.
bool is_measured(const Node& n) {
  return n.boundary == BoundaryKind::Length ||
         n.boundary == BoundaryKind::Counter;
}

/// Records the (holder, measured) pair of `inst`, an instance of measured
/// node `n` of `graph`, reached in parse order with its parent's entry
/// `parent`. Every pair links to the first pair of its holder instance: a
/// holder instance's pairs come one after another among its node's pairs,
/// because validate() keeps every dependant inside the elements that
/// enclose the holder, so each holder node's latest pair is the one to link
/// from.
Status add_pair(const Graph& graph, const HolderTable& table, Inst& inst,
                const Node& n, const Ancestor* parent, Workspace& ws) {
  const HolderInfo* info = table.find_by_top(n.ref);
  if (info == nullptr) {
    return Unexpected("no lineage for holder '" + graph.node(n.ref).name +
                      "'");
  }
  Inst* holder = resolve(info->route, parent);
  if (holder == nullptr) {
    return Unexpected("reference target '" + graph.node(n.ref).name +
                      "' not in scope of '" + n.name + "'");
  }
  std::vector<DeriveRef>& pairs = ws.pairs;
  std::size_t& latest = ws.latest[info - table.holders.data()];
  const std::size_t first =
      latest != Workspace::kNoPair && pairs[latest].holder == holder
          ? pairs[latest].first
          : pairs.size();
  latest = pairs.size();
  pairs.push_back({holder, &inst, info, first, DeriveRef::kUnmeasured,
                   n.boundary == BoundaryKind::Counter});
  return Status::success();
}

/// The one derive pass: visits the workspace's pairs from last to first,
/// measures each pair's region once (a Length region by emitting it into
/// the workspace's `region` buffer) and calls `set(k, pair)` at the first
/// pair of every holder instance, once all of its pairs measured the same
/// value.
template <typename Set>
Status derive_pass(const Graph& graph, Workspace& ws, Set&& set) {
  std::vector<DeriveRef>& pairs = ws.pairs;
  // As in start_pairs: one allocation instead of a doubling climb.
  if (ws.region.capacity() == 0) ws.region.reserve(256);
  for (std::size_t k = pairs.size(); k-- > 0;) {
    const DeriveRef& pair = pairs[k];
    std::uint64_t value = 0;
    if (pair.is_counter) {
      value = pair.measured->children.size();
    } else {
      if (Status s = emit_into(graph, *pair.measured, ws.region); !s) {
        return s;
      }
      value = ws.region.size();
    }
    DeriveRef& first = pairs[pair.first];
    if (first.value != DeriveRef::kUnmeasured && first.value != value) {
      return Unexpected("holder '" + graph.node(pair.holder->schema).name +
                        "' measures regions of different sizes");
    }
    first.value = value;
    if (pair.first == k) {
      if (Status s = set(k, first); !s) return s;
    }
  }
  return Status::success();
}

/// What a G1 walk does besides filling constants, seeding holders and
/// collecting pairs.
enum class Mode : std::uint8_t {
  kCopy,     // canonical_copy: checks each source node, then copies it;
             // records the Optionals for the presence check
  kParsed,   // canonicalize_parsed: in place; checks each node once it is
             // filled and seeded, reports a mismatch after the derive pass;
             // prefixes errors as parse reports them
  kInPlace,  // canonicalize: in place; records the Optionals
};

/// The one G1 walk behind canonical_copy, canonicalize_parsed and
/// canonicalize. It visits instances in parse order and links each copied
/// child into its parent before descending, so a reference resolves along
/// its route from the ancestors on the stack, as the parser's do. The
/// recursion returns false on failure and keeps the error aside, so a
/// success costs each instance no Status.
class G1Walk {
 public:
  G1Walk(const Graph& g1, const HolderTable& table, Workspace& ws, Mode mode)
      : g1_(g1), table_(table), ws_(ws), mode_(mode) {
    start_pairs(table, ws);
    ws.conditions.clear();
    if (ws.conditions.capacity() == 0) ws.conditions.reserve(16);
  }

  /// kCopy: `inst` (drawn for `source`) receives `source` and its subtree.
  bool copy(const Inst& source, Inst& inst, const Ancestor* parent) {
    if (Status s = ast::check_shape(g1_, source); !s) return fail(s);
    inst.value.assign(source.value.begin(), source.value.end());
    inst.present = source.present;
    if (!visit(inst, parent)) return false;
    if (!inst.present) return true;  // its stale children stay behind
    const Ancestor here(&inst, parent);
    inst.children.reserve(source.children.size());
    for (const InstPtr& child : source.children) {
      inst.children.push_back(ws_.nodes.make(child->schema));
      if (!copy(*child, *inst.children.back(), &here)) return false;
    }
    return true;
  }

  /// kParsed and kInPlace: walks `root` where it lies.
  bool in_place(Inst& root) {
    if (mode_ == Mode::kParsed && root.schema != g1_.root()) {
      shape_ = malformed(Unexpected("instance root does not match graph root"));
    }
    return walk(root, nullptr);
  }

  /// The derive pass over the collected pairs, then the walk's deferred
  /// verdicts: kParsed's shape error, the recorded Optionals' presence.
  Status finish() {
    Bytes& encoded = ws_.encoded;
    const auto set = [&](std::size_t, DeriveRef& pair) {
      Status s =
          encode_holder_into(encoded, g1_, pair.holder->schema, pair.value);
      if (s) pair.holder->value = encoded;
      return s;
    };
    if (Status s = derive_pass(g1_, ws_, set); !s) return s;
    if (!shape_) return shape_;
    for (const ConditionRef& c : ws_.conditions) {
      const Node& n = g1_.node(c.optional->schema);
      if (c.target == nullptr) {
        return Unexpected("condition target of '" + n.name +
                          "' not in scope");
      }
      const bool expected = n.condition.evaluate(c.target->value);
      if (expected != c.optional->present) {
        return Unexpected("optional '" + n.name + "' is " +
                          (c.optional->present ? "present" : "absent") +
                          " but its condition evaluates to " +
                          (expected ? "true" : "false"));
      }
    }
    return Status::success();
  }

  /// Why copy() or in_place() returned false.
  const Status& error() const { return error_; }

 private:
  bool fail(const Status& s) {
    error_ = s;
    return false;
  }

  Status malformed(const Status& s) const {
    return Unexpected("parsed message malformed: " + s.error().message);
  }

  bool walk(Inst& inst, const Ancestor* parent) {
    if (inst.schema >= g1_.arena_size()) {
      // Past a recorded shape mismatch, or a tree of another graph.
      if (!shape_) return fail(shape_);
      return fail(Unexpected("instance of unknown node " +
                             std::to_string(inst.schema)));
    }
    if (!visit(inst, parent)) return false;
    if (!inst.present) return true;
    const Ancestor here(&inst, parent);
    for (InstPtr& child : inst.children) {
      if (!walk(*child, &here)) return false;
    }
    return true;
  }

  /// Per instance: its constant, its holder seed (a width-correct zero,
  /// the final value of a holder whose dependant is absent), kParsed's
  /// shape check, its pair and its condition record.
  bool visit(Inst& inst, const Ancestor* parent) {
    const Node& n = g1_.node(inst.schema);
    if (n.has_const) {
      if (Status s = fill_const(n, inst); !s) {
        // A recovered constant that does not match the specification
        // means the wire was corrupt (or produced with other
        // transformations).
        if (mode_ != Mode::kParsed) return fail(s);
        return fail(
            Unexpected("parsed message rejected: " + s.error().message));
      }
    }
    if (table_.find_by_top(inst.schema) != nullptr) {
      if (Status s = encode_holder_into(ws_.encoded, g1_, inst.schema, 0); !s) {
        return fail(s);
      }
      inst.value = ws_.encoded;
    }
    if (mode_ == Mode::kParsed && shape_) {
      // Reported after the derive pass, whose errors come first, as they
      // did when ast::check ran after canonicalize.
      if (Status s = ast::check_shape(g1_, inst); !s) shape_ = malformed(s);
    }
    if (is_measured(n)) {
      if (Status s = add_pair(g1_, table_, inst, n, parent, ws_); !s) {
        return fail(s);
      }
    }
    if (mode_ != Mode::kParsed && n.type == NodeType::Optional &&
        n.condition.kind != Condition::Kind::Always) {
      const HolderInfo* info = table_.find_reference(n.condition.ref);
      ws_.conditions.push_back(
          {&inst, info != nullptr ? resolve(info->route, parent) : nullptr});
    }
    return true;
  }

  const Graph& g1_;
  const HolderTable& table_;
  Workspace& ws_;
  const Mode mode_;
  Status shape_;  // kParsed: the first shape mismatch
  Status error_;  // what stopped the walk
};

}  // namespace

Status canonical_copy(const Graph& g1, const HolderTable& table,
                      const Inst& message, InstPtr& out, Workspace& ws) {
  if (message.schema != g1.root()) {
    return Unexpected("instance root does not match graph root");
  }
  G1Walk walk(g1, table, ws, Mode::kCopy);
  out = ws.nodes.make(message.schema);
  if (!walk.copy(message, *out, nullptr)) return walk.error();
  return walk.finish();
}

Status canonicalize_parsed(const Graph& g1, const HolderTable& table,
                           Inst& root, Workspace& ws) {
  G1Walk walk(g1, table, ws, Mode::kParsed);
  if (!walk.in_place(root)) return walk.error();
  return walk.finish();
}

Status canonicalize(const Graph& g1, const HolderTable& table, Inst& root,
                    Workspace& ws) {
  G1Walk walk(g1, table, ws, Mode::kInPlace);
  if (!walk.in_place(root)) return walk.error();
  return walk.finish();
}

Status fix_holders(const Graph& wire, const Journal& journal,
                   const HolderTable& table, Inst& root,
                   std::uint64_t msg_seed, Workspace& ws) {
  Bytes& encoded = ws.encoded;
  start_pairs(table, ws);
  const auto pre = [&](Inst& inst, const Ancestor* parent) -> Status {
    const Node& n = wire.node(inst.schema);
    if (!is_measured(n)) return Status::success();
    return add_pair(wire, table, inst, n, parent, ws);
  };
  if (Status s = walk_with_ancestors(root, nullptr, pre); !s) return s;
  return derive_pass(wire, ws, [&](std::size_t k, DeriveRef& pair) -> Status {
    const HolderInfo& info = *pair.info;
    if (Status s = encode_holder_into(encoded, wire, info.origin, pair.value);
        !s) {
      return s;
    }
    auto carried = read_value(info.plan, *pair.holder, journal, ws.registers);
    if (carried && std::equal(carried->begin(), carried->end(),
                              encoded.begin(), encoded.end())) {
      return Status::success();
    }
    Rng rng(msg_seed ^ (0x9e3779b97f4a7c15ull * (k + 1)));
    auto rebuilt = rerun_chain(info.origin, encoded, journal, info.chain, rng,
                               &ws.nodes);
    if (!rebuilt) return Unexpected(rebuilt.error());
    *pair.holder = std::move(**rebuilt);
    return Status::success();
  });
}

}  // namespace protoobf
