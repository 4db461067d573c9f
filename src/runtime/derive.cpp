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

/// Collects (holder, measured) pairs in parse order against `graph` into
/// the scratch's `pairs` (cleared first, capacity reused across messages),
/// calling `visit(inst, node)` on every instance as the walk reaches it.
/// Every pair links to the first pair of its holder instance: a holder
/// instance's pairs come one after another among its node's pairs, because
/// validate() keeps every dependant inside the elements that enclose the
/// holder, so each holder node's latest pair is the one to link from.
template <typename Visit>
Status collect_pairs(const Graph& graph, const HolderTable& table, Inst& root,
                     DeriveScratch& scratch, Visit&& visit) {
  std::vector<DeriveRef>& pairs = scratch.pairs;
  pairs.clear();
  // One right-sized allocation instead of a doubling climb on the first
  // call (arena-held scratch keeps the capacity across messages).
  if (pairs.capacity() == 0) pairs.reserve(16);
  scratch.latest.assign(table.holders.size(), DeriveScratch::kNoPair);
  const auto pre = [&](Inst& inst, const Ancestor* parent) -> Status {
    const Node& n = graph.node(inst.schema);
    if (Status s = visit(inst, n); !s) return s;
    if (n.boundary != BoundaryKind::Length &&
        n.boundary != BoundaryKind::Counter) {
      return Status::success();
    }
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
    std::size_t& latest = scratch.latest[info - table.holders.data()];
    const std::size_t first =
        latest != DeriveScratch::kNoPair && pairs[latest].holder == holder
            ? pairs[latest].first
            : pairs.size();
    latest = pairs.size();
    pairs.push_back({holder, &inst, info, first, DeriveRef::kUnmeasured,
                     n.boundary == BoundaryKind::Counter});
    return Status::success();
  };
  return walk_with_ancestors(root, nullptr, pre);
}

/// The one derive pass: visits the scratch's pairs from last to first,
/// measures each pair's region once (a Length region by emitting it into
/// the scratch's `region` buffer) and calls `set(k, pair)` at the first
/// pair of every holder instance, once all of its pairs measured the same
/// value.
template <typename Set>
Status derive_pass(const Graph& graph, DeriveScratch& scratch, Set&& set) {
  std::vector<DeriveRef>& pairs = scratch.pairs;
  // As in collect_pairs: one allocation instead of a doubling climb.
  if (scratch.region.capacity() == 0) scratch.region.reserve(256);
  for (std::size_t k = pairs.size(); k-- > 0;) {
    const DeriveRef& pair = pairs[k];
    std::uint64_t value = 0;
    if (pair.is_counter) {
      value = pair.measured->children.size();
    } else {
      if (Status s = emit_into(graph, *pair.measured, scratch.region); !s) {
        return s;
      }
      value = scratch.region.size();
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

}  // namespace

Status fill_consts(const Graph& graph, Inst& root) {
  if (Status s = fill_const(graph.node(root.schema), root); !s) return s;
  if (root.present) {
    for (auto& child : root.children) {
      if (Status s = fill_consts(graph, *child); !s) return s;
    }
  }
  return Status::success();
}

Status check_presence(const Graph& graph, const HolderTable& table,
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

Status canonicalize(const Graph& g1, Inst& root, const HolderTable* holders,
                    DeriveScratch* scratch) {
  Expected<HolderTable> local_holders = HolderTable{};
  if (holders == nullptr) {
    local_holders = build_holder_table(g1, g1, {});
    if (!local_holders) return Unexpected(local_holders.error());
    holders = &*local_holders;
  }
  if (holders->holders.empty()) return fill_consts(g1, root);

  DeriveScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  Bytes& encoded = scratch->encoded;
  // One walk fills the constants, seeds every holder with a width-correct
  // zero (the final value of a holder whose dependant is absent) and
  // collects the pairs.
  const auto seed = [&](Inst& inst, const Node& n) -> Status {
    if (Status s = fill_const(n, inst); !s) return s;
    if (holders->find_by_top(inst.schema) == nullptr) return Status::success();
    Status s = encode_holder_into(encoded, g1, inst.schema, 0);
    if (s) inst.value = encoded;
    return s;
  };
  if (Status s = collect_pairs(g1, *holders, root, *scratch, seed); !s) {
    return s;
  }
  return derive_pass(g1, *scratch, [&](std::size_t, DeriveRef& pair) {
    Status s = encode_holder_into(encoded, g1, pair.holder->schema,
                                  pair.value);
    if (s) pair.holder->value = encoded;
    return s;
  });
}

Status fix_holders(const Graph& wire, const Journal& journal,
                   const HolderTable& table, Inst& root,
                   std::uint64_t msg_seed, InstPool* pool,
                   DeriveScratch* scratch) {
  DeriveScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  Bytes& encoded = scratch->encoded;
  if (Status s = collect_pairs(
          wire, table, root, *scratch,
          [](Inst&, const Node&) { return Status::success(); });
      !s) {
    return s;
  }
  return derive_pass(wire, *scratch, [&](std::size_t k,
                                         DeriveRef& pair) -> Status {
    const HolderInfo& info = *pair.info;
    if (Status s = encode_holder_into(encoded, wire, info.origin, pair.value);
        !s) {
      return s;
    }
    auto carried = read_value(info.plan, *pair.holder, journal,
                              scratch->registers);
    if (carried && std::equal(carried->begin(), carried->end(),
                              encoded.begin(), encoded.end())) {
      return Status::success();
    }
    Rng rng(msg_seed ^ (0x9e3779b97f4a7c15ull * (k + 1)));
    auto rebuilt =
        rerun_chain(info.origin, encoded, journal, info.chain, rng, pool);
    if (!rebuilt) return Unexpected(rebuilt.error());
    *pair.holder = std::move(**rebuilt);
    return Status::success();
  });
}

}  // namespace protoobf
