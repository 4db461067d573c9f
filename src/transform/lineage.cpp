#include "transform/lineage.hpp"

#include <algorithm>
#include <string>

#include "transform/exec.hpp"

namespace protoobf {

namespace {

void add_created_ids(const AppliedTransform& e, std::vector<NodeId>& members) {
  for (NodeId id : {e.created_seq, e.created_a, e.created_b, e.created_c,
                    e.created_d}) {
    if (id != kNoNode) members.push_back(id);
  }
}

/// Follows a holder from journal index `start` onward, extending its member
/// set and replay chain with every entry that lands inside its subtree.
HolderInfo trace(NodeId origin, std::size_t start, const Journal& journal) {
  HolderInfo info;
  info.origin = origin;
  info.top = origin;
  std::vector<NodeId> members{origin};
  for (std::size_t i = start; i < journal.size(); ++i) {
    const AppliedTransform& e = journal[i];
    if (std::find(members.begin(), members.end(), e.target) == members.end()) {
      continue;
    }
    // BoundaryChange wraps the holder with parse structure (length prefix +
    // data) but does not transfer referers and does not alter the holder's
    // value encoding — it is not part of the value lineage. Its created
    // length field is traced as its own holder by build_holder_table.
    if (e.kind == TransformKind::BoundaryChange) continue;
    info.chain.push_back(i);
    add_created_ids(e, members);
    if (e.target == info.top && e.replacement != e.target) {
      info.top = e.replacement;
    }
  }
  return info;
}

Unexpected entry_fail(std::size_t index, const std::string& what) {
  return Unexpected("journal entry " + std::to_string(index) + ": " + what);
}

/// The created-id slots a kind must fill. TabSplit's created_c and
/// RepSplit's created_d (the rest wrapper) exist only for elements of three
/// or more children, so they stay optional.
bool requires_created(TransformKind kind, NodeId AppliedTransform::*slot) {
  switch (kind) {
    case TransformKind::SplitAdd:
    case TransformKind::SplitSub:
    case TransformKind::SplitXor:
    case TransformKind::SplitCat:
      return slot == &AppliedTransform::created_seq ||
             slot == &AppliedTransform::created_a ||
             slot == &AppliedTransform::created_b;
    case TransformKind::BoundaryChange:
      return slot == &AppliedTransform::created_seq ||
             slot == &AppliedTransform::created_a;
    case TransformKind::PadInsert:
      return slot == &AppliedTransform::created_a;
    case TransformKind::TabSplit:
      return slot != &AppliedTransform::created_c &&
             slot != &AppliedTransform::created_d;
    case TransformKind::RepSplit:
      return slot != &AppliedTransform::created_d;
    default:
      return false;
  }
}

/// Compiles `info.chain` into `info.plan`. The split tree comes from the
/// chain; each value leaf's path from the top comes from `wire`, which
/// already holds every pad, swap and split the chain made.
Status compile_read_plan(HolderInfo& info, const Graph& wire,
                         const Journal& journal) {
  std::vector<ReadPlan::Step>& steps = info.plan.steps;
  steps.assign(1, {});
  steps[0].node = info.origin;
  for (const std::size_t index : info.chain) {
    const AppliedTransform& e = journal[index];
    const auto fail = [&](const char* what) {
      return Unexpected("journal entry " + std::to_string(index) + " (" +
                        to_string(e.kind) + "): " + what);
    };
    // The target's current value: a step no split has consumed yet.
    const auto value = std::find_if(steps.begin(), steps.end(), [&](auto& s) {
      return s.node == e.target && s.split == ReadPlan::kLeaf;
    });
    switch (e.kind) {
      case TransformKind::SplitAdd:
      case TransformKind::SplitSub:
      case TransformKind::SplitXor:
      case TransformKind::SplitCat:
        if (value == steps.end()) return fail("target holds no value");
        value->split = static_cast<std::uint32_t>(index);
        value->halves = static_cast<std::uint32_t>(steps.size());
        steps.emplace_back().node = e.created_a;
        steps.emplace_back().node = e.created_b;
        break;
      case TransformKind::ConstAdd:
      case TransformKind::ConstSub:
      case TransformKind::ConstXor:
        if (value == steps.end()) return fail("target holds no value");
        value->consts.push_back(static_cast<std::uint32_t>(index));
        break;
      case TransformKind::PadInsert:
      case TransformKind::ChildMove:
      case TransformKind::ReadFromEnd:
        break;  // they move leaves; the wire paths below see where
      default:
        return fail("cannot be read in place");
    }
  }
  for (ReadPlan::Step& step : steps) {
    if (step.split != ReadPlan::kLeaf) continue;
    for (NodeId at = step.node; at != info.top;) {
      const NodeId parent =
          at < wire.arena_size() ? wire.node(at).parent : kNoNode;
      if (parent == kNoNode || step.path.size() >= wire.arena_size()) {
        return Unexpected("value " + std::to_string(step.node) +
                          " is not inside the wire top");
      }
      const auto& kids = wire.node(parent).children;
      const auto k = std::find(kids.begin(), kids.end(), at) - kids.begin();
      step.path.insert(step.path.begin(), static_cast<std::uint32_t>(k));
      at = parent;
    }
  }
  return Status::success();
}

/// The route to `top` in `wire`; empty when no chain of child links leads
/// from the root to it.
Route route_to(const Graph& wire, NodeId top) {
  std::vector<NodeId> path;  // `top` up to the root
  for (NodeId at = top; at != kNoNode; at = wire.node(at).parent) {
    if (at >= wire.arena_size() || path.size() >= wire.arena_size()) return {};
    path.push_back(at);
  }
  if (path.empty() || path.back() != wire.root()) return {};
  std::reverse(path.begin(), path.end());
  std::size_t anchor = 0;
  for (std::size_t d = 0; d + 1 < path.size(); ++d) {
    const NodeType type = wire.node(path[d]).type;
    if (type == NodeType::Repetition || type == NodeType::Tabular) {
      anchor = d + 1;
    }
  }
  Route route;
  route.anchor = static_cast<std::uint32_t>(anchor);
  route.nodes.assign(path.begin() + anchor, path.end());
  for (std::size_t d = anchor; d + 1 < path.size(); ++d) {
    const int k = wire.child_index(path[d], path[d + 1]);
    if (k < 0) return {};
    route.index.push_back(static_cast<std::uint32_t>(k));
  }
  return route;
}

/// One instance of G1 node `slot->schema` and of everything below it: one
/// element per Repetition/Tabular, Fixed terminals at their size.
/// `slots[id]` receives the link that holds node id's instance.
void build_skeleton(const Graph& g1, InstPtr& slot,
                    std::vector<InstPtr*>& slots, InstPool* pool) {
  const Node& n = g1.node(slot->schema);
  slots[slot->schema] = &slot;
  if (n.type == NodeType::Terminal) slot->value.assign(n.fixed_size, 0);
  slot->children.reserve(n.children.size());  // the links must stay put
  for (const NodeId child : n.children) {
    slot->children.push_back(ast::make(pool, child));
    build_skeleton(g1, slot->children.back(), slots, pool);
  }
}

/// The link below `p` that holds the instance of `site`, descending only
/// through `owner`'s nodes; the steps there are appended to `steps`, kEach
/// under a Repetition/Tabular. Null when there is none.
InstPtr* find_site(InstPtr& p, NodeId site, NodeId owner,
                   const JournalProgram& program, const Graph& wire,
                   std::vector<std::uint32_t>& steps) {
  if (p->schema == site) return &p;
  if (program.owner_of(p->schema) != owner) return nullptr;
  const NodeType type = wire.node(p->schema).type;
  const bool each = type == NodeType::Repetition || type == NodeType::Tabular;
  for (std::size_t k = 0; k < p->children.size(); ++k) {
    steps.push_back(each ? JournalProgram::kEach
                         : static_cast<std::uint32_t>(k));
    if (InstPtr* found =
            find_site(p->children[k], site, owner, program, wire, steps)) {
      return found;
    }
    steps.pop_back();
  }
  return nullptr;
}

}  // namespace

Expected<HolderTable> build_holder_table(const Graph& g1, const Graph& wire,
                                         const Journal& journal) {
  HolderTable table;

  // Native holders: terminals of G1 referenced by Length/Counter boundaries.
  // Condition targets: read (not derived) by every Optional that tests them.
  for (NodeId id : g1.dfs_order()) {
    const Node& n = g1.node(id);
    if (n.type == NodeType::Terminal &&
        (g1.is_length_target(id) || g1.is_counter_target(id))) {
      table.holders.push_back(trace(id, 0, journal));
    }
    if (n.type == NodeType::Optional &&
        n.condition.kind != Condition::Kind::Always &&
        n.condition.ref != kNoNode) {
      const bool traced = std::any_of(
          table.conditions.begin(), table.conditions.end(),
          [&](const HolderInfo& c) { return c.origin == n.condition.ref; });
      if (!traced) table.conditions.push_back(trace(n.condition.ref, 0, journal));
    }
  }

  // Created holders: BoundaryChange length fields and RepSplit count fields.
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const AppliedTransform& e = journal[i];
    if (e.kind == TransformKind::BoundaryChange ||
        e.kind == TransformKind::RepSplit) {
      table.holders.push_back(trace(e.created_a, i + 1, journal));
    }
  }

  table.holder_at.assign(wire.arena_size(), HolderTable::kNone);
  table.condition_at = table.holder_at;
  for (auto [infos, at] : {std::pair{&table.holders, &table.holder_at},
                           std::pair{&table.conditions, &table.condition_at}}) {
    for (std::uint32_t i = 0; i < infos->size(); ++i) {
      HolderInfo& info = (*infos)[i];
      if (Status s = compile_read_plan(info, wire, journal); !s) {
        return Unexpected("lineage of node " + std::to_string(info.origin) +
                          ": " + s.error().message);
      }
      info.route = route_to(wire, info.top);
      if (info.top < at->size()) (*at)[info.top] = i;
    }
  }
  return table;
}

Expected<JournalProgram> compile_program(const Graph& g1, const Graph& wire,
                                         const Journal& journal) {
  const std::size_t arena = wire.arena_size();
  const std::size_t g1_arena = g1.arena_size();
  if (g1_arena > arena) {
    return Unexpected("original graph has more nodes than the wire graph");
  }
  JournalProgram program;
  program.owner.assign(arena, kNoNode);
  for (NodeId id = 0; id < g1_arena; ++id) program.owner[id] = id;

  const auto in_arena = [&](NodeId id) {
    return id == kNoNode || id < arena;
  };
  std::vector<NodeId> created;
  std::vector<std::vector<std::uint32_t>> owned(g1_arena);  // ascending
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const AppliedTransform& e = journal[i];
    if (static_cast<std::size_t>(e.kind) >= kTransformKindCount) {
      return entry_fail(i, "unknown transformation kind " +
                               std::to_string(static_cast<int>(e.kind)));
    }
    if (e.target == kNoNode || e.target >= arena ||
        program.owner[e.target] == kNoNode) {
      return entry_fail(i, "target " + std::to_string(e.target) +
                               " is neither a G1 node nor created earlier");
    }
    if (!in_arena(e.replacement) || !in_arena(e.element)) {
      return entry_fail(i, "node id outside the wire graph");
    }
    if ((e.kind == TransformKind::TabSplit ||
         e.kind == TransformKind::RepSplit) &&
        (e.element == kNoNode || program.owner[e.element] == kNoNode)) {
      return entry_fail(i, "split element is not a known node");
    }
    for (NodeId AppliedTransform::*slot :
         {&AppliedTransform::created_seq, &AppliedTransform::created_a,
          &AppliedTransform::created_b, &AppliedTransform::created_c,
          &AppliedTransform::created_d}) {
      const NodeId id = e.*slot;
      if (id == kNoNode && requires_created(e.kind, slot)) {
        return entry_fail(i, std::string(to_string(e.kind)) +
                                 " without its created nodes");
      }
      if (!in_arena(id)) return entry_fail(i, "node id outside the wire graph");
    }
    created.clear();
    add_created_ids(e, created);
    const NodeId owner = program.owner[e.target];
    for (NodeId id : created) {
      if (program.owner[id] != kNoNode) {
        return entry_fail(i, "node " + std::to_string(id) +
                                 " is already defined");
      }
      program.owner[id] = owner;
    }
    switch (e.kind) {
      case TransformKind::ConstAdd:
      case TransformKind::ConstSub:
      case TransformKind::ConstXor:
        if (e.key.empty()) return entry_fail(i, "constant with an empty key");
        break;
      case TransformKind::ChildMove:
        if (e.child_i < 0 || e.child_j < 0) {
          return entry_fail(i, "negative child index");
        }
        break;
      default:
        break;
    }
    owned[owner].push_back(static_cast<std::uint32_t>(i));
  }

  // Resolve the ops by running the entries forward over a skeleton message
  // in run order: owners children first (reverse pre-order over G1), each
  // owner's entries ascending. The skeleton holds one instance of every
  // node, so each entry finds its target at one path.
  std::vector<InstPtr*> slots(g1_arena, nullptr);
  InstPool pool;
  InstPtr skeleton = ast::make(&pool, g1.root());
  build_skeleton(g1, skeleton, slots, &pool);
  Rng rng(0);  // the skeleton's bytes are never read
  const auto path_from = [&](std::size_t at) {
    return JournalProgram::Path{
        static_cast<std::uint32_t>(at),
        static_cast<std::uint32_t>(program.steps.size() - at)};
  };
  std::vector<std::vector<JournalProgram::Op>> ops(g1_arena);
  const std::vector<NodeId> order = g1.dfs_order();
  for (auto x = order.rbegin(); x != order.rend(); ++x) {
    InstPtr& slot = *slots[*x];
    for (const std::uint32_t i : owned[*x]) {
      const AppliedTransform& e = journal[i];
      if (e.kind == TransformKind::ReadFromEnd) continue;
      const std::size_t at = program.steps.size();
      InstPtr* target =
          find_site(slot, e.target, *x, program, wire, program.steps);
      if (target == nullptr) {
        return entry_fail(i, "target is not inside its owner's region");
      }
      const JournalProgram::Path forward = path_from(at);
      if (Status s = forward_entry(*target, e, rng, &pool); !s) {
        return entry_fail(i, s.error().message);
      }
      const std::size_t inverse_at = program.steps.size();
      if (!find_site(slot, inverse_site(e), *x, program, wire, program.steps)) {
        return entry_fail(i, "no inverse site after the entry ran");
      }
      ops[*x].push_back({i, forward, path_from(inverse_at)});
    }
  }

  program.first.assign(g1_arena + 1, 0);
  for (std::size_t x = 0; x < g1_arena; ++x) {
    program.first[x + 1] =
        program.first[x] + static_cast<std::uint32_t>(ops[x].size());
    program.ops.insert(program.ops.end(), ops[x].begin(), ops[x].end());
  }
  return program;
}

}  // namespace protoobf
