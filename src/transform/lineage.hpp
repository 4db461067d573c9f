// Derived-field lineage tracking and the compiled journal program.
//
// A "holder" is a terminal whose value is computed by the framework rather
// than set by the application: a field referenced by some node's Length
// boundary (it carries a wire size) or Counter boundary (it carries an
// element count). Holders come from two places:
//   * native: terminals of G1 that the specification references
//     (Modbus length/quantity fields, HTTP Content-Length style fields);
//   * created: the length fields inserted by BoundaryChange and the count
//     fields inserted by RepSplit.
//
// Transformations freely apply *on top of* holders (the paper's "more
// dependencies between fields" challenge). The lineage of a holder is the
// ordered list of journal entries whose target lies inside the holder's
// growing subtree; replaying that chain over a freshly computed logical
// value rebuilds the holder's wire subtree (transform/exec.hpp's
// rerun_chain); its read plan (ReadPlan below) reads the logical value
// back off the wire subtree's leaf bytes without copying a node. The
// serializer uses it to skip holders that already carry their value; the
// parser to read lengths, counts and presence conditions.
//
// The same created-ids propagation also compiles the whole journal into
// per-node lists of resolved ops (JournalProgram): every wire node is owned
// by the G1 node whose transformations created it, so each G1 node's
// transformations can run at that node's own instances, the way the
// paper's generated library applies them inside each node's serialize and
// parse functions, with no search for the target.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "transform/journal.hpp"
#include "util/result.hpp"

namespace protoobf {

/// A lineage chain's inverse as a read over the wire subtree's leaves (run
/// by transform/exec.hpp's read_value). Each value the chain gives the
/// field is one step, keyed by node id: the origin and every Split* half.
/// A step no later entry splits is a leaf, read from the terminal at `path`
/// below the wire top; a split step combines its halves. Either then undoes
/// its Const* entries. PadInsert, ChildMove and ReadFromEnd only move
/// leaves, which the paths already reflect.
struct ReadPlan {
  static constexpr std::uint32_t kLeaf = ~std::uint32_t{0};

  struct Step {
    NodeId node = kNoNode;
    std::uint32_t split = kLeaf;  // journal index of the Split* that halved it
    std::uint32_t halves = 0;     // steps[halves], steps[halves + 1]
    std::vector<std::uint32_t> path;    // leaf: child indices from the top
    std::vector<std::uint32_t> consts;  // Const* entries, in journal order
  };
  std::vector<Step> steps;  // steps[0] is the origin

  /// One untransformed leaf: the logical value is the leaf's own bytes.
  bool direct() const {
    return steps.size() == 1 && steps[0].split == kLeaf &&
           steps[0].consts.empty();
  }
};

/// Where a referenced wire top sits, fixed once per graph. validate() puts
/// a reference target before its dependant in parse order, outside of it,
/// and inside only those Repetition/Tabular elements and Optionals that
/// also enclose the dependant. So the target's instance is reached from the
/// dependant's ancestors: from the deepest one on the route, down the
/// route's child indices (runtime/scope.hpp's resolve()).
struct Route {
  std::uint32_t anchor = 0;  // depth of nodes[0]: the element of the
                             // target's innermost Repetition/Tabular, or
                             // the root (depth 0)
  std::vector<NodeId> nodes;         // nodes[0] down to the target; empty
                                     // when the target is not in the graph
  std::vector<std::uint32_t> index;  // child index of nodes[i + 1] in nodes[i]
};

struct HolderInfo {
  NodeId origin = kNoNode;  // the terminal that logically holds the value
  NodeId top = kNoNode;     // top of the holder's subtree in the wire graph
  std::vector<std::size_t> chain;  // journal indices to replay over origin
  ReadPlan plan;                   // the chain's inverse, read in place
  Route route;                     // where `top` sits in the wire graph
};

struct HolderTable {
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  std::vector<HolderInfo> holders;
  // Optional condition targets are not holders (nothing derives them), but
  // the parser reads their logical value the same way, through their own
  // lineage.
  std::vector<HolderInfo> conditions;
  // Wire id -> index into `holders` / `conditions` (kNone: not a top).
  std::vector<std::uint32_t> holder_at, condition_at;

  const HolderInfo* find_by_top(NodeId top) const {
    return top < holder_at.size() && holder_at[top] != kNone
               ? &holders[holder_at[top]]
               : nullptr;
  }

  /// Lineage of any referenced wire top: a holder's first, else a
  /// condition target's. Null when `top` is neither.
  const HolderInfo* find_reference(NodeId top) const {
    if (const HolderInfo* holder = find_by_top(top)) return holder;
    return top < condition_at.size() && condition_at[top] != kNone
               ? &conditions[condition_at[top]]
               : nullptr;
  }
};

/// Scans the journal and computes every holder's origin, final wire top,
/// replay chain, read plan and route, plus the lineage of every Optional
/// condition target. `g1` is the pre-obfuscation graph, `wire` the final
/// one (`g1` again, with an empty journal, for G1's own table). Fails when
/// a plan cannot model its chain, e.g. a TabSplit in it.
Expected<HolderTable> build_holder_table(const Graph& g1, const Graph& wire,
                                         const Journal& journal);

/// The journal compiled into one list of resolved ops per G1 node.
///
/// owner[id] is defined for every wire-arena id: G1 ids own themselves and
/// the ids an entry creates inherit the owner of its target. G1 node X's
/// ops are the entries that transform X or the structure X's entries made.
/// Each op stores two paths from X's slot (the link holding X's instance,
/// or what an entry put there), through X's own nodes only: `forward` to
/// the target before the entry runs, `inverse` to inverse_site() after it
/// ran. A step is a child index, or kEach under a Repetition/Tabular (the
/// G1 ones and TabSplit/RepSplit's halves): every element.
///
/// Ops are in run order, which is not journal order: a node's run after all
/// its descendants' (parse inverts them in reverse, before the
/// descendants), one owner's in journal order. An element's entries may
/// come after the TabSplit/RepSplit that consumes the element (HTTP
/// per_node 4, seed 2018: a ConstSub on the pad of `header` follows the
/// RepSplit of `headers`), but such entries touch only nodes the split
/// moves, never the split itself, so children first gives the same tree.
///
/// ReadFromEnd emits no op: emission and parse_wire do the mirroring.
struct JournalProgram {
  static constexpr std::uint32_t kEach = ~std::uint32_t{0};  // fan-out step

  struct Path {
    std::uint32_t at = 0, size = 0;  // steps[at, at + size)
  };
  struct Op {
    std::uint32_t entry = 0;  // journal index; forward draws from its
                              // stream, errors name it
    Path forward, inverse;
  };

  std::vector<NodeId> owner;         // wire id -> G1 owner (kNoNode: none)
  std::vector<std::uint32_t> first;  // G1 id -> its first op in `ops`
  std::vector<Op> ops;               // grouped by owner, in run order
  std::vector<std::uint32_t> steps;  // every op's paths

  bool empty() const { return ops.empty(); }

  /// Owner of a wire-graph id, kNoNode when no G1 node or entry defines it.
  NodeId owner_of(NodeId id) const {
    return id < owner.size() ? owner[id] : kNoNode;
  }

  /// The ops of G1 node `node`, in forward order (empty when none).
  std::span<const Op> ops_of(NodeId node) const {
    if (node + std::size_t{1} >= first.size()) return {};
    return {ops.data() + first[node], ops.data() + first[node + 1]};
  }

  std::span<const std::uint32_t> path(Path p) const {
    return {steps.data() + p.at, p.size};
  }
};

/// Validates the journal against both graphs and compiles it. Every id an
/// entry names must be inside the wire arena (or kNoNode where the kind
/// allows it), every target must exist by its entry (a G1 node, or created
/// by an earlier entry), every created id must be fresh and claimed once,
/// and kind-specific parameters must be usable. The ops are resolved by
/// running the entries forward over a skeleton message (one instance of
/// every node), so a target outside its owner's region, or a pad index,
/// swap index or split element the entry cannot apply, fails here, naming
/// the entry. O(J × region + arena).
Expected<JournalProgram> compile_program(const Graph& g1, const Graph& wire,
                                         const Journal& journal);

}  // namespace protoobf
