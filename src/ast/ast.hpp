// Abstract syntax tree of one concrete message (paper §IV, §V-A).
//
// An AST is an instantiation of the message format graph: the overall
// message is the concatenation of its leaf values in ordered depth-first
// search. Instances mirror graph nodes 1:1 except under Repetition/Tabular
// nodes, where one instance child exists per repeated element, and under
// Optional nodes, whose instance carries a presence flag.
//
// Values of derived terminals (length holders referenced by a Length
// boundary, count holders referenced by a Counter boundary, and const
// fields) may be left empty by the application; the serializer computes
// them (runtime/derive) so that user code never maintains sizes by hand.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "util/result.hpp"

namespace protoobf {

struct Inst;
class InstPool;

/// Routes node destruction by provenance: pool nodes return to their
/// freelist (ast/pool.hpp), heap nodes are deleted. The converting
/// constructor keeps `std::make_unique<Inst>` call sites working.
struct InstDeleter {
  InstDeleter() = default;
  InstDeleter(std::default_delete<Inst>) {}
  void operator()(Inst* inst) const noexcept;
};
using InstPtr = std::unique_ptr<Inst, InstDeleter>;

struct Inst {
  NodeId schema = kNoNode;
  Bytes value;                    // Terminal payload
  std::vector<InstPtr> children;  // composite payload
  bool present = true;            // Optional presence
  InstPool* pool = nullptr;       // provenance; fixed at creation

  Inst() = default;
  explicit Inst(NodeId s) : schema(s) {}

  // Assignment moves the payload, never the provenance: a node stays owned
  // by whatever allocated it even when its contents are replaced wholesale
  // (the holder-rebuild path in runtime/derive does exactly that). Buffers
  // are swapped, not moved: the moved-from node usually returns to a pool
  // right after, and swapping hands it the destination's old capacity
  // instead of freeing it — so replacement cycles recycle instead of churn.
  Inst(const Inst&) = delete;
  Inst(Inst&&) = delete;
  Inst& operator=(const Inst&) = delete;
  Inst& operator=(Inst&& other) noexcept {
    schema = other.schema;
    value.swap(other.value);
    children.swap(other.children);
    present = other.present;
    return *this;
  }
};

namespace ast {

/// Leaf instance with an explicit value.
InstPtr terminal(NodeId schema, Bytes value);

/// Leaf instance whose value is filled later (derived/const fields).
InstPtr deferred(NodeId schema);

/// Composite instance taking ownership of its children.
InstPtr composite(NodeId schema, std::vector<InstPtr> children);

/// Absent Optional instance.
InstPtr absent(NodeId schema);

InstPtr clone(const Inst& inst);

/// Deep structural and value equality. Absent optionals compare equal
/// regardless of any stale children they carry.
bool equal(const Inst& a, const Inst& b);

/// Number of instances in the tree.
std::size_t count(const Inst& inst);

/// First instance (pre-order) whose schema id matches, or nullptr.
Inst* find_schema(Inst& root, NodeId schema);
const Inst* find_schema(const Inst& root, NodeId schema);

/// All instances whose schema id matches, in pre-order.
std::vector<Inst*> find_all_schema(Inst& root, NodeId schema);

/// Resolves a dotted path with optional element indices against the graph
/// and the instance tree, e.g. "request.headers[2].header.name". Path
/// segments are node names; "[k]" selects the k-th element under a
/// Repetition/Tabular. Returns nullptr when the path does not resolve.
Inst* find_path(const Graph& graph, Inst& root, std::string_view path);
const Inst* find_path(const Graph& graph, const Inst& root,
                      std::string_view path);

/// Checks instance/schema alignment (child counts per node type, terminal
/// leaves, fixed sizes of non-empty terminal values).
Status check(const Graph& graph, const Inst& root);

/// check()'s rules for one instance: its own shape and its children's
/// schemas, without descending. check() applies it to every instance it
/// reaches; the derive walks (runtime/derive.hpp) apply it as they go.
Status check_shape(const Graph& graph, const Inst& inst);

/// Debug rendering: one line per instance, indented, values in hex.
std::string dump(const Graph& graph, const Inst& root);

}  // namespace ast
}  // namespace protoobf
