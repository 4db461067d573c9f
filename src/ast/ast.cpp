#include "ast/ast.hpp"

#include <algorithm>
#include <sstream>

namespace protoobf {
namespace ast {

InstPtr terminal(NodeId schema, Bytes value) {
  auto inst = std::make_unique<Inst>(schema);
  inst->value = std::move(value);
  return inst;
}

InstPtr deferred(NodeId schema) { return std::make_unique<Inst>(schema); }

InstPtr composite(NodeId schema, std::vector<InstPtr> children) {
  auto inst = std::make_unique<Inst>(schema);
  inst->children = std::move(children);
  return inst;
}

InstPtr absent(NodeId schema) {
  auto inst = std::make_unique<Inst>(schema);
  inst->present = false;
  return inst;
}

InstPtr clone(const Inst& inst) {
  auto out = std::make_unique<Inst>(inst.schema);
  out->value = inst.value;
  out->present = inst.present;
  out->children.reserve(inst.children.size());
  for (const auto& child : inst.children) {
    out->children.push_back(clone(*child));
  }
  return out;
}

bool equal(const Inst& a, const Inst& b) {
  if (a.schema != b.schema || a.present != b.present) return false;
  if (!a.present) return true;
  if (a.value != b.value) return false;
  if (a.children.size() != b.children.size()) return false;
  for (std::size_t i = 0; i < a.children.size(); ++i) {
    if (!equal(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

std::size_t count(const Inst& inst) {
  std::size_t n = 1;
  for (const auto& child : inst.children) n += count(*child);
  return n;
}

Inst* find_schema(Inst& root, NodeId schema) {
  if (root.schema == schema) return &root;
  for (auto& child : root.children) {
    if (Inst* found = find_schema(*child, schema)) return found;
  }
  return nullptr;
}

const Inst* find_schema(const Inst& root, NodeId schema) {
  return find_schema(const_cast<Inst&>(root), schema);
}

namespace {
void collect_schema(Inst& root, NodeId schema, std::vector<Inst*>& out) {
  if (root.schema == schema) out.push_back(&root);
  for (auto& child : root.children) collect_schema(*child, schema, out);
}
}  // namespace

std::vector<Inst*> find_all_schema(Inst& root, NodeId schema) {
  std::vector<Inst*> out;
  collect_schema(root, schema, out);
  return out;
}

namespace {

struct PathSegment {
  std::string name;
  long index = -1;  // -1: no [k]
};

std::vector<PathSegment> split_path(std::string_view path) {
  std::vector<PathSegment> segments;
  std::size_t start = 0;
  while (start <= path.size()) {
    std::size_t dot = path.find('.', start);
    if (dot == std::string_view::npos) dot = path.size();
    std::string_view part = path.substr(start, dot - start);
    PathSegment seg;
    const std::size_t bracket = part.find('[');
    if (bracket != std::string_view::npos && part.back() == ']') {
      seg.name = std::string(part.substr(0, bracket));
      seg.index = std::strtol(
          std::string(part.substr(bracket + 1, part.size() - bracket - 2))
              .c_str(),
          nullptr, 10);
    } else {
      seg.name = std::string(part);
    }
    segments.push_back(std::move(seg));
    if (dot == path.size()) break;
    start = dot + 1;
  }
  return segments;
}

}  // namespace

Inst* find_path(const Graph& graph, Inst& root, std::string_view path) {
  const auto segments = split_path(path);
  if (segments.empty()) return nullptr;

  Inst* cursor = &root;
  std::size_t i = 0;
  // The leading segment may name the root itself.
  if (graph.node(cursor->schema).name == segments[0].name) {
    if (segments[0].index >= 0) return nullptr;
    i = 1;
  }
  for (; i < segments.size(); ++i) {
    const PathSegment& seg = segments[i];
    Inst* next = nullptr;
    const Node& schema = graph.node(cursor->schema);
    // After indexing into a repetition ("items[2].item.x"), the next segment
    // may redundantly name the element itself; stay in place.
    if (seg.index < 0 && schema.name == seg.name &&
        schema.type != NodeType::Repetition &&
        schema.type != NodeType::Tabular) {
      bool child_would_match = false;
      for (const auto& child : cursor->children) {
        if (graph.node(child->schema).name == seg.name) {
          child_would_match = true;
          break;
        }
      }
      if (!child_would_match) continue;
    }
    if (schema.type == NodeType::Repetition ||
        schema.type == NodeType::Tabular) {
      // Children are elements; the segment addresses the element schema.
      if (seg.index < 0 ||
          static_cast<std::size_t>(seg.index) >= cursor->children.size()) {
        return nullptr;
      }
      Inst* element = cursor->children[static_cast<std::size_t>(seg.index)].get();
      if (graph.node(element->schema).name != seg.name) return nullptr;
      cursor = element;
      continue;
    }
    for (auto& child : cursor->children) {
      if (graph.node(child->schema).name == seg.name) {
        next = child.get();
        break;
      }
    }
    if (next == nullptr) return nullptr;
    if (seg.index >= 0) {
      // Indexing a repetition/tabular child directly: headers[2].
      if (static_cast<std::size_t>(seg.index) >= next->children.size()) {
        return nullptr;
      }
      next = next->children[static_cast<std::size_t>(seg.index)].get();
    }
    cursor = next;
  }
  return cursor;
}

const Inst* find_path(const Graph& graph, const Inst& root,
                      std::string_view path) {
  return find_path(graph, const_cast<Inst&>(root), path);
}

namespace {

Status check_node(const Graph& graph, const Inst& inst) {
  if (Status s = check_shape(graph, inst); !s) return s;
  if (!inst.present) return Status::success();
  for (const auto& child : inst.children) {
    if (Status s = check_node(graph, *child); !s) return s;
  }
  return Status::success();
}

void dump_node(const Graph& graph, const Inst& inst, int depth,
               std::ostringstream& out) {
  const Node& schema = graph.node(inst.schema);
  out << std::string(static_cast<std::size_t>(depth) * 2, ' ') << schema.name;
  if (schema.type == NodeType::Terminal) {
    out << " = " << to_hex(inst.value);
    // Show printable values as text too.
    const bool printable =
        !inst.value.empty() &&
        std::all_of(inst.value.begin(), inst.value.end(), [](Byte b) {
          return b >= 0x20 && b < 0x7f;
        });
    if (printable) out << " (\"" << to_text(inst.value) << "\")";
  }
  if (!inst.present) out << " [absent]";
  out << "\n";
  if (inst.present) {
    for (const auto& child : inst.children) {
      dump_node(graph, *child, depth + 1, out);
    }
  }
}

}  // namespace

Status check_shape(const Graph& graph, const Inst& inst) {
  const Node& schema = graph.node(inst.schema);
  const auto fail = [&](const std::string& what) {
    return Unexpected("instance of '" + graph.path_of(inst.schema) +
                      "': " + what);
  };

  switch (schema.type) {
    case NodeType::Terminal:
      if (!inst.children.empty()) return fail("terminal with children");
      if (schema.boundary == BoundaryKind::Fixed && !inst.value.empty() &&
          inst.value.size() != schema.fixed_size) {
        return fail("value size " + std::to_string(inst.value.size()) +
                    " != fixed size " + std::to_string(schema.fixed_size));
      }
      return Status::success();
    case NodeType::Sequence:
      if (inst.children.size() != schema.children.size()) {
        return fail("sequence child count mismatch");
      }
      for (std::size_t i = 0; i < inst.children.size(); ++i) {
        if (inst.children[i]->schema != schema.children[i]) {
          return fail("sequence child schema mismatch at index " +
                      std::to_string(i));
        }
      }
      return Status::success();
    case NodeType::Optional:
      if (inst.present && (inst.children.size() != 1 ||
                           inst.children[0]->schema != schema.children[0])) {
        return fail("present optional must hold exactly its sub-node");
      }
      return Status::success();
    case NodeType::Repetition:
    case NodeType::Tabular:
      for (const auto& element : inst.children) {
        if (element->schema != schema.children[0]) {
          return fail("element schema mismatch");
        }
      }
      return Status::success();
  }
  return Status::success();
}

Status check(const Graph& graph, const Inst& root) {
  if (root.schema != graph.root()) {
    return Unexpected("instance root does not match graph root");
  }
  return check_node(graph, root);
}

std::string dump(const Graph& graph, const Inst& root) {
  std::ostringstream out;
  dump_node(graph, root, 0, out);
  return out.str();
}

}  // namespace ast
}  // namespace protoobf
