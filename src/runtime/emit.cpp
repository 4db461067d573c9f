#include "runtime/emit.hpp"

#include <algorithm>

namespace protoobf {

namespace {

class Emitter {
 public:
  Emitter(const Graph& graph, Bytes& out, std::vector<FieldSpan>* spans)
      : graph_(graph), out_(out), spans_(spans) {}

  Status emit_node(const Inst& inst) {
    const Node& n = graph_.node(inst.schema);
    const std::size_t start = out_.size();

    switch (n.type) {
      case NodeType::Terminal: {
        if (n.boundary == BoundaryKind::Fixed &&
            inst.value.size() != n.fixed_size) {
          return fail(inst, "value size " + std::to_string(inst.value.size()) +
                                " does not match fixed size " +
                                std::to_string(n.fixed_size));
        }
        if (spans_ != nullptr) {
          spans_->push_back({inst.schema, start, inst.value.size()});
        }
        append(out_, inst.value);
        break;
      }
      case NodeType::Sequence: {
        for (const auto& child : inst.children) {
          if (Status s = emit_node(*child); !s) return s;
        }
        break;
      }
      case NodeType::Optional: {
        if (inst.present) {
          if (inst.children.size() != 1) {
            return fail(inst, "present optional without its sub-node");
          }
          if (Status s = emit_node(*inst.children[0]); !s) return s;
        }
        break;
      }
      case NodeType::Repetition:
      case NodeType::Tabular: {
        for (const auto& element : inst.children) {
          const std::size_t element_start = out_.size();
          if (Status s = emit_node(*element); !s) return s;
          const std::size_t element_size = out_.size() - element_start;
          if (n.type == NodeType::Repetition && element_size == 0) {
            return fail(inst, "repetition element serialized empty");
          }
          if (n.type == NodeType::Repetition &&
              n.boundary == BoundaryKind::Delimited &&
              starts_with(BytesView(out_).subspan(element_start),
                          n.delimiter)) {
            return fail(inst, "repetition element starts with the stop marker");
          }
        }
        break;
      }
    }

    if (n.mirrored) {
      std::reverse(out_.begin() + static_cast<std::ptrdiff_t>(start),
                   out_.end());
      remap_mirrored_spans(start, out_.size() - start);
    }

    if (n.boundary == BoundaryKind::Delimited) {
      // For non-repetition nodes the parser scans for the first delimiter
      // occurrence; the content must therefore not contain it.
      if (n.type != NodeType::Repetition &&
          find(BytesView(out_).subspan(start), n.delimiter)) {
        return fail(inst, "content contains its own delimiter");
      }
      append(out_, n.delimiter);
    }

    if (n.boundary == BoundaryKind::Fixed && n.is_composite() &&
        out_.size() - start != n.fixed_size) {
      return fail(inst, "composite serialized to " +
                            std::to_string(out_.size() - start) +
                            " bytes, fixed size is " +
                            std::to_string(n.fixed_size));
    }
    return Status::success();
  }

 private:
  Unexpected fail(const Inst& inst, const std::string& what) const {
    return Unexpected("serialize '" + graph_.path_of(inst.schema) +
                      "': " + what);
  }

  void remap_mirrored_spans(std::size_t start, std::size_t length) {
    if (spans_ == nullptr) return;
    for (FieldSpan& span : *spans_) {
      if (span.offset >= start && span.offset + span.length <= start + length) {
        span.offset =
            start + (length - (span.offset - start) - span.length);
      }
    }
  }

  const Graph& graph_;
  Bytes& out_;
  std::vector<FieldSpan>* spans_;
};

}  // namespace

Expected<Bytes> emit(const Graph& graph, const Inst& root,
                     std::vector<FieldSpan>* spans) {
  Bytes out;
  if (Status s = emit_into(graph, root, out, spans); !s) {
    return Unexpected(s.error());
  }
  return out;
}

Status emit_into(const Graph& graph, const Inst& root, Bytes& out,
                 std::vector<FieldSpan>* spans) {
  out.clear();
  if (spans != nullptr) spans->clear();
  Emitter emitter(graph, out, spans);
  return emitter.emit_node(root);
}

}  // namespace protoobf
