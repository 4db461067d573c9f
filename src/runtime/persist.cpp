#include "runtime/persist.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <vector>

#include "graph/validate.hpp"

namespace protoobf {

namespace {

constexpr std::string_view kMagic = "protoobf-artifact v1";

std::string hex_or_dash(BytesView data) {
  return data.empty() ? "-" : to_hex(data);
}

std::string id_or_dash(NodeId id) {
  return id == kNoNode ? "-" : std::to_string(id);
}

void save_graph(std::ostringstream& out, const char* label, const Graph& g) {
  out << "graph " << label << " " << g.arena_size() << " " << g.root()
      << "\n";
  for (NodeId id = 0; id < g.arena_size(); ++id) {
    const Node& n = g.node(id);
    out << "node " << id << " " << n.name << " "
        << static_cast<int>(n.type) << " " << static_cast<int>(n.boundary)
        << " " << n.fixed_size << " " << hex_or_dash(n.delimiter) << " "
        << id_or_dash(n.ref) << " " << static_cast<int>(n.encoding) << " "
        << (n.has_const ? 1 : 0) << " " << hex_or_dash(n.const_value) << " "
        << (n.mirrored ? 1 : 0) << " " << id_or_dash(n.parent) << " "
        << static_cast<int>(n.condition.kind) << " "
        << id_or_dash(n.condition.ref) << " ";
    if (n.condition.values.empty()) {
      out << "-";
    } else {
      for (std::size_t i = 0; i < n.condition.values.size(); ++i) {
        if (i != 0) out << ",";
        out << to_hex(n.condition.values[i]);
      }
    }
    out << " ";
    if (n.children.empty()) {
      out << "-";
    } else {
      for (std::size_t i = 0; i < n.children.size(); ++i) {
        if (i != 0) out << ",";
        out << n.children[i];
      }
    }
    out << "\n";
  }
}

/// Parses a whole field as a number; false on junk, sign or overflow.
template <typename T>
bool parse_number(const std::string& field, T& out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc() && ptr == end;
}

class Loader {
 public:
  explicit Loader(std::string_view text) : in_(std::string(text)) {}

  Expected<ObfuscatedProtocol> run() {
    std::string line;
    if (!next(line) || line != kMagic) {
      return Unexpected("not a protoobf artifact");
    }
    if (!next(line) || line.rfind("protocol ", 0) != 0) {
      return Unexpected("missing protocol line");
    }
    const std::string name = line.substr(9);

    auto original = load_graph(name);
    if (!original.ok()) return Unexpected(original.error());
    auto wire = load_graph(name);
    if (!wire.ok()) return Unexpected(wire.error());

    if (!next(line) || line.rfind("journal ", 0) != 0) {
      return Unexpected("missing journal line");
    }
    malformed_ = false;
    const auto count = num<std::size_t>(line.substr(8));
    if (malformed_) return Unexpected("malformed journal line: " + line);
    Journal journal;
    // The count is untrusted: never reserve more than a real journal has.
    journal.reserve(std::min<std::size_t>(count, 4096));
    for (std::size_t i = 0; i < count; ++i) {
      if (!next(line)) return Unexpected("truncated journal");
      auto entry = parse_entry(line);
      if (!entry.ok()) return Unexpected(entry.error());
      journal.push_back(std::move(entry.value()));
    }
    return ObfuscatedProtocol::from_parts(std::move(original.value()),
                                          std::move(wire.value()),
                                          std::move(journal));
  }

 private:
  bool next(std::string& line) {
    while (std::getline(in_, line)) {
      if (!line.empty()) return true;
    }
    return false;
  }

  static std::vector<std::string> split(const std::string& line) {
    std::vector<std::string> fields;
    std::istringstream ss(line);
    std::string field;
    while (ss >> field) fields.push_back(field);
    return fields;
  }

  /// Number fields. Junk sets malformed_ (callers reset it per line and
  /// check it once the line is read) instead of throwing.
  template <typename T>
  T num(const std::string& field) {
    T out{};
    if (!parse_number(field, out)) malformed_ = true;
    return out;
  }

  NodeId parse_id(const std::string& field) {
    return field == "-" ? kNoNode : num<NodeId>(field);
  }

  /// An enum stored as its integer value, at most `last`.
  template <typename E>
  E parse_enum(const std::string& field, E last) {
    const auto value = num<unsigned>(field);
    if (value > static_cast<unsigned>(last)) malformed_ = true;
    return static_cast<E>(value);
  }

  static Expected<Bytes> parse_hex(const std::string& field) {
    if (field == "-") return Bytes{};
    auto bytes = from_hex(field);
    if (!bytes) return Unexpected("bad hex field '" + field + "'");
    return *bytes;
  }

  Expected<Graph> load_graph(const std::string& name) {
    std::string line;
    if (!next(line) || line.rfind("graph ", 0) != 0) {
      return Unexpected("missing graph header");
    }
    const auto header = split(line);
    if (header.size() != 4) return Unexpected("malformed graph header");
    malformed_ = false;
    const auto arena = num<std::size_t>(header[2]);
    const NodeId root = parse_id(header[3]);
    if (malformed_) return Unexpected("malformed graph header: " + line);

    Graph g(name);
    for (std::size_t k = 0; k < arena; ++k) {
      if (!next(line)) return Unexpected("truncated graph");
      const auto f = split(line);
      if (f.size() != 17 || f[0] != "node") {
        return Unexpected("malformed node line: " + line);
      }
      malformed_ = false;
      Node n;
      n.name = f[2];
      n.type = parse_enum(f[3], NodeType::Tabular);
      n.boundary = parse_enum(f[4], BoundaryKind::Half);
      n.fixed_size = num<std::size_t>(f[5]);
      auto delim = parse_hex(f[6]);
      if (!delim.ok()) return Unexpected(delim.error());
      n.delimiter = std::move(delim.value());
      n.ref = parse_id(f[7]);
      n.encoding = parse_enum(f[8], Encoding::AsciiDec);
      n.has_const = f[9] == "1";
      auto cv = parse_hex(f[10]);
      if (!cv.ok()) return Unexpected(cv.error());
      n.const_value = std::move(cv.value());
      n.mirrored = f[11] == "1";
      n.parent = parse_id(f[12]);
      n.condition.kind = parse_enum(f[13], Condition::Kind::NonZero);
      n.condition.ref = parse_id(f[14]);
      if (f[15] != "-") {
        std::istringstream values(f[15]);
        std::string piece;
        while (std::getline(values, piece, ',')) {
          auto v = from_hex(piece);
          if (!v) return Unexpected("bad condition value");
          n.condition.values.push_back(std::move(*v));
        }
      }
      if (f[16] != "-") {
        std::istringstream children(f[16]);
        std::string piece;
        while (std::getline(children, piece, ',')) {
          n.children.push_back(num<NodeId>(piece));
        }
      }
      const NodeId declared = num<NodeId>(f[1]);
      if (malformed_) return Unexpected("malformed node line: " + line);
      if (g.add_node(std::move(n)) != declared) {
        return Unexpected("node ids out of order in artifact");
      }
    }
    // Validation walks the graph by these ids; keep them inside the arena.
    const auto inside = [&](NodeId id) { return id < g.arena_size(); };
    if (!inside(root)) return Unexpected("graph root outside the arena");
    for (NodeId id = 0; id < g.arena_size(); ++id) {
      const Node& n = g.node(id);
      const bool ok =
          std::all_of(n.children.begin(), n.children.end(), inside) &&
          (n.ref == kNoNode || inside(n.ref)) &&
          (n.parent == kNoNode || inside(n.parent)) &&
          (n.condition.ref == kNoNode || inside(n.condition.ref));
      if (!ok) {
        return Unexpected("node '" + n.name + "' references an id outside "
                          "the arena");
      }
    }
    g.set_root(root);
    return g;
  }

  Expected<AppliedTransform> parse_entry(const std::string& line) {
    const auto f = split(line);
    if (f.size() != 18 || f[0] != "entry") {
      return Unexpected("malformed journal entry: " + line);
    }
    malformed_ = false;
    AppliedTransform e;
    // Kinds beyond the enum are rejected when the journal is compiled.
    e.kind = static_cast<TransformKind>(num<std::uint8_t>(f[1]));
    e.target = parse_id(f[2]);
    e.replacement = parse_id(f[3]);
    e.created_seq = parse_id(f[4]);
    e.created_a = parse_id(f[5]);
    e.created_b = parse_id(f[6]);
    e.created_c = parse_id(f[7]);
    e.created_d = parse_id(f[8]);
    e.element = parse_id(f[9]);
    auto key = parse_hex(f[10]);
    if (!key.ok()) return Unexpected(key.error());
    e.key = std::move(key.value());
    e.split_point = num<std::size_t>(f[11]);
    e.pad_index = num<std::size_t>(f[12]);
    e.pad_size = num<std::size_t>(f[13]);
    e.child_i = num<int>(f[14]);
    e.child_j = num<int>(f[15]);
    e.len_width = num<std::size_t>(f[16]);
    e.len_ascii = f[17] == "1";
    if (malformed_) return Unexpected("malformed journal entry: " + line);
    return e;
  }

  std::istringstream in_;
  bool malformed_ = false;  // a number field of the current line was junk
};

}  // namespace

std::string save_artifact(const ObfuscatedProtocol& protocol) {
  std::ostringstream out;
  out << kMagic << "\n";
  out << "protocol " << protocol.original().protocol_name() << "\n";
  save_graph(out, "original", protocol.original());
  save_graph(out, "wire", protocol.wire_graph());
  out << "journal " << protocol.journal().size() << "\n";
  for (const AppliedTransform& e : protocol.journal()) {
    out << "entry " << static_cast<int>(e.kind) << " " << id_or_dash(e.target)
        << " " << id_or_dash(e.replacement) << " " << id_or_dash(e.created_seq)
        << " " << id_or_dash(e.created_a) << " " << id_or_dash(e.created_b)
        << " " << id_or_dash(e.created_c) << " " << id_or_dash(e.created_d)
        << " " << id_or_dash(e.element) << " " << hex_or_dash(e.key) << " "
        << e.split_point << " " << e.pad_index << " " << e.pad_size << " "
        << e.child_i << " " << e.child_j << " " << e.len_width << " "
        << (e.len_ascii ? 1 : 0) << "\n";
  }
  out << "end\n";
  return out.str();
}

Expected<ObfuscatedProtocol> load_artifact(std::string_view text) {
  return Loader(text).run();
}

}  // namespace protoobf
