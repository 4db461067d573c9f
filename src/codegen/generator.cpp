#include "codegen/generator.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <sstream>

namespace protoobf {

namespace {

std::string sanitize(const std::string& name) {
  std::string out;
  for (char c : name) {
    out.push_back((std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_');
  }
  return out;
}

std::string bytes_literal(BytesView data) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i != 0) out << ",";
    out << static_cast<unsigned>(data[i]);
  }
  out << "}";
  return out.str();
}

/// Emission context: accumulates source text and the parse-side call graph.
class Generator {
 public:
  explicit Generator(const ObfuscatedProtocol& protocol)
      : g1_(protocol.original()),
        wire_(protocol.wire_graph()),
        journal_(protocol.journal()) {}

  GeneratedCode run() {
    collect_targets();
    prelude();
    emit_structs();
    emit_transform_helpers();
    emit_logical_helpers();
    emit_accessors();
    emit_prototypes();
    emit_parse_bodies();
    emit_serialize_bodies();
    emit_entry_points();
    out_ << "}  // namespace gen_" << sanitize(wire_.protocol_name()) << "\n";

    GeneratedCode result;
    result.source = out_.str();
    result.metrics.lines =
        static_cast<std::size_t>(std::count(result.source.begin(),
                                            result.source.end(), '\n'));
    result.metrics.structs = structs_;
    result.metrics.functions = callgraph_.function_count();
    result.metrics.callgraph_size = callgraph_.reachable_size("parse_message");
    result.metrics.callgraph_depth = callgraph_.depth("parse_message");
    return result;
  }

 private:
  // --- naming ---------------------------------------------------------------
  std::string nd(NodeId id) const {
    return "nd_" + sanitize(wire_.node(id).name) + "_" + std::to_string(id);
  }
  std::string fn_parse(NodeId id) const {
    return "parse_" + sanitize(wire_.node(id).name) + "_" + std::to_string(id);
  }
  std::string fn_ser(NodeId id) const {
    return "ser_" + sanitize(wire_.node(id).name) + "_" + std::to_string(id);
  }
  std::string member(NodeId id) const {
    return "f_" + sanitize(wire_.node(id).name);
  }
  std::string fn_logical(NodeId id) const {
    return "logical_" + sanitize(wire_.node(id).name) + "_" +
           std::to_string(id);
  }
  std::string tf_name(std::size_t idx, bool fwd) const {
    return "tf" + std::to_string(idx) + "_" +
           sanitize(to_string(journal_[idx].kind)) + (fwd ? "_fwd" : "_inv");
  }
  std::string ctx_slot(NodeId id) const {
    return "v_" + sanitize(wire_.node(id).name) + "_" + std::to_string(id);
  }

  // --- analysis ---------------------------------------------------------------
  void collect_targets() {
    for (NodeId id : wire_.dfs_order()) {
      const Node& n = wire_.node(id);
      if ((n.boundary == BoundaryKind::Length ||
           n.boundary == BoundaryKind::Counter) &&
          n.ref != kNoNode) {
        targets_.insert(n.ref);
      }
      if (n.type == NodeType::Optional && n.condition.ref != kNoNode) {
        targets_.insert(n.condition.ref);
      }
    }
    // Per-target inverse chains: journal entries whose creations contain the
    // target's subtree members, replayed in reverse by logical_*().
    for (NodeId target : targets_) {
      std::vector<NodeId> members = subtree_of(target);
      std::vector<std::size_t> chain;
      for (std::size_t i = 0; i < journal_.size(); ++i) {
        const AppliedTransform& e = journal_[i];
        const bool inside =
            std::find(members.begin(), members.end(), e.target) !=
                members.end() ||
            std::find(members.begin(), members.end(), e.replacement) !=
                members.end();
        if (inside) chain.push_back(i);
      }
      chains_[target] = std::move(chain);
    }
  }

  std::vector<NodeId> subtree_of(NodeId id) const {
    std::vector<NodeId> out{id};
    for (std::size_t i = 0; i < out.size(); ++i) {
      for (NodeId child : wire_.node(out[i]).children) out.push_back(child);
    }
    return out;
  }

  // --- sections ---------------------------------------------------------------
  void prelude() {
    const std::string ns = sanitize(wire_.protocol_name());
    out_ << "// Generated by ProtoObf — protocol '" << wire_.protocol_name()
         << "', " << journal_.size() << " transformation(s) applied.\n"
         << "// Serializer, parser and accessors for the obfuscated message "
            "format.\n"
         << "#include <cstdint>\n#include <cstring>\n#include <vector>\n\n"
         << "namespace gen_" << ns << " {\n\n"
         << "using bytes = std::vector<std::uint8_t>;\n\n"
         << "struct reader {\n"
         << "  const std::uint8_t* p;\n  std::size_t pos;\n  std::size_t end;\n"
         << "};\n\n"
         << "struct writer {\n  bytes out;\n};\n\n";
    structs_ += 2;

    out_ << "static bool rd_take(reader& r, std::size_t n, bytes& v) {\n"
         << "  if (r.end - r.pos < n) return false;\n"
         << "  v.assign(r.p + r.pos, r.p + r.pos + n);\n"
         << "  r.pos += n;\n  return true;\n}\n\n";
    callgraph_.add_function("rd_take");

    out_ << "static bool rd_find(const reader& r, const std::uint8_t* d,\n"
         << "                    std::size_t dn, std::size_t& at) {\n"
         << "  for (std::size_t i = r.pos; i + dn <= r.end; ++i) {\n"
         << "    if (std::memcmp(r.p + i, d, dn) == 0) { at = i; return true; }\n"
         << "  }\n  return false;\n}\n\n";
    callgraph_.add_function("rd_find");

    out_ << "static bool rd_starts(const reader& r, const std::uint8_t* d,\n"
         << "                      std::size_t dn) {\n"
         << "  return r.end - r.pos >= dn && std::memcmp(r.p + r.pos, d, dn) == 0;\n"
         << "}\n\n";
    callgraph_.add_function("rd_starts");

    out_ << "static std::uint64_t be_num(const bytes& v) {\n"
         << "  std::uint64_t x = 0;\n"
         << "  for (std::uint8_t b : v) x = (x << 8) | b;\n  return x;\n}\n\n";
    callgraph_.add_function("be_num");

    out_ << "static std::uint64_t dec_num(const bytes& v) {\n"
         << "  std::uint64_t x = 0;\n"
         << "  for (std::uint8_t b : v) x = x * 10 + (b - '0');\n  return x;\n"
         << "}\n\n";
    callgraph_.add_function("dec_num");

    out_ << "static bytes rev(bytes v) {\n"
         << "  for (std::size_t i = 0, j = v.size(); i + 1 < j--; ++i)\n"
         << "    { std::uint8_t t = v[i]; v[i] = v[j]; v[j] = t; }\n"
         << "  return v;\n}\n\n";
    callgraph_.add_function("rev");

    out_ << "static bool bytes_eq(const bytes& a, const std::uint8_t* d,\n"
         << "                     std::size_t dn) {\n"
         << "  return a.size() == dn && std::memcmp(a.data(), d, dn) == 0;\n"
         << "}\n\n";
    callgraph_.add_function("bytes_eq");

    out_ << "// Per-message randomness for the aggregation transformations.\n"
         << "static std::uint64_t rng_state = 0x70b5u;\n"
         << "static std::uint8_t rnd_byte() {\n"
         << "  rng_state = rng_state * 6364136223846793005ull + 1442695040888963407ull;\n"
         << "  return static_cast<std::uint8_t>(rng_state >> 56);\n}\n\n";
    callgraph_.add_function("rnd_byte");

    out_ << "static bytes split_store(bytes v) { return v; }\n"
         << "static bytes split_load(const bytes& v) { return v; }\n\n";
    callgraph_.add_function("split_store");
    callgraph_.add_function("split_load");
  }

  void emit_structs() {
    out_ << "// --- internal message representation (one struct per node) ---\n";
    // Post-order so children are defined before their parents.
    emit_struct_rec(wire_.root());
    out_ << "using message_t = " << nd(wire_.root()) << ";\n\n";
  }

  void emit_struct_rec(NodeId id) {
    const Node& n = wire_.node(id);
    for (NodeId child : n.children) emit_struct_rec(child);
    out_ << "struct " << nd(id) << " {\n";
    ++structs_;
    switch (n.type) {
      case NodeType::Terminal:
        out_ << "  bytes value;\n";
        break;
      case NodeType::Sequence:
        for (NodeId child : n.children) {
          out_ << "  " << nd(child) << " " << member(child) << ";\n";
        }
        break;
      case NodeType::Optional:
        out_ << "  bool present = false;\n"
             << "  " << nd(n.children[0]) << " " << member(n.children[0])
             << ";\n";
        break;
      case NodeType::Repetition:
      case NodeType::Tabular:
        out_ << "  std::vector<" << nd(n.children[0]) << "> elements;\n";
        break;
    }
    out_ << "};\n\n";
  }

  void emit_transform_helpers() {
    out_ << "// --- value transformation helpers (one pair per tau_i) ---\n";
    for (std::size_t i = 0; i < journal_.size(); ++i) {
      const AppliedTransform& e = journal_[i];
      switch (e.kind) {
        case TransformKind::ConstAdd:
        case TransformKind::ConstSub:
        case TransformKind::ConstXor: {
          const char* fop = e.kind == TransformKind::ConstAdd   ? "+"
                            : e.kind == TransformKind::ConstSub ? "-"
                                                                : "^";
          const char* iop = e.kind == TransformKind::ConstAdd   ? "-"
                            : e.kind == TransformKind::ConstSub ? "+"
                                                                : "^";
          out_ << "static const std::uint8_t key" << i << "[] = "
               << bytes_literal(e.key) << ";\n";
          for (bool fwd : {true, false}) {
            out_ << "static bytes " << tf_name(i, fwd) << "(bytes v) {\n"
                 << "  for (std::size_t k = 0; k < v.size(); ++k)\n"
                 << "    v[k] = static_cast<std::uint8_t>(v[k] "
                 << (fwd ? fop : iop) << " key" << i << "[k % sizeof key" << i
                 << "]);\n  return v;\n}\n";
            callgraph_.add_function(tf_name(i, fwd));
          }
          out_ << "\n";
          break;
        }
        case TransformKind::SplitAdd:
        case TransformKind::SplitSub:
        case TransformKind::SplitXor: {
          const char* fop = e.kind == TransformKind::SplitAdd   ? "+"
                            : e.kind == TransformKind::SplitSub ? "-"
                                                                : "^";
          const char* iop = e.kind == TransformKind::SplitAdd   ? "-"
                            : e.kind == TransformKind::SplitSub ? "+"
                                                                : "^";
          out_ << "static bytes " << tf_name(i, true) << "(const bytes& v) {\n"
               << "  bytes out(2 * v.size());\n"
               << "  for (std::size_t k = 0; k < v.size(); ++k) {\n"
               << "    out[k] = rnd_byte();\n"
               << "    out[v.size() + k] = static_cast<std::uint8_t>(v[k] "
               << fop << " out[k]);\n"
               << "  }\n  return out;\n}\n";
          callgraph_.add_function(tf_name(i, true));
          callgraph_.add_call(tf_name(i, true), "rnd_byte");
          out_ << "static bytes " << tf_name(i, false) << "(const bytes& v) {\n"
               << "  const std::size_t h = v.size() / 2;\n"
               << "  bytes out(h);\n"
               << "  for (std::size_t k = 0; k < h; ++k)\n"
               << "    out[k] = static_cast<std::uint8_t>(v[h + k] " << iop
               << " v[k]);\n  return out;\n}\n\n";
          callgraph_.add_function(tf_name(i, false));
          break;
        }
        case TransformKind::SplitCat:
          out_ << "static bytes " << tf_name(i, true) << "(bytes v) { return v; }\n"
               << "static bytes " << tf_name(i, false)
               << "(bytes v) { return v; }  // halves re-concatenated\n\n";
          callgraph_.add_function(tf_name(i, true));
          callgraph_.add_function(tf_name(i, false));
          break;
        default:
          break;  // structural transformations live in the node functions
      }
    }
    out_ << "\n";
  }

  /// Gathers the leaves of a target subtree into one buffer (declaration
  /// order) and applies the inverse chain — how the generated parser
  /// recovers the logical value of a transformed reference target.
  void emit_logical_helpers() {
    out_ << "// --- logical value recovery for reference targets ---\n"
            "// Each stage undoes one transformation and delegates to the\n"
            "// next; the chain depth mirrors how many transformations sit\n"
            "// between the wire and the logical value.\n";
    for (NodeId target : targets_) {
      // Value-affecting entries, innermost (applied first) last.
      std::vector<std::size_t> stages;
      for (auto it = chains_[target].rbegin(); it != chains_[target].rend();
           ++it) {
        const TransformKind k = journal_[*it].kind;
        if (k == TransformKind::ConstAdd || k == TransformKind::ConstSub ||
            k == TransformKind::ConstXor || k == TransformKind::SplitAdd ||
            k == TransformKind::SplitSub || k == TransformKind::SplitXor ||
            k == TransformKind::SplitCat) {
          stages.push_back(*it);
        }
      }
      const std::string name = fn_logical(target);
      const auto stage_name = [&](std::size_t k) {
        return name + "_s" + std::to_string(k);
      };
      // Deepest stage first so each function can call the next one.
      for (std::size_t k = stages.size(); k-- > 0;) {
        const std::string self = stage_name(k);
        callgraph_.add_function(self);
        out_ << "static bytes " << self << "(bytes v) {\n  return "
             << tf_name(stages[k], false) << "(";
        callgraph_.add_call(self, tf_name(stages[k], false));
        if (k + 1 < stages.size()) {
          out_ << stage_name(k + 1) << "(v)";
          callgraph_.add_call(self, stage_name(k + 1));
        } else {
          out_ << "v";
        }
        out_ << ");\n}\n";
      }
      callgraph_.add_function(name);
      out_ << "static bytes " << name << "(const " << nd(target) << "& m) {\n"
           << "  bytes v;\n";
      emit_gather(target, "m", 1);
      if (!stages.empty()) {
        out_ << "  v = " << stage_name(0) << "(v);\n";
        callgraph_.add_call(name, stage_name(0));
      }
      out_ << "  return v;\n}\n\n";
    }
  }

  void emit_gather(NodeId id, const std::string& expr, int depth) {
    const Node& n = wire_.node(id);
    const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    if (n.type == NodeType::Terminal) {
      out_ << pad << "v.insert(v.end(), " << expr << ".value.begin(), "
           << expr << ".value.end());\n";
      return;
    }
    for (NodeId child : n.children) {
      emit_gather(child, expr + "." + member(child), depth);
    }
  }

  /// Stable accessor interface over the ORIGINAL terminals (paper §VI).
  void emit_accessors() {
    out_ << "// --- accessors: the stable interface of the original "
            "specification ---\n";
    for (NodeId id : g1_.dfs_order()) {
      const Node& n = g1_.node(id);
      if (n.type != NodeType::Terminal) continue;
      if (under_repetition(id)) continue;  // element-scoped fields use the
                                           // element structs directly
      // Wire location of this terminal: its id is stable unless a split
      // replaced it, in which case the setter scatters the value through the
      // two halves (the "scattered throughout memory" property of §VI).
      const std::string setter = "set_" + sanitize(n.name);
      const std::string getter = "get_" + sanitize(n.name);
      if (const auto path = wire_path_to(id)) {
        callgraph_.add_function(setter);
        callgraph_.add_function(getter);
        out_ << "static void " << setter << "(" << nd(wire_.root())
             << "& m, bytes v) {\n";
        for (std::size_t i : value_chain_of(id)) {
          out_ << "  v = " << tf_name(i, true) << "(v);\n";
          callgraph_.add_call(setter, tf_name(i, true));
        }
        out_ << "  m." << *path << ".value = split_store(v);\n"
             << "}\n";
        callgraph_.add_call(setter, "split_store");
        out_ << "static bytes " << getter << "(const " << nd(wire_.root())
             << "& m) {\n  bytes v = split_load(m." << *path << ".value);\n";
        callgraph_.add_call(getter, "split_load");
        const auto chain = value_chain_of(id);
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
          out_ << "  v = " << tf_name(*it, false) << "(v);\n";
          callgraph_.add_call(getter, tf_name(*it, false));
        }
        out_ << "  return v;\n}\n\n";
        continue;
      }
      // Terminal replaced by a split: write through the halves.
      const auto split = split_entry_of(id);
      if (!split) continue;
      const AppliedTransform& e = journal_[*split];
      const auto seq_path = wire_path_to(e.created_seq);
      if (!seq_path) continue;
      callgraph_.add_function(setter);
      out_ << "static void " << setter << "(" << nd(wire_.root())
           << "& m, bytes v) {\n"
           << "  v = " << tf_name(*split, true) << "(v);\n";
      callgraph_.add_call(setter, tf_name(*split, true));
      const std::string half =
          e.kind == TransformKind::SplitCat
              ? std::to_string(e.split_point) + "u"
              : "v.size() / 2";
      out_ << "  const std::size_t h = " << half << ";\n"
           << "  m." << *seq_path << "." << member(e.created_a)
           << ".value.assign(v.begin(), v.begin() + h);\n"
           << "  m." << *seq_path << "." << member(e.created_b)
           << ".value.assign(v.begin() + h, v.end());\n}\n\n";
    }
    out_ << "\n";
  }

  /// Index of the split entry that replaced terminal `id`, if any.
  std::optional<std::size_t> split_entry_of(NodeId id) const {
    for (std::size_t i = 0; i < journal_.size(); ++i) {
      const TransformKind k = journal_[i].kind;
      if (journal_[i].target == id &&
          (k == TransformKind::SplitAdd || k == TransformKind::SplitSub ||
           k == TransformKind::SplitXor || k == TransformKind::SplitCat)) {
        return i;
      }
    }
    return std::nullopt;
  }

  bool under_repetition(NodeId id) const {
    for (NodeId a : g1_.ancestors(id)) {
      const NodeType t = g1_.node(a).type;
      if (t == NodeType::Repetition || t == NodeType::Tabular) return true;
    }
    return false;
  }

  /// Journal entries that value-transform terminal `id` (in place).
  std::vector<std::size_t> value_chain_of(NodeId id) const {
    std::vector<std::size_t> chain;
    for (std::size_t i = 0; i < journal_.size(); ++i) {
      if (journal_[i].target == id &&
          (journal_[i].kind == TransformKind::ConstAdd ||
           journal_[i].kind == TransformKind::ConstSub ||
           journal_[i].kind == TransformKind::ConstXor)) {
        chain.push_back(i);
      }
    }
    return chain;
  }

  /// Struct member path from the root to terminal `id` in the wire graph
  /// (nullopt when the terminal was replaced or sits under a repetition).
  std::optional<std::string> wire_path_to(NodeId id) const {
    const auto positions = wire_.dfs_positions();
    if (id >= positions.size() ||
        positions[id] == static_cast<std::size_t>(-1)) {
      return std::nullopt;
    }
    std::vector<NodeId> rev_chain;
    for (NodeId a = id; a != wire_.root(); a = wire_.node(a).parent) {
      const NodeType t = wire_.node(wire_.node(a).parent).type;
      if (t == NodeType::Repetition || t == NodeType::Tabular) {
        return std::nullopt;
      }
      rev_chain.push_back(a);
    }
    if (rev_chain.empty()) return std::nullopt;  // the root itself
    std::string path;
    for (auto it = rev_chain.rbegin(); it != rev_chain.rend(); ++it) {
      if (!path.empty()) path += ".";
      path += member(*it);
    }
    return path;
  }

  void emit_prototypes() {
    out_ << "// --- parser/serializer prototypes ---\n";
    out_ << "struct ctx {\n";
    ++structs_;
    for (NodeId target : targets_) {
      out_ << "  bytes " << ctx_slot(target) << ";\n";
    }
    out_ << "};\n\n";
    for (NodeId id : wire_.dfs_order()) {
      out_ << "static bool " << fn_parse(id) << "(reader&, " << nd(id)
           << "&, ctx&);\n";
      out_ << "static bool " << fn_ser(id) << "(writer&, const " << nd(id)
           << "&, ctx&);\n";
      callgraph_.add_function(fn_parse(id));
    }
    out_ << "\n";
  }

  void region_code(const Node& n, const std::string& parse_fn) {
    // Emits "std::size_t rend = ...;" region determination inside a parse
    // body; expects reader r and ctx c in scope.
    switch (n.boundary) {
      case BoundaryKind::Fixed:
        out_ << "  if (r.end - r.pos < " << n.fixed_size
             << "u) return false;\n"
             << "  std::size_t rend = r.pos + " << n.fixed_size << "u;\n";
        break;
      case BoundaryKind::Half:
        out_ << "  if ((r.end - r.pos) % 2) return false;\n"
             << "  std::size_t rend = r.pos + (r.end - r.pos) / 2;\n";
        break;
      case BoundaryKind::End:
        out_ << "  std::size_t rend = r.end;\n";
        break;
      case BoundaryKind::Length: {
        const bool ascii = origin_encoding(n.ref) == Encoding::AsciiDec;
        out_ << "  std::size_t rend = r.pos + static_cast<std::size_t>("
             << (ascii ? "dec_num" : "be_num") << "(c." << ctx_slot(n.ref)
             << "));\n"
             << "  if (rend > r.end) return false;\n";
        callgraph_.add_call(parse_fn, ascii ? "dec_num" : "be_num");
        break;
      }
      case BoundaryKind::Delimited: {
        out_ << "  static const std::uint8_t delim[] = "
             << bytes_literal(n.delimiter) << ";\n"
             << "  std::size_t rend = 0;\n"
             << "  if (!rd_find(r, delim, sizeof delim, rend)) return false;\n";
        callgraph_.add_call(parse_fn, "rd_find");
        break;
      }
      case BoundaryKind::Delegated:
      case BoundaryKind::Counter:
        out_ << "  std::size_t rend = r.end;  // delegated extent\n";
        break;
    }
  }

  Encoding origin_encoding(NodeId ref) const {
    // The holder top may be a composite created by transformations; the
    // encoding of its logical value is the origin terminal's. Created length
    // fields keep their own encoding; native holders keep G1's.
    const Node& n = wire_.node(ref);
    if (n.type == NodeType::Terminal) return n.encoding;
    // Find the first terminal underneath with a meaningful encoding.
    for (NodeId child : n.children) {
      const Encoding e = origin_encoding(child);
      if (e == Encoding::AsciiDec) return e;
    }
    return Encoding::Binary;
  }

  void register_target_capture(const std::string& caller, NodeId child,
                               const std::string& expr) {
    if (targets_.count(child) == 0) return;
    out_ << "  c." << ctx_slot(child) << " = " << fn_logical(child) << "("
         << expr << ");\n";
    callgraph_.add_call(caller, fn_logical(child));
  }

  void emit_parse_bodies() {
    out_ << "// --- parsers (ordering transformations woven in) ---\n";
    for (NodeId id : wire_.dfs_order()) {
      const Node& n = wire_.node(id);
      const std::string self = fn_parse(id);
      out_ << "static bool " << self << "(reader& r, " << nd(id)
           << "& m, ctx& c) {\n";
      if (n.mirrored) {
        region_code(n, self);
        out_ << "  bytes tmp(r.p + r.pos, r.p + rend);\n"
             << "  tmp = rev(tmp);  // ReadFromEnd: undo the mirrored region\n"
             << "  reader rr{tmp.data(), 0, tmp.size()};\n";
        callgraph_.add_call(self, "rev");
        emit_parse_content(n, id, self, "rr", /*region=*/"rr.end");
        out_ << "  if (rr.pos != rr.end) return false;\n"
             << "  r.pos = rend;\n  return true;\n}\n\n";
        continue;
      }
      if (n.type == NodeType::Repetition &&
          n.boundary == BoundaryKind::Delimited) {
        // Stop-marker repetitions find their own end per iteration.
        out_ << "  std::size_t rend = r.end;\n  (void)rend;\n";
      } else {
        region_code(n, self);
      }
      emit_parse_content(n, id, self, "r", "rend");
      // Consume scanned delimiters.
      if (n.boundary == BoundaryKind::Delimited &&
          n.type != NodeType::Repetition) {
        out_ << "  r.pos = rend + sizeof delim;\n";
      } else if (n.boundary != BoundaryKind::Delegated &&
                 n.boundary != BoundaryKind::Counter &&
                 n.type != NodeType::Repetition &&
                 n.type != NodeType::Tabular &&
                 n.type != NodeType::Optional &&
                 n.type != NodeType::Sequence) {
        out_ << "  r.pos = rend;\n";
      }
      out_ << "  return true;\n}\n\n";
    }
  }

  void emit_parse_content(const Node& n, NodeId /*id*/, const std::string& self,
                          const std::string& rdr, const std::string& rend) {
    switch (n.type) {
      case NodeType::Terminal: {
        out_ << "  if (!rd_take(" << rdr << ", " << rend << " - " << rdr
             << ".pos, m.value)) return false;\n";
        callgraph_.add_call(self, "rd_take");
        // The paper's on-the-fly strategy: aggregation transformations are
        // undone while parsing, not in a separate pass an attacker could
        // hook (§VI "Observation" challenge).
        const auto chain = value_chain_of(n.id);
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
          out_ << "  m.value = " << tf_name(*it, false) << "(m.value);\n";
          callgraph_.add_call(self, tf_name(*it, false));
        }
        break;
      }
      case NodeType::Sequence: {
        const bool regioned = n.boundary != BoundaryKind::Delegated;
        if (regioned) {
          out_ << "  reader sub{" << rdr << ".p, " << rdr << ".pos, " << rend
               << "};\n";
        }
        const std::string use = regioned ? "sub" : rdr;
        for (NodeId child : n.children) {
          out_ << "  if (!" << fn_parse(child) << "(" << use << ", m."
               << member(child) << ", c)) return false;\n";
          callgraph_.add_call(self, fn_parse(child));
          register_target_capture(self, child, "m." + member(child));
        }
        if (regioned) {
          out_ << "  if (sub.pos != sub.end) return false;\n"
               << "  " << rdr << ".pos = " << rend << ";\n";
        }
        // Split sequences recombine their halves into the logical value on
        // the fly (kept in a scratch buffer; accessors read through it).
        for (std::size_t i = 0; i < journal_.size(); ++i) {
          if (journal_[i].created_seq != n.id) continue;
          const TransformKind k = journal_[i].kind;
          if (k != TransformKind::SplitAdd && k != TransformKind::SplitSub &&
              k != TransformKind::SplitXor && k != TransformKind::SplitCat) {
            continue;
          }
          out_ << "  { bytes joined = m." << member(journal_[i].created_a)
               << ".value;\n"
               << "    joined.insert(joined.end(), m."
               << member(journal_[i].created_b) << ".value.begin(), m."
               << member(journal_[i].created_b) << ".value.end());\n"
               << "    joined = " << tf_name(i, false)
               << "(joined);\n    (void)joined; }\n";
          callgraph_.add_call(self, tf_name(i, false));
        }
        break;
      }
      case NodeType::Optional: {
        if (n.condition.kind == Condition::Kind::Always) {
          out_ << "  m.present = true;\n";
        } else {
          emit_condition(n, self);
        }
        out_ << "  if (m.present) {\n"
             << "    if (!" << fn_parse(n.children[0]) << "(" << rdr << ", m."
             << member(n.children[0]) << ", c)) return false;\n"
             << "  }\n";
        callgraph_.add_call(self, fn_parse(n.children[0]));
        register_target_capture(self, n.children[0],
                                "m." + member(n.children[0]));
        break;
      }
      case NodeType::Repetition: {
        if (n.boundary == BoundaryKind::Delimited) {
          out_ << "  static const std::uint8_t stop[] = "
               << bytes_literal(n.delimiter) << ";\n"
               << "  while (!rd_starts(" << rdr << ", stop, sizeof stop)) {\n"
               << "    if (" << rdr << ".pos >= " << rdr
               << ".end) return false;\n"
               << "    m.elements.emplace_back();\n"
               << "    if (!" << fn_parse(n.children[0]) << "(" << rdr
               << ", m.elements.back(), c)) return false;\n"
               << "  }\n  " << rdr << ".pos += sizeof stop;\n";
          callgraph_.add_call(self, "rd_starts");
        } else {
          out_ << "  reader sub{" << rdr << ".p, " << rdr << ".pos, " << rend
               << "};\n"
               << "  while (sub.pos < sub.end) {\n"
               << "    m.elements.emplace_back();\n"
               << "    if (!" << fn_parse(n.children[0])
               << "(sub, m.elements.back(), c)) return false;\n"
               << "  }\n  " << rdr << ".pos = " << rend << ";\n";
        }
        callgraph_.add_call(self, fn_parse(n.children[0]));
        break;
      }
      case NodeType::Tabular: {
        const bool ascii = origin_encoding(n.ref) == Encoding::AsciiDec;
        out_ << "  const std::uint64_t count = " << (ascii ? "dec_num" : "be_num")
             << "(c." << ctx_slot(n.ref) << ");\n"
             << "  for (std::uint64_t k = 0; k < count; ++k) {\n"
             << "    m.elements.emplace_back();\n"
             << "    if (!" << fn_parse(n.children[0]) << "(" << rdr
             << ", m.elements.back(), c)) return false;\n"
             << "  }\n";
        callgraph_.add_call(self, ascii ? "dec_num" : "be_num");
        callgraph_.add_call(self, fn_parse(n.children[0]));
        break;
      }
    }
  }

  void emit_condition(const Node& n, const std::string& self) {
    const std::string slot = "c." + ctx_slot(n.condition.ref);
    if (n.condition.kind == Condition::Kind::Equals ||
        n.condition.kind == Condition::Kind::NotEquals ||
        n.condition.kind == Condition::Kind::OneOf) {
      callgraph_.add_call(self, "bytes_eq");
    }
    switch (n.condition.kind) {
      case Condition::Kind::Equals: {
        out_ << "  static const std::uint8_t want[] = "
             << bytes_literal(n.condition.values[0]) << ";\n"
             << "  m.present = bytes_eq(" << slot << ", want, sizeof want);\n";
        break;
      }
      case Condition::Kind::NotEquals: {
        out_ << "  static const std::uint8_t want[] = "
             << bytes_literal(n.condition.values[0]) << ";\n"
             << "  m.present = !bytes_eq(" << slot << ", want, sizeof want);\n";
        break;
      }
      case Condition::Kind::OneOf: {
        out_ << "  m.present = false;\n";
        for (std::size_t i = 0; i < n.condition.values.size(); ++i) {
          out_ << "  { static const std::uint8_t w" << i << "[] = "
               << bytes_literal(n.condition.values[i]) << ";\n"
               << "    m.present = m.present || bytes_eq(" << slot << ", w"
               << i << ", sizeof w" << i << "); }\n";
        }
        break;
      }
      case Condition::Kind::NonZero: {
        out_ << "  m.present = false;\n"
             << "  for (std::uint8_t b : " << slot
             << ") m.present = m.present || (b != 0);\n";
        break;
      }
      case Condition::Kind::Always:
        out_ << "  m.present = true;\n";
        break;
    }
  }

  void emit_serialize_bodies() {
    out_ << "// --- serializers ---\n";
    for (NodeId id : wire_.dfs_order()) {
      const Node& n = wire_.node(id);
      out_ << "static bool " << fn_ser(id) << "(writer& w, const " << nd(id)
           << "& m, ctx& c) {\n";
      if (n.mirrored) {
        out_ << "  std::size_t start = w.out.size();\n";
      }
      switch (n.type) {
        case NodeType::Terminal:
          out_ << "  w.out.insert(w.out.end(), m.value.begin(), "
                  "m.value.end());\n";
          break;
        case NodeType::Sequence:
          for (NodeId child : n.children) {
            out_ << "  if (!" << fn_ser(child) << "(w, m." << member(child)
                 << ", c)) return false;\n";
          }
          break;
        case NodeType::Optional:
          out_ << "  if (m.present && !" << fn_ser(n.children[0]) << "(w, m."
               << member(n.children[0]) << ", c)) return false;\n";
          break;
        case NodeType::Repetition:
        case NodeType::Tabular:
          out_ << "  for (const auto& e : m.elements)\n"
               << "    if (!" << fn_ser(n.children[0])
               << "(w, e, c)) return false;\n";
          break;
      }
      if (n.mirrored) {
        out_ << "  for (std::size_t i = start, j = w.out.size(); i + 1 < j--; "
                "++i)\n"
             << "    { std::uint8_t t = w.out[i]; w.out[i] = w.out[j]; "
                "w.out[j] = t; }\n";
      }
      if (n.boundary == BoundaryKind::Delimited) {
        out_ << "  static const std::uint8_t delim[] = "
             << bytes_literal(n.delimiter) << ";\n"
             << "  w.out.insert(w.out.end(), delim, delim + sizeof delim);\n";
      }
      out_ << "  return true;\n}\n\n";
    }
  }

  void emit_entry_points() {
    const NodeId root = wire_.root();
    out_ << "// --- entry points ---\n"
         << "bool parse_message(const std::uint8_t* data, std::size_t len,\n"
         << "                   " << nd(root) << "& out) {\n"
         << "  reader r{data, 0, len};\n  ctx c;\n"
         << "  if (!" << fn_parse(root) << "(r, out, c)) return false;\n"
         << "  return r.pos == r.end;\n}\n\n";
    callgraph_.add_function("parse_message");
    callgraph_.add_call("parse_message", fn_parse(root));

    out_ << "bool serialize_message(const " << nd(root)
         << "& m, bytes& out) {\n"
         << "  writer w;\n  ctx c;\n"
         << "  if (!" << fn_ser(root) << "(w, m, c)) return false;\n"
         << "  out = std::move(w.out);\n  return true;\n}\n\n";
  }

  const Graph& g1_;
  const Graph& wire_;
  const Journal& journal_;
  std::ostringstream out_;
  CallGraph callgraph_;
  std::size_t structs_ = 0;
  std::set<NodeId> targets_;
  std::map<NodeId, std::vector<std::size_t>> chains_;
};

}  // namespace

GeneratedCode generate_cpp(const ObfuscatedProtocol& protocol) {
  return Generator(protocol).run();
}

}  // namespace protoobf
