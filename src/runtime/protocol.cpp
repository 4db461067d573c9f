#include "runtime/protocol.hpp"

#include "graph/validate.hpp"
#include "runtime/derive.hpp"
#include "runtime/parse.hpp"
#include "transform/exec.hpp"

namespace protoobf {

namespace {

/// Node for node, every attribute that shapes a wire image or its parse.
/// Names are left out: no byte depends on them, and each error names the
/// nodes of the graph it named before.
bool same_nodes(const Graph& a, const Graph& b) {
  if (a.root() != b.root() || a.arena_size() != b.arena_size()) return false;
  for (NodeId id = 0; id < a.arena_size(); ++id) {
    const Node& x = a.node(id);
    const Node& y = b.node(id);
    if (x.type != y.type || x.boundary != y.boundary ||
        x.fixed_size != y.fixed_size || x.delimiter != y.delimiter ||
        x.ref != y.ref || x.encoding != y.encoding ||
        x.has_const != y.has_const || x.const_value != y.const_value ||
        x.condition.kind != y.condition.kind ||
        x.condition.ref != y.condition.ref ||
        x.condition.values != y.condition.values ||
        x.mirrored != y.mirrored || x.children != y.children) {
      return false;
    }
  }
  return true;
}

}  // namespace

ObfuscatedProtocol::ObfuscatedProtocol(Graph original, ObfuscationResult result,
                                       JournalProgram program,
                                       HolderTable holders, bool identity)
    : original_(std::move(original)),
      wire_(std::move(result.graph)),
      journal_(std::move(result.journal)),
      stats_(result.stats),
      program_(std::move(program)),
      holders_(std::move(holders)),
      // An empty journal's read plans are single leaves: this cannot fail.
      canon_holders_(build_holder_table(original_, original_, {}).value()),
      identity_(identity) {}

Expected<ObfuscatedProtocol> ObfuscatedProtocol::assemble(
    Graph original, ObfuscationResult result) {
  auto program = compile_program(original, result.graph, result.journal);
  if (!program) return Unexpected(program.error());
  auto holders = build_holder_table(original, result.graph, result.journal);
  if (!holders) return Unexpected(holders.error());
  // Counted once the journal's kinds are known to be valid.
  result.stats = {result.journal.size(), {}};
  for (const AppliedTransform& e : result.journal) {
    ++result.stats.per_kind[static_cast<std::size_t>(e.kind)];
  }
  const bool identity =
      result.journal.empty() && same_nodes(original, result.graph);
  return ObfuscatedProtocol(std::move(original), std::move(result),
                            std::move(*program), std::move(*holders),
                            identity);
}

Expected<ObfuscatedProtocol> ObfuscatedProtocol::create(
    const Graph& g1, const ObfuscationConfig& config) {
  auto result = obfuscate(g1, config);
  if (!result) return Unexpected(result.error());
  return assemble(g1.clone(), std::move(*result));
}

Expected<ObfuscatedProtocol> ObfuscatedProtocol::from_parts(Graph original,
                                                            Graph wire,
                                                            Journal journal) {
  if (Status s = validate(original); !s) {
    return Unexpected("artifact original graph invalid: " +
                      s.error().message);
  }
  if (Status s = validate(wire); !s) {
    return Unexpected("artifact wire graph invalid: " + s.error().message);
  }
  auto protocol = assemble(std::move(original),
                           {std::move(wire), std::move(journal), {}});
  if (!protocol) {
    return Unexpected("artifact journal invalid: " + protocol.error().message);
  }
  return protocol;
}

Expected<Bytes> ObfuscatedProtocol::serialize(
    const Inst& message, std::uint64_t msg_seed,
    std::vector<FieldSpan>* spans) const {
  Workspace ws;
  Bytes out;
  if (Status s = serialize_into(message, msg_seed, out, ws, spans); !s) {
    return Unexpected(s.error());
  }
  return out;
}

Status ObfuscatedProtocol::serialize_into(const Inst& message,
                                          std::uint64_t msg_seed, Bytes& out,
                                          Workspace& ws,
                                          std::vector<FieldSpan>* spans) const {
  // The caller's tree is read-only; the passes mutate a working copy drawn
  // from the workspace's pool, which the G1 walk builds as it checks and
  // canonicalizes the message.
  InstPtr tree;
  if (Status s = canonical_copy(original_, canon_holders_, message, tree, ws);
      !s) {
    return s;
  }
  if (!identity_) {
    ws.streams.reset(msg_seed, journal_.size());
    if (Status s = forward_program(tree, program_, journal_, ws.streams,
                                   &ws.nodes);
        !s) {
      return s;
    }
    if (Status s = fix_holders(wire_, journal_, holders_, *tree, msg_seed, ws);
        !s) {
      return s;
    }
  }
  return emit_into(wire_, *tree, out, spans);
}

Expected<InstPtr> ObfuscatedProtocol::parse(BytesView wire) const {
  Workspace ws;
  return parse(wire, ws);
}

Expected<InstPtr> ObfuscatedProtocol::parse(BytesView wire,
                                            Workspace& ws) const {
  return finish_parse(parse_wire(wire_, journal_, holders_, wire, ws), ws);
}

Expected<InstPtr> ObfuscatedProtocol::parse_prefix(BytesView buffer,
                                                   std::size_t& consumed,
                                                   Workspace& ws,
                                                   ParseResume* resume) const {
  return finish_parse(parse_wire_prefix(wire_, journal_, holders_, buffer,
                                        consumed, ws, resume),
                      ws);
}

/// Shared tail of parse()/parse_prefix(): inverse transformations, then
/// the G1 walk, which canonicalizes the result and checks its integrity.
Expected<InstPtr> ObfuscatedProtocol::finish_parse(Expected<InstPtr> tree,
                                                   Workspace& ws) const {
  if (!tree) return tree;
  if (Status s = inverse_program(*tree, program_, journal_, &ws.nodes); !s) {
    return Unexpected(s.error());
  }
  if (Status s = canonicalize_parsed(original_, canon_holders_, **tree, ws);
      !s) {
    return Unexpected(s.error());
  }
  return tree;
}

Status ObfuscatedProtocol::canonicalize(Inst& message) const {
  Workspace ws;
  return protoobf::canonicalize(original_, canon_holders_, message, ws);
}

}  // namespace protoobf
