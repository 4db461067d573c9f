#include "runtime/protocol.hpp"

#include "graph/validate.hpp"
#include "runtime/derive.hpp"
#include "runtime/parse.hpp"
#include "transform/exec.hpp"

namespace protoobf {

ObfuscatedProtocol::ObfuscatedProtocol(Graph original, ObfuscationResult result,
                                       JournalProgram program,
                                       HolderTable holders)
    : original_(std::move(original)),
      wire_(std::move(result.graph)),
      journal_(std::move(result.journal)),
      stats_(result.stats),
      program_(std::move(program)),
      holders_(std::move(holders)),
      // An empty journal's read plans are single leaves: this cannot fail.
      canon_holders_(build_holder_table(original_, original_, {}).value()) {}

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
  return ObfuscatedProtocol(std::move(original), std::move(result),
                            std::move(*program), std::move(*holders));
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
  Bytes out;
  if (Status s = serialize_into(message, msg_seed, out, spans); !s) {
    return Unexpected(s.error());
  }
  return out;
}

Status ObfuscatedProtocol::serialize_into(const Inst& message,
                                          std::uint64_t msg_seed, Bytes& out,
                                          std::vector<FieldSpan>* spans,
                                          InstPool* nodes,
                                          DeriveScratch* derive) const {
  if (Status s = ast::check(original_, message); !s) return s;
  // The caller's tree is read-only; the transformation passes mutate a
  // workspace copy drawn from the node pool. With a session pool attached
  // the whole copy lands in recycled nodes and recycled payload capacity —
  // the clone that used to dominate the serialize path is gone.
  InstPtr tree = ast::copy(nodes, message);
  if (Status s = protoobf::canonicalize(original_, *tree, &canon_holders_,
                                        derive);
      !s) {
    return s;
  }
  if (Status s = check_presence(original_, canon_holders_, *tree); !s) return s;

  DeriveScratch local_scratch;
  if (derive == nullptr) derive = &local_scratch;
  derive->streams.reset(msg_seed, journal_.size());
  if (Status s = forward_program(tree, program_, journal_, derive->streams,
                                 nodes);
      !s) {
    return s;
  }
  if (Status s = fix_holders(wire_, journal_, holders_, *tree, msg_seed,
                             nodes, derive);
      !s) {
    return s;
  }
  return emit_into(wire_, *tree, out, spans);
}

Expected<InstPtr> ObfuscatedProtocol::parse(BytesView wire,
                                            BufferPool* scratch,
                                            InstPool* nodes,
                                            DeriveScratch* derive) const {
  auto tree = parse_wire(wire_, journal_, holders_, wire, scratch, nodes);
  return finish_parse(std::move(tree), nodes, derive);
}

Expected<InstPtr> ObfuscatedProtocol::parse_prefix(BytesView buffer,
                                                   std::size_t* consumed,
                                                   BufferPool* scratch,
                                                   InstPool* nodes,
                                                   DeriveScratch* derive,
                                                   ParseResume* resume) const {
  auto tree = parse_wire_prefix(wire_, journal_, holders_, buffer, consumed,
                                scratch, nodes, resume);
  return finish_parse(std::move(tree), nodes, derive);
}

/// Shared tail of parse()/parse_prefix(): inverse transformations plus the
/// canonical-form integrity checks.
Expected<InstPtr> ObfuscatedProtocol::finish_parse(Expected<InstPtr> tree,
                                                   InstPool* nodes,
                                                   DeriveScratch* derive) const {
  if (!tree) return tree;
  if (Status s = inverse_program(*tree, program_, journal_, nodes); !s) {
    return Unexpected(s.error());
  }
  // fill_consts doubles as an integrity check: a recovered constant field
  // that does not match the specification means the wire was corrupt (or
  // produced with different transformations).
  if (Status s = fill_consts(original_, **tree); !s) {
    return Unexpected("parsed message rejected: " + s.error().message);
  }
  if (Status s = protoobf::canonicalize(original_, **tree, &canon_holders_,
                                        derive);
      !s) {
    return Unexpected(s.error());
  }
  if (Status s = ast::check(original_, **tree); !s) {
    return Unexpected("parsed message malformed: " + s.error().message);
  }
  return tree;
}

Status ObfuscatedProtocol::canonicalize(Inst& message) const {
  if (Status s = protoobf::canonicalize(original_, message, &canon_holders_);
      !s) {
    return s;
  }
  return check_presence(original_, canon_holders_, message);
}

}  // namespace protoobf
