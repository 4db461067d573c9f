// Differential oracle for the compiled journal (ROADMAP item 4(b)).
//
// serialize()/parse() run the journal as per-node lists of resolved ops
// (forward_program / inverse_program); the sequential executor
// (forward_all / inverse_all) replays it entry by entry over the whole
// tree and is the reference. Over every registry spec plus HTTP, at
// per_node 1..4, many obfuscation seeds and random messages:
//
//   (a) the program's forward tree equals the sequential one, and both
//       emit byte-identical wires — identical to serialize()'s;
//   (b) on the parsed wire tree the program's inverse equals inverse_all;
//   (c) on 1-byte-mutated and truncated wires, wherever parse_wire
//       accepts, both inverses agree on accept/reject and on the tree;
//   (d) (a) and (b) hold for a load_artifact(save_artifact(p)) rebuild.
//
// Random messages hold one or two elements per Repetition/Tabular, so each
// protocol also gets edge shapes, rewritten from drawn messages: every
// Repetition/Tabular at zero elements, every one at three to five, and
// every condition-driven Optional absent. A last family of hand-built
// journals acts on every element of a TabSplit/RepSplit half, so the
// resolved paths' kEach steps run over no elements, a few and many.
//
// Reproduction: failures carry the campaign seed; rerun with
// PROTOOBF_FUZZ_SEED=<seed>.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/protoobf.hpp"
#include "fuzz/random_message.hpp"
#include "fuzz_support.hpp"
#include "protocols/http.hpp"
#include "runtime/derive.hpp"
#include "runtime/emit.hpp"
#include "runtime/parse.hpp"
#include "runtime/persist.hpp"
#include "transform/apply.hpp"
#include "transform/exec.hpp"

namespace protoobf {
namespace {

constexpr int kSeeds = 40;
constexpr int kDraws = 10;
constexpr int kMaxAttempts = 64;  // per draw: the generator is best-effort

struct Tally {
  std::size_t cases = 0;
  std::size_t edge_cases = 0;  // of `cases`: rewritten edge shapes
  std::size_t mutants = 0;  // mutated/truncated wires parse_wire accepted
  std::size_t mismatches = 0;
  std::string first;

  void mismatch(const std::string& what) {
    if (mismatches == 0) first = what;
    ++mismatches;
  }
};

/// Sequential inverse vs program inverse over copies of one parsed tree:
/// same verdict, same tree. Returns false on disagreement.
bool inverses_agree(const ObfuscatedProtocol& p, const Inst& parsed) {
  InstPtr seq = ast::clone(parsed);
  InstPtr prog = ast::clone(parsed);
  const bool seq_ok = inverse_all(seq, p.journal()).ok();
  const bool prog_ok = inverse_program(prog, p.program(), p.journal()).ok();
  if (seq_ok != prog_ok) return false;
  return !seq_ok || ast::equal(*seq, *prog);
}

/// Runs one executor forward over a canonical message. `tree` keeps the
/// forward tree as the executor left it; the return value is the wire
/// after the holder fix-up and emission (empty on any failure).
Bytes forward(const ObfuscatedProtocol& q, const Inst& canonical,
              std::uint64_t msg_seed, bool sequential, InstPtr& tree) {
  tree = ast::clone(canonical);
  Status s;
  if (sequential) {
    s = forward_all(tree, q.journal(), msg_seed);
  } else {
    EntryStreams streams;
    streams.reset(msg_seed, q.journal().size());
    s = forward_program(tree, q.program(), q.journal(), streams);
  }
  if (!s) return {};
  InstPtr fixed = ast::clone(*tree);
  Bytes wire;
  if (!fix_holders(q.wire_graph(), q.journal(), q.holders(), *fixed,
                   msg_seed) ||
      !emit_into(q.wire_graph(), *fixed, wire)) {
    return {};
  }
  return wire;
}

/// Checks (a)-(d) on one serializable message. `served` is what
/// serialize() emitted for it with `msg_seed`.
void check_case(const ObfuscatedProtocol& p, const ObfuscatedProtocol& rebuilt,
                const Inst& message, const Bytes& served,
                std::uint64_t msg_seed, Rng& rng, const std::string& where,
                Tally& tally) {
  ++tally.cases;

  // (a) and (d): forward trees and wires agree, and match what
  // serialize() emitted.
  InstPtr seq_tree, prog_tree, rebuilt_tree;
  const Bytes wire = forward(p, message, msg_seed, true, seq_tree);
  const Bytes prog_wire = forward(p, message, msg_seed, false, prog_tree);
  const Bytes rebuilt_wire =
      forward(rebuilt, message, msg_seed, false, rebuilt_tree);
  if (wire.empty() || prog_wire.empty() || rebuilt_wire.empty()) {
    tally.mismatch(where + ": an executor failed forward");
    return;
  }
  if (!ast::equal(*seq_tree, *prog_tree) ||
      !ast::equal(*seq_tree, *rebuilt_tree)) {
    tally.mismatch(where + ": forward trees differ");
    return;
  }
  if (prog_wire != wire || rebuilt_wire != wire || served != wire) {
    tally.mismatch(where + ": emitted wires differ");
    return;
  }

  // (b) and (d): the programs invert the parsed wire tree to the
  // sequential executor's result.
  auto parsed = parse_wire(p.wire_graph(), p.journal(), p.holders(), wire);
  auto reparsed = parse_wire(rebuilt.wire_graph(), rebuilt.journal(),
                             rebuilt.holders(), wire);
  if (!parsed || !reparsed) {
    tally.mismatch(where + ": parse_wire rejected a valid wire");
    return;
  }
  InstPtr seq_logical = ast::clone(**parsed);
  if (!inverse_all(seq_logical, p.journal()) ||
      !inverse_program(*parsed, p.program(), p.journal()) ||
      !inverse_program(*reparsed, rebuilt.program(), rebuilt.journal())) {
    tally.mismatch(where + ": an executor failed to invert a valid wire");
    return;
  }
  if (!ast::equal(*seq_logical, **parsed) ||
      !ast::equal(*seq_logical, **reparsed)) {
    tally.mismatch(where + ": inverses differ on a valid wire");
    return;
  }

  // (c): a 1-byte mutation and a truncation.
  Bytes mutated = wire;
  mutated[rng.below(mutated.size())] ^= static_cast<Byte>(1 + rng.below(255));
  const BytesView truncated =
      BytesView(wire).first(static_cast<std::size_t>(rng.below(wire.size())));
  for (const BytesView input : {BytesView(mutated), truncated}) {
    auto damaged = parse_wire(p.wire_graph(), p.journal(), p.holders(), input);
    if (!damaged) continue;
    ++tally.mutants;
    if (!inverses_agree(p, **damaged)) {
      tally.mismatch(where + ": inverses differ on a damaged wire " +
                     to_hex(input));
    }
  }
}

/// Draws messages until `rewrite` turns one into a message serialize()
/// accepts, then checks it. `rewrite` may leave the draw as it is.
template <typename Rewrite>
void check_drawn(const ObfuscatedProtocol& p,
                 const ObfuscatedProtocol& rebuilt, Rng& rng,
                 const std::string& where, Tally& tally, Rewrite&& rewrite) {
  const std::uint64_t msg_seed = rng.next_u64();
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    InstPtr message = fuzz::random_message(p.original(), rng);
    rewrite(*message);
    auto wire = p.serialize(*message, msg_seed);
    if (wire && p.canonicalize(*message).ok()) {
      check_case(p, rebuilt, *message, *wire, msg_seed, rng, where, tally);
      return;
    }
  }
  tally.mismatch(where + ": no serializable message drawn");
}

/// Every Repetition/Tabular under `inst` at zero elements (`many` false)
/// or at three to five, the added elements fresh draws.
void resize_repetitions(const Graph& g, Inst& inst, bool many, Rng& rng,
                        const std::unordered_set<NodeId>& derived) {
  if (!inst.present) return;
  const Node& n = g.node(inst.schema);
  if (n.type == NodeType::Repetition || n.type == NodeType::Tabular) {
    if (!many) {
      inst.children.clear();
      return;
    }
    const std::size_t count = 3 + rng.below(3);
    while (inst.children.size() < count) {
      std::unordered_map<NodeId, const Inst*> built;
      inst.children.push_back(
          fuzz::random_instance(g, n.children[0], rng, derived, built));
    }
  }
  for (InstPtr& child : inst.children) {
    resize_repetitions(g, *child, many, rng, derived);
  }
}

/// Sets `value` so that `condition` rejects it; false when no candidate
/// (all zeros, then the first byte stepped through 256 values) does.
bool falsify(const Condition& condition, Bytes& value) {
  if (!condition.evaluate(value)) return true;
  const Bytes zeros(value.size(), 0);
  if (!condition.evaluate(zeros)) {
    value = zeros;
    return true;
  }
  for (int k = 0; k < 256 && !value.empty(); ++k) {
    ++value[0];
    if (!condition.evaluate(value)) return true;
  }
  return false;
}

/// Every condition-driven Optional under `inst` absent, the field its
/// condition reads (the latest instance before it, as random_instance
/// resolves it) set to a value the condition rejects.
void drop_optionals(const Graph& g, Inst& inst,
                    std::unordered_map<NodeId, Inst*>& seen) {
  const Node& n = g.node(inst.schema);
  if (n.type == NodeType::Optional &&
      n.condition.kind != Condition::Kind::Always) {
    const auto ref = seen.find(n.condition.ref);
    if (ref != seen.end() && !g.node(n.condition.ref).has_const &&
        falsify(n.condition, ref->second->value)) {
      inst.present = false;
      inst.children.clear();
    }
  }
  seen[inst.schema] = &inst;
  if (!inst.present) return;
  for (InstPtr& child : inst.children) drop_optionals(g, *child, seen);
}

/// `rebuilt` is p reloaded from its artifact: its program must agree with
/// p's sequential executor just as p's own program does. `edge_rng` draws
/// the edge shapes, so the plain draws do not depend on them.
void check_protocol(const ObfuscatedProtocol& p,
                    const ObfuscatedProtocol& rebuilt, Rng& rng, Rng& edge_rng,
                    const std::string& label, Tally& tally) {
  for (int draw = 0; draw < kDraws; ++draw) {
    check_drawn(p, rebuilt, rng, label + " draw " + std::to_string(draw),
                tally, [](Inst&) {});
  }

  const Graph& g = p.original();
  const std::unordered_set<NodeId> derived = fuzz::derived_nodes(g);
  const std::size_t before = tally.cases;
  for (const bool many : {false, true}) {
    check_drawn(p, rebuilt, edge_rng,
                label + (many ? " many elements" : " no elements"), tally,
                [&](Inst& message) {
                  resize_repetitions(g, message, many, edge_rng, derived);
                });
  }
  check_drawn(p, rebuilt, edge_rng, label + " optionals absent", tally,
              [&](Inst& message) {
                std::unordered_map<NodeId, Inst*> seen;
                drop_optionals(g, message, seen);
              });
  tally.edge_cases += tally.cases - before;
}

constexpr std::string_view kFanOutSpec = R"(
protocol FanOut
m: seq end {
  n: terminal fixed(1)
  rows: tabular(n) {
    row: seq {
      a: terminal fixed(1)
      b: terminal fixed(2)
      c: terminal fixed(2)
    }
  }
  items: repeat delimited(";") {
    item: seq {
      k: terminal fixed(1)
      v: terminal fixed(1)
      w: terminal fixed(2)
    }
  }
  tail: terminal end
}
)";

/// A protocol whose journal first splits every Repetition/Tabular of `g1`
/// and pads, keys and swaps every element of the rest half
/// (TabSplit/RepSplit's wrapper of the element's children after the
/// first), then runs `rounds` rounds as the obfuscator does: every node of
/// the graph, in order, takes the first kind of a shuffled list that
/// applies.
Expected<ObfuscatedProtocol> fan_out_protocol(const Graph& g1, int rounds,
                                              std::uint64_t seed) {
  Graph g = g1.clone();
  Rng rng(seed);
  RewriteContext ctx{g, rng, 0};
  Journal journal;
  const auto apply = [&](TransformKind kind, NodeId target) {
    auto entry = try_apply(ctx, kind, target);
    if (entry) journal.push_back(*entry);
    return entry;
  };
  for (const NodeId id : g1.dfs_order()) {
    const bool tabular = g1.node(id).type == NodeType::Tabular;
    if (!tabular && g1.node(id).type != NodeType::Repetition) continue;
    const auto split =
        apply(tabular ? TransformKind::TabSplit : TransformKind::RepSplit, id);
    if (!split) continue;
    const NodeId rest = tabular ? split->created_c : split->created_d;
    if (rest == kNoNode) continue;
    if (const auto pad = apply(TransformKind::PadInsert, rest)) {
      apply(TransformKind::ConstXor, pad->created_a);
    }
    apply(TransformKind::ChildMove, rest);
  }
  for (int round = 0; round < rounds; ++round) {
    for (const NodeId id : g.dfs_order()) {
      const auto positions = g.dfs_positions();
      if (positions[id] == static_cast<std::size_t>(-1)) continue;
      std::vector<TransformKind> kinds(std::begin(kAllTransformKinds),
                                       std::end(kAllTransformKinds));
      rng.shuffle(std::span<TransformKind>(kinds));
      for (const TransformKind kind : kinds) {
        if (apply(kind, id)) break;
      }
    }
  }
  return ObfuscatedProtocol::from_parts(g1.clone(), std::move(g),
                                        std::move(journal));
}

TEST(JournalProgram, MatchesTheSequentialExecutorEverywhere) {
  const std::uint64_t seed = fuzztest::fuzz_seed(0x10A7);
  SCOPED_TRACE(fuzztest::seed_note(seed));

  // The sweep sets per_node itself, so registry entries that differ only
  // in their default depth are one spec here.
  std::vector<std::pair<std::string, std::string_view>> specs;
  for (const fuzztest::SpecEntry& entry : fuzztest::spec_registry()) {
    const bool seen = std::any_of(specs.begin(), specs.end(), [&](auto& s) {
      return s.second == entry.spec;
    });
    if (!seen) specs.emplace_back(std::string(entry.name), entry.spec);
  }
  specs.emplace_back("http-request", http::request_spec());

  Rng rng(seed);
  Tally tally;
  // Generates one protocol per (per_node, seed) of a spec, reloads it from
  // its artifact and checks both.
  const auto sweep = [&](const std::string& name, std::string_view text,
                         const auto& generate) {
    auto graph = Framework::load_spec(text);
    ASSERT_TRUE(graph.ok()) << name << ": " << graph.error().message;
    for (int per_node = 1; per_node <= 4; ++per_node) {
      for (int s = 0; s < kSeeds; ++s) {
        ObfuscationConfig cfg;
        cfg.per_node = per_node;
        cfg.seed = rng.next_u64();
        auto protocol = generate(*graph, cfg);
        ASSERT_TRUE(protocol.ok()) << name << ": " << protocol.error().message;
        auto rebuilt = load_artifact(save_artifact(*protocol));
        ASSERT_TRUE(rebuilt.ok()) << name << ": " << rebuilt.error().message;
        Rng edge_rng(cfg.seed ^ 0xED6E);
        check_protocol(*protocol, *rebuilt, rng, edge_rng,
                       name + " per_node " + std::to_string(per_node) +
                           " seed " + std::to_string(cfg.seed),
                       tally);
      }
    }
  };
  for (const auto& [name, text] : specs) {
    sweep(name, text, [](const Graph& g, const ObfuscationConfig& cfg) {
      return Framework::generate(g, cfg);
    });
  }

  // The obfuscator always splits a TabSplit/RepSplit half again before it
  // touches the half's elements, so no protocol above resolves a kEach
  // step. Hand-built journals do.
  std::size_t each_steps = 0;
  sweep("fan-out", kFanOutSpec,
        [&](const Graph& g, const ObfuscationConfig& cfg) {
          auto protocol = fan_out_protocol(g, cfg.per_node - 1, cfg.seed);
          if (protocol) {
            const auto& steps = protocol->program().steps;
            each_steps += static_cast<std::size_t>(
                std::count(steps.begin(), steps.end(), JournalProgram::kEach));
          }
          return protocol;
        });
  const std::size_t protocols = (specs.size() + 1) * 4 * kSeeds;

  std::printf("journal_program: seed %llu, %zu cases (%zu edge shapes), %zu "
              "damaged wires parsed, %zu mismatches\n",
              static_cast<unsigned long long>(seed), tally.cases,
              tally.edge_cases, tally.mutants, tally.mismatches);
  EXPECT_EQ(tally.mismatches, 0u) << "first: " << tally.first;
  EXPECT_GE(tally.cases - tally.edge_cases, protocols * 8);
  EXPECT_EQ(tally.edge_cases, protocols * 3);
  EXPECT_GT(tally.mutants, 0u);
  EXPECT_GE(each_steps, std::size_t{4} * kSeeds);
}

}  // namespace
}  // namespace protoobf
