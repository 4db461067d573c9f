// Holder plan oracle: the one-pass holder derivation and the read plans
// against the machinery they replaced.
//
// runtime/derive derives every holder in one reverse-parse-order pass and
// checks holders through their read plans; the parser reads lengths,
// counts and conditions through the same plans, and both find a holder
// along its static route. The references below are test-local copies of
// what ran before: a pre-order fixpoint iterated to convergence, whose
// holders are found by dynamic scoping (a registry of every instance
// searched newest-first), whose skip check deep-copies and inverts the
// holder subtree (invert_chain) and whose rebuild replays the chain
// (rerun_chain). Over every registry spec plus HTTP, at per_node 1..4,
// many obfuscation seeds and random messages:
//
//   (a) canonicalize equals the reference fixpoint over G1;
//   (b) fix_holders leaves the tree the reference fixpoint leaves, and the
//       emitted wires are byte-identical (and equal serialize()'s);
//   (c) on the parsed wire, every holder's and condition target's read
//       plan yields invert_chain's bytes, and on copies with one leaf byte
//       changed or one byte appended both give the same verdict and bytes.
//
// Plus a nested variable-width ASCII length crossing digit boundaries, one
// holder instance measured once per Repetition element, and the build-time
// rejection of a lineage no plan can model.
//
// Reproduction: failures carry the campaign seed; rerun with
// PROTOOBF_FUZZ_SEED=<seed>.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/protoobf.hpp"
#include "fuzz/random_message.hpp"
#include "fuzz_support.hpp"
#include "protocols/http.hpp"
#include "runtime/derive.hpp"
#include "runtime/emit.hpp"
#include "runtime/parse.hpp"
#include "reference_passes.hpp"
#include "transform/exec.hpp"

namespace protoobf {
namespace {

constexpr int kSeeds = 40;
constexpr int kDraws = 10;
constexpr int kMaxAttempts = 64;  // per draw: the generator is best-effort
constexpr int kMaxIterations = 16;

// --- the reference: the iterative fixpoint ----------------------------------

Status encode_holder(Bytes& out, const Graph& graph, NodeId holder,
                     std::uint64_t value) {
  const Node& n = graph.node(holder);
  if (n.encoding == Encoding::AsciiDec) {
    const std::size_t width =
        n.boundary == BoundaryKind::Fixed ? n.fixed_size : 0;
    ascii_dec_encode_into(out, value, width);
    if (width != 0 && out.size() != width) return Unexpected("too wide");
    return Status::success();
  }
  if (n.boundary != BoundaryKind::Fixed) return Unexpected("not fixed");
  if (n.fixed_size < 8 && value >= (1ull << (8 * n.fixed_size))) {
    return Unexpected("overflow");
  }
  be_encode_into(out, value, n.fixed_size);
  return Status::success();
}

struct Pair {
  Inst* holder;
  Inst* measured;
  bool is_counter;
};

/// The dynamic scoping that routes replaced: one scope per Repetition or
/// Tabular element plus the root, each instance registered once its
/// subtree is complete, lookups newest-first.
struct Scopes {
  std::vector<std::vector<Inst*>> open = {{}};  // the root scope

  Inst* lookup(NodeId id) const {
    for (auto scope = open.rbegin(); scope != open.rend(); ++scope) {
      for (auto it = scope->rbegin(); it != scope->rend(); ++it) {
        if ((*it)->schema == id) return *it;
      }
    }
    return nullptr;
  }
};

Status collect_pairs(const Graph& graph, Inst& inst, Scopes& scopes,
                     std::vector<Pair>& pairs) {
  const Node& n = graph.node(inst.schema);
  if (n.boundary == BoundaryKind::Length ||
      n.boundary == BoundaryKind::Counter) {
    Inst* holder = scopes.lookup(n.ref);
    if (holder == nullptr) return Unexpected("holder not in scope");
    pairs.push_back({holder, &inst, n.boundary == BoundaryKind::Counter});
  }
  if (inst.present) {
    const bool element_scope =
        n.type == NodeType::Repetition || n.type == NodeType::Tabular;
    for (InstPtr& child : inst.children) {
      if (element_scope) scopes.open.emplace_back();
      const Status s = collect_pairs(graph, *child, scopes, pairs);
      if (element_scope) scopes.open.pop_back();
      if (!s) return s;
    }
  }
  scopes.open.back().push_back(&inst);
  return Status::success();
}

Status pairs_of(const Graph& graph, Inst& root, std::vector<Pair>& pairs) {
  pairs.clear();
  Scopes scopes;
  return collect_pairs(graph, root, scopes, pairs);
}

Expected<std::uint64_t> measure(const Graph& graph, const Pair& pair) {
  if (pair.is_counter) return pair.measured->children.size();
  auto bytes = emit(graph, *pair.measured);
  if (!bytes) return Unexpected(bytes.error());
  return bytes->size();
}

Status reference_canonicalize(const Graph& g1, Inst& root) {
  if (Status s = reference::fill_consts(g1, root); !s) return s;
  Bytes encoded;
  for (NodeId id : g1.dfs_order()) {
    if (g1.node(id).type != NodeType::Terminal ||
        !(g1.is_length_target(id) || g1.is_counter_target(id))) {
      continue;
    }
    if (Status s = encode_holder(encoded, g1, id, 0); !s) return s;
    for (Inst* inst : ast::find_all_schema(root, id)) inst->value = encoded;
  }
  std::vector<Pair> pairs;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    if (Status s = pairs_of(g1, root, pairs); !s) return s;
    bool changed = false;
    for (const Pair& pair : pairs) {
      auto value = measure(g1, pair);
      if (!value) return Unexpected(value.error());
      if (Status s = encode_holder(encoded, g1, pair.holder->schema, *value);
          !s) {
        return s;
      }
      if (pair.holder->value != encoded) {
        pair.holder->value = encoded;
        changed = true;
      }
    }
    if (!changed) return Status::success();
  }
  return Unexpected("reference canonicalize never settled");
}

/// invert_chain's verdict as a reference read: the inverted copy must be
/// the origin terminal.
Expected<Bytes> reference_read(const HolderInfo& info, const Inst& top,
                               const Journal& journal) {
  auto logical = invert_chain(top, journal, info.chain);
  if (!logical) return Unexpected(logical.error());
  if ((*logical)->schema != info.origin || !(*logical)->children.empty()) {
    return Unexpected("does not invert to the origin terminal");
  }
  return (*logical)->value;
}

Status reference_fix_holders(const ObfuscatedProtocol& p, Inst& root,
                             std::uint64_t msg_seed) {
  const Graph& wire = p.wire_graph();
  Bytes encoded;
  std::vector<Pair> pairs;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    if (Status s = pairs_of(wire, root, pairs); !s) return s;
    bool changed = false;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      auto value = measure(wire, pairs[k]);
      if (!value) return Unexpected(value.error());
      const HolderInfo* info = p.holders().find_by_top(pairs[k].holder->schema);
      if (info == nullptr) return Unexpected("no lineage");
      if (Status s = encode_holder(encoded, wire, info->origin, *value); !s) {
        return s;
      }
      auto carried = reference_read(*info, *pairs[k].holder, p.journal());
      if (carried && *carried == encoded) continue;
      Rng rng(msg_seed ^ (0x9e3779b97f4a7c15ull * (k + 1)));
      auto rebuilt = rerun_chain(info->origin, encoded, p.journal(),
                                 info->chain, rng);
      if (!rebuilt) return Unexpected(rebuilt.error());
      *pairs[k].holder = std::move(**rebuilt);
      changed = true;
    }
    if (!changed) return Status::success();
  }
  return Unexpected("reference fixpoint never settled");
}

// --- the campaign -----------------------------------------------------------

struct Tally {
  std::size_t cases = 0;
  std::size_t reads = 0;  // plan-vs-reference comparisons
  std::size_t mismatches = 0;
  std::string first;

  void mismatch(const std::string& what) {
    if (mismatches == 0) first = what;
    ++mismatches;
  }
};

/// Same verdict, and the same bytes on success.
bool reads_agree(const HolderInfo& info, const Inst& top,
                 const Journal& journal) {
  Bytes registers;
  auto plan = read_value(info.plan, top, journal, registers);
  auto reference = reference_read(info, top, journal);
  if (plan.ok() != reference.ok()) return false;
  return !plan.ok() || std::equal(plan->begin(), plan->end(),
                                  reference->begin(), reference->end());
}

/// Every terminal of `inst`'s subtree, in pre-order.
void leaves_of(Inst& inst, std::vector<Inst*>& out) {
  if (inst.children.empty()) out.push_back(&inst);
  for (InstPtr& child : inst.children) leaves_of(*child, out);
}

/// (c): every reference instance of a parsed wire tree, as parsed and with
/// one leaf damaged two ways.
void check_reads(const ObfuscatedProtocol& p, Inst& node, Rng& rng,
                 const std::string& where, Tally& tally) {
  if (const HolderInfo* info = p.holders().find_reference(node.schema)) {
    ++tally.reads;
    if (!reads_agree(*info, node, p.journal())) {
      tally.mismatch(where + ": read plan of '" +
                     p.wire_graph().node(node.schema).name +
                     "' differs from invert_chain");
    }
    InstPtr damaged = ast::clone(node);
    std::vector<Inst*> leaves;
    leaves_of(*damaged, leaves);
    Inst& leaf = *leaves[rng.below(leaves.size())];
    if (!leaf.value.empty()) {
      leaf.value[rng.below(leaf.value.size())] ^=
          static_cast<Byte>(1 + rng.below(255));
    }
    const bool flipped = reads_agree(*info, *damaged, p.journal());
    leaf.value.push_back(static_cast<Byte>(rng.below(256)));
    tally.reads += 2;
    if (!flipped || !reads_agree(*info, *damaged, p.journal())) {
      tally.mismatch(where + ": read plan of damaged '" +
                     p.wire_graph().node(node.schema).name +
                     "' differs from invert_chain");
    }
  }
  if (!node.present) return;
  for (InstPtr& child : node.children) {
    check_reads(p, *child, rng, where, tally);
  }
}

/// (a) and (b) for one message; returns the new pass's wire (empty on
/// failure).
Bytes check_derivation(const ObfuscatedProtocol& p, const Inst& message,
                       std::uint64_t msg_seed, const std::string& where,
                       Tally& tally) {
  InstPtr canonical = ast::clone(message);
  InstPtr reference = ast::clone(message);
  if (!canonicalize(p.original(), *canonical) ||
      !reference_canonicalize(p.original(), *reference)) {
    tally.mismatch(where + ": a canonicalize failed");
    return {};
  }
  if (!ast::equal(*canonical, *reference)) {
    tally.mismatch(where + ": canonical trees differ");
    return {};
  }
  if (!reference::check_presence(
          p.original(),
          build_holder_table(p.original(), p.original(), {}).value(),
          *canonical)) {
    tally.mismatch(where + ": canonical tree fails its conditions");
    return {};
  }

  EntryStreams streams;
  streams.reset(msg_seed, p.journal().size());
  if (!forward_program(canonical, p.program(), p.journal(), streams)) {
    tally.mismatch(where + ": forward failed");
    return {};
  }
  InstPtr fixed = ast::clone(*canonical);
  InstPtr expected = ast::clone(*canonical);
  Bytes wire;
  Bytes expected_wire;
  if (!fix_holders(p.wire_graph(), p.journal(), p.holders(), *fixed,
                   msg_seed) ||
      !reference_fix_holders(p, *expected, msg_seed) ||
      !emit_into(p.wire_graph(), *fixed, wire) ||
      !emit_into(p.wire_graph(), *expected, expected_wire)) {
    tally.mismatch(where + ": a holder derivation failed");
    return {};
  }
  if (!ast::equal(*fixed, *expected)) {
    tally.mismatch(where + ": derived wire trees differ");
    return {};
  }
  if (wire != expected_wire) {
    tally.mismatch(where + ": wires differ " + to_hex(wire) + " vs " +
                   to_hex(expected_wire));
    return {};
  }
  auto served = p.serialize(message, msg_seed);
  if (!served || *served != wire) {
    tally.mismatch(where + ": serialize() emits another wire");
    return {};
  }
  return wire;
}

void check_protocol(const ObfuscatedProtocol& p, Rng& rng,
                    const std::string& label, Tally& tally) {
  for (int draw = 0; draw < kDraws; ++draw) {
    const std::uint64_t msg_seed = rng.next_u64();
    InstPtr message;
    for (int attempt = 0; attempt < kMaxAttempts && message == nullptr;
         ++attempt) {
      InstPtr candidate = fuzz::random_message(p.original(), rng);
      if (p.serialize(*candidate, msg_seed).ok()) {
        message = std::move(candidate);
      }
    }
    const std::string where = label + " draw " + std::to_string(draw);
    if (message == nullptr) {
      tally.mismatch(where + ": no serializable message drawn");
      continue;
    }
    ++tally.cases;
    const Bytes wire = check_derivation(p, *message, msg_seed, where, tally);
    if (wire.empty()) continue;

    auto parsed = parse_wire(p.wire_graph(), p.journal(), p.holders(), wire);
    if (!parsed) {
      tally.mismatch(where + ": parse_wire rejected a valid wire");
      continue;
    }
    check_reads(p, **parsed, rng, where, tally);

    Bytes mutated = wire;
    mutated[rng.below(mutated.size())] ^=
        static_cast<Byte>(1 + rng.below(255));
    if (auto damaged =
            parse_wire(p.wire_graph(), p.journal(), p.holders(), mutated)) {
      check_reads(p, **damaged, rng, where + " (mutated wire)", tally);
    }
  }
}

TEST(HolderPlan, MatchesTheFixpointAndInvertChain) {
  const std::uint64_t seed = fuzztest::fuzz_seed(0x401D);
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
  for (const auto& [name, text] : specs) {
    auto graph = Framework::load_spec(text);
    ASSERT_TRUE(graph.ok()) << name << ": " << graph.error().message;
    for (int per_node = 1; per_node <= 4; ++per_node) {
      for (int s = 0; s < kSeeds; ++s) {
        ObfuscationConfig cfg;
        cfg.per_node = per_node;
        cfg.seed = rng.next_u64();
        auto protocol = Framework::generate(*graph, cfg);
        ASSERT_TRUE(protocol.ok()) << name << ": " << protocol.error().message;
        check_protocol(*protocol, rng,
                       name + " per_node " + std::to_string(per_node) +
                           " seed " + std::to_string(cfg.seed),
                       tally);
      }
    }
  }

  std::printf("holder_plan: seed %llu, %zu cases, %zu reads compared, %zu "
              "mismatches\n",
              static_cast<unsigned long long>(seed), tally.cases, tally.reads,
              tally.mismatches);
  EXPECT_EQ(tally.mismatches, 0u) << "first: " << tally.first;
  EXPECT_GE(tally.cases, specs.size() * 4 * kSeeds * 8);
  EXPECT_GT(tally.reads, tally.cases);
}

// --- nested variable-width ASCII length -------------------------------------

constexpr std::string_view kNestedAsciiSpec = R"(
protocol NestedAscii
m: seq end {
  tag: terminal fixed(1)
  olen: terminal fixed(2)
  outer: seq length(olen) {
    ilen: terminal delimited(";") ascii
    body: terminal length(ilen)
  }
}
)";

TEST(HolderPlan, NestedAsciiWidthCrossesDigitBoundaries) {
  // The inner ASCII length's width is part of the outer region, so the
  // outer length is only right once the inner one is final: 9 -> 10 and
  // 99 -> 100 change its width inside the region olen measures.
  auto g1 = Framework::load_spec(kNestedAsciiSpec);
  ASSERT_TRUE(g1.ok()) << g1.error().message;
  Tally tally;
  for (const std::size_t body : {9u, 10u, 99u, 100u}) {
    Message msg(*g1);
    ASSERT_TRUE(msg.set_text("tag", "t").ok());
    ASSERT_TRUE(msg.set("body", Bytes(body, 'x')).ok());

    InstPtr canonical = ast::clone(msg.root());
    InstPtr reference = ast::clone(msg.root());
    ASSERT_TRUE(canonicalize(*g1, *canonical).ok());
    ASSERT_TRUE(reference_canonicalize(*g1, *reference).ok());
    EXPECT_TRUE(ast::equal(*canonical, *reference)) << body;
    const std::string digits = std::to_string(body);
    EXPECT_EQ(to_text(ast::find_schema(*canonical,
                                       g1->find_by_name("ilen").value())
                          ->value),
              digits);
    EXPECT_EQ(be_decode(ast::find_schema(*canonical,
                                         g1->find_by_name("olen").value())
                            ->value),
              digits.size() + 1 + body);

    for (int per_node = 0; per_node <= 4; ++per_node) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        ObfuscationConfig cfg;
        cfg.per_node = per_node;
        cfg.seed = seed * 7919 + body;
        auto p = Framework::generate(*g1, cfg);
        ASSERT_TRUE(p.ok()) << p.error().message;
        const std::string where = "body " + std::to_string(body) +
                                  " per_node " + std::to_string(per_node) +
                                  " seed " + std::to_string(cfg.seed);
        const std::uint64_t msg_seed = 0x5eed + seed;
        const Bytes wire =
            check_derivation(*p, msg.root(), msg_seed, where, tally);
        ASSERT_FALSE(wire.empty()) << tally.first;
        auto back = p->parse(wire);
        ASSERT_TRUE(back.ok()) << where << ": " << back.error().message;
        EXPECT_TRUE(ast::equal(**back, *canonical)) << where;
      }
    }
  }
  EXPECT_EQ(tally.mismatches, 0u) << "first: " << tally.first;
}

// --- one holder instance, one pair per element ------------------------------

constexpr std::string_view kRepeatedDependantSpec = R"(
protocol RepeatedDependant
m: seq end {
  rlen: terminal fixed(1)
  recs: repeat end {
    rec: seq {
      v: terminal length(rlen)
    }
  }
}
)";

Message repeated_dependant(const Graph& g1,
                           const std::vector<std::size_t>& sizes) {
  Message msg(g1);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_TRUE(msg.append("recs").ok());
    EXPECT_TRUE(msg.set("recs[" + std::to_string(i) + "].rec.v",
                        Bytes(sizes[i], static_cast<Byte>('a' + i)))
                    .ok());
  }
  return msg;
}

TEST(HolderPlan, OneHolderMeasuredByEveryElement) {
  // `rlen` sits outside the repetition and measures every element's `v`,
  // so one holder instance gets one pair per element though one node
  // references it. Equal elements derive what the fixpoint derives, byte
  // for byte (the first pair's random stream); unequal ones have no
  // consistent length and fail, as the fixpoint did.
  auto g1 = Framework::load_spec(kRepeatedDependantSpec);
  ASSERT_TRUE(g1.ok()) << g1.error().message;
  Tally tally;
  Message equal = repeated_dependant(*g1, {3, 3, 3});
  InstPtr canonical = ast::clone(equal.root());
  InstPtr reference = ast::clone(equal.root());
  ASSERT_TRUE(canonicalize(*g1, *canonical).ok());
  ASSERT_TRUE(reference_canonicalize(*g1, *reference).ok());
  EXPECT_TRUE(ast::equal(*canonical, *reference));
  EXPECT_EQ(ast::find_schema(*canonical, g1->find_by_name("rlen").value())
                ->value,
            Bytes{3});

  Message unequal = repeated_dependant(*g1, {3, 4});
  InstPtr inconsistent = ast::clone(unequal.root());
  const Status refused = canonicalize(*g1, *inconsistent);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error().message.find("different sizes"),
            std::string::npos)
      << refused.error().message;
  inconsistent = ast::clone(unequal.root());
  EXPECT_FALSE(reference_canonicalize(*g1, *inconsistent).ok());

  for (int per_node = 0; per_node <= 4; ++per_node) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      ObfuscationConfig cfg;
      cfg.per_node = per_node;
      cfg.seed = seed * 104729;
      auto p = Framework::generate(*g1, cfg);
      ASSERT_TRUE(p.ok()) << p.error().message;
      const std::string where = "per_node " + std::to_string(per_node) +
                                " seed " + std::to_string(cfg.seed);
      const Bytes wire =
          check_derivation(*p, equal.root(), 0xe1e + seed, where, tally);
      ASSERT_FALSE(wire.empty()) << tally.first;
      auto back = p->parse(wire);
      ASSERT_TRUE(back.ok()) << where << ": " << back.error().message;
      EXPECT_TRUE(ast::equal(**back, *canonical)) << where;
      EXPECT_FALSE(p->serialize(unequal.root(), 0xe1e + seed).ok()) << where;
      if (per_node == 0) {
        // The wire pass on its own: G1 is the wire graph here.
        InstPtr tree = ast::clone(unequal.root());
        const Status s = fix_holders(p->wire_graph(), p->journal(),
                                     p->holders(), *tree, seed);
        ASSERT_FALSE(s.ok()) << where;
        EXPECT_NE(s.error().message.find("different sizes"),
                  std::string::npos)
            << s.error().message;
        tree = ast::clone(unequal.root());
        EXPECT_FALSE(reference_fix_holders(*p, *tree, seed).ok()) << where;
      }
    }
  }
  EXPECT_EQ(tally.mismatches, 0u) << "first: " << tally.first;
}

// --- build-time rejection ---------------------------------------------------

TEST(HolderPlan, RejectsALineageNoPlanCanModel) {
  // A hand-built journal puts a TabSplit on a count holder. compile_program
  // accepts its ids, but no read plan models a TabSplit inside a lineage,
  // so the artifact is rejected when the protocol is built, not per message.
  auto g1 = Framework::load_spec(R"(
protocol P
m: seq end {
  n: terminal fixed(1)
  t: tabular(n) { e: seq { a: terminal fixed(1) b: terminal fixed(1) } }
}
)");
  ASSERT_TRUE(g1.ok()) << g1.error().message;
  Graph wire = g1->clone();
  Node fresh;
  fresh.name = "fresh";
  fresh.type = NodeType::Terminal;
  fresh.boundary = BoundaryKind::Fixed;
  fresh.fixed_size = 1;
  AppliedTransform split;
  split.kind = TransformKind::TabSplit;
  split.target = g1->find_by_name("n").value();
  split.replacement = split.target;
  split.element = g1->find_by_name("e").value();
  split.created_seq = wire.add_node(fresh);
  split.created_a = wire.add_node(fresh);
  split.created_b = wire.add_node(fresh);

  auto p = ObfuscatedProtocol::from_parts(g1->clone(), std::move(wire),
                                          Journal{split});
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error().message.find("artifact journal invalid"),
            std::string::npos)
      << p.error().message;
  EXPECT_NE(p.error().message.find("TabSplit"), std::string::npos)
      << p.error().message;
}

}  // namespace
}  // namespace protoobf
