// Transformation framework tests: applicability constraints (paper Table
// II), graph rewrite shapes, forward/inverse execution, lineage tracking
// and the obfuscation engine.
#include <gtest/gtest.h>

#include <array>
#include <map>

#include "ast/ast.hpp"
#include "graph/validate.hpp"
#include "spec/parser.hpp"
#include "transform/apply.hpp"
#include "transform/constraints.hpp"
#include "transform/engine.hpp"
#include "transform/exec.hpp"
#include "transform/lineage.hpp"

namespace protoobf {
namespace {

Graph spec(std::string_view text) {
  auto g = parse_spec(text);
  EXPECT_TRUE(g.ok()) << g.error().message;
  return std::move(g.value());
}

constexpr std::string_view kFlat = R"(
protocol Flat
m: seq end {
  a: terminal fixed(2)
  b: terminal fixed(4)
  c: terminal end
}
)";

constexpr std::string_view kDelimited = R"(
protocol Del
m: seq end {
  word: terminal delimited(" ") ascii
  line: seq delimited("\r\n") {
    x: terminal fixed(1)
    y: terminal fixed(1)
  }
}
)";

// --- applicability -----------------------------------------------------------

TEST(Applicability, SplitArithmeticNeedsNonDelimitedContext) {
  Graph g = spec(kFlat);
  EXPECT_TRUE(applicable(g, TransformKind::SplitAdd,
                         g.find_by_name("a").value()));
  EXPECT_TRUE(applicable(g, TransformKind::SplitXor,
                         g.find_by_name("c").value()));

  Graph d = spec(kDelimited);
  // `word` is itself delimited -> no arithmetic split.
  EXPECT_FALSE(applicable(d, TransformKind::SplitAdd,
                          d.find_by_name("word").value()));
  // `x` sits under a delimiter-scanned region -> random bytes forbidden.
  EXPECT_FALSE(applicable(d, TransformKind::SplitAdd,
                          d.find_by_name("x").value()));
}

TEST(Applicability, SplitCatOnlyOnMultiByteFixed) {
  Graph g = spec(kFlat);
  EXPECT_TRUE(applicable(g, TransformKind::SplitCat,
                         g.find_by_name("a").value()));
  EXPECT_FALSE(applicable(g, TransformKind::SplitCat,
                          g.find_by_name("c").value()));  // End-bounded

  Graph d = spec(kDelimited);
  // SplitCat keeps bytes identical, so delimited context is fine — but a
  // one-byte field cannot be split.
  EXPECT_FALSE(applicable(d, TransformKind::SplitCat,
                          d.find_by_name("x").value()));
}

TEST(Applicability, ConstOpsAllowedOnFixedUnderEnd) {
  Graph g = spec(kFlat);
  EXPECT_TRUE(applicable(g, TransformKind::ConstXor,
                         g.find_by_name("b").value()));
  Graph d = spec(kDelimited);
  EXPECT_FALSE(applicable(d, TransformKind::ConstAdd,
                          d.find_by_name("y").value()));  // scanned region
}

TEST(Applicability, BoundaryChangeNeedsDelimited) {
  Graph g = spec(kFlat);
  EXPECT_FALSE(applicable(g, TransformKind::BoundaryChange,
                          g.find_by_name("a").value()));
  Graph d = spec(kDelimited);
  EXPECT_TRUE(applicable(d, TransformKind::BoundaryChange,
                         d.find_by_name("word").value()));
  EXPECT_TRUE(applicable(d, TransformKind::BoundaryChange,
                         d.find_by_name("line").value()));
}

TEST(Applicability, PadInsertRejectedUnderScanRegions) {
  Graph g = spec(kFlat);
  EXPECT_TRUE(applicable(g, TransformKind::PadInsert, g.root()));
  Graph d = spec(kDelimited);
  EXPECT_FALSE(applicable(d, TransformKind::PadInsert,
                          d.find_by_name("line").value()));
}

TEST(Applicability, ReadFromEndRequiresDeterminableExtent) {
  Graph g = spec(kFlat);
  EXPECT_TRUE(applicable(g, TransformKind::ReadFromEnd, g.root()));
  EXPECT_TRUE(applicable(g, TransformKind::ReadFromEnd,
                         g.find_by_name("a").value()));
  Graph d = spec(kDelimited);
  EXPECT_FALSE(applicable(d, TransformKind::ReadFromEnd,
                          d.find_by_name("word").value()));
}

TEST(Applicability, TabRepSplitNeedTwoChildElements) {
  Graph g = spec(R"(
protocol P
m: seq end {
  n: terminal fixed(1)
  tab: tabular(n) { e: seq { k: terminal fixed(1) v: terminal fixed(2) } }
  rep: repeat delimited(";") { f: seq { a: terminal fixed(1) b: terminal fixed(1) } }
  tab1: tabular(n) { single: terminal fixed(2) }
}
)");
  EXPECT_TRUE(applicable(g, TransformKind::TabSplit,
                         g.find_by_name("tab").value()));
  EXPECT_TRUE(applicable(g, TransformKind::RepSplit,
                         g.find_by_name("rep").value()));
  EXPECT_FALSE(applicable(g, TransformKind::TabSplit,
                          g.find_by_name("tab1").value()));  // 1 child elem
  EXPECT_FALSE(applicable(g, TransformKind::RepSplit,
                          g.find_by_name("tab").value()));  // wrong type
}

TEST(Applicability, ChildMoveNeedsTwoMovableChildren) {
  Graph g = spec(kFlat);
  // `c` is End-bounded (not movable); a and b remain -> movable.
  EXPECT_TRUE(applicable(g, TransformKind::ChildMove, g.root()));

  Graph g2 = spec(R"(
protocol P
m: seq end {
  a: terminal fixed(2)
  c: terminal end
}
)");
  EXPECT_FALSE(applicable(g2, TransformKind::ChildMove, g2.root()));
}

TEST(Applicability, ChildMoveRollsBackOnDependencyViolation) {
  // len must stay before payload: the only movable pair breaks parse order.
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal fixed(2)
  payload: seq length(len) { q: terminal end }
  pad: terminal fixed(1)
}
)");
  Rng rng(5);
  RewriteContext ctx{g, rng, 0};
  int applied = 0;
  for (int i = 0; i < 40; ++i) {
    if (try_apply(ctx, TransformKind::ChildMove, g.root())) ++applied;
    ASSERT_TRUE(validate_parse_order(g).ok());
  }
  // Some attempts may succeed (pairs not involving the dependency), but the
  // graph must stay valid throughout.
  EXPECT_TRUE(validate(g).ok());
  (void)applied;
}

// --- rewrite shapes ----------------------------------------------------------

TEST(Rewrite, SplitAddShape) {
  Graph g = spec(kFlat);
  Rng rng(1);
  RewriteContext ctx{g, rng, 0};
  const NodeId a = g.find_by_name("a").value();
  const auto entry = try_apply(ctx, TransformKind::SplitAdd, a);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(validate(g).ok()) << validate(g).error().message;

  const Node& s = g.node(entry->created_seq);
  EXPECT_EQ(s.type, NodeType::Sequence);
  EXPECT_EQ(s.boundary, BoundaryKind::Fixed);
  EXPECT_EQ(s.fixed_size, 4u);  // doubled
  ASSERT_EQ(s.children.size(), 2u);
  EXPECT_EQ(g.node(s.children[0]).boundary, BoundaryKind::Half);
  EXPECT_EQ(g.node(s.children[1]).boundary, BoundaryKind::End);
  // The original terminal is detached.
  EXPECT_EQ(g.node(a).parent, kNoNode);
}

TEST(Rewrite, BoundaryChangeShape) {
  Graph g = spec(kDelimited);
  Rng rng(1);
  RewriteContext ctx{g, rng, 0};
  const NodeId word = g.find_by_name("word").value();
  const auto entry = try_apply(ctx, TransformKind::BoundaryChange, word);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(validate(g).ok()) << validate(g).error().message;

  const Node& s = g.node(entry->created_seq);
  ASSERT_EQ(s.children.size(), 2u);
  const Node& len = g.node(s.children[0]);
  EXPECT_EQ(len.boundary, BoundaryKind::Fixed);
  // word keeps its id but becomes Length-bounded; the delimiter is gone.
  EXPECT_EQ(g.node(word).boundary, BoundaryKind::Length);
  EXPECT_EQ(g.node(word).ref, s.children[0]);
  EXPECT_TRUE(g.node(word).delimiter.empty());
  EXPECT_EQ(entry->key, to_bytes(" "));
}

TEST(Rewrite, TabSplitProducesTwoCountedTabulars) {
  Graph g = spec(R"(
protocol P
m: seq end {
  n: terminal fixed(1)
  tab: tabular(n) { e: seq { k: terminal fixed(1) v: terminal fixed(2) } }
}
)");
  Rng rng(1);
  RewriteContext ctx{g, rng, 0};
  const NodeId tab = g.find_by_name("tab").value();
  const NodeId counter = g.node(tab).ref;
  const auto entry = try_apply(ctx, TransformKind::TabSplit, tab);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(validate(g).ok()) << validate(g).error().message;

  const Node& s = g.node(entry->created_seq);
  ASSERT_EQ(s.children.size(), 2u);
  for (NodeId half : s.children) {
    EXPECT_EQ(g.node(half).type, NodeType::Tabular);
    EXPECT_EQ(g.node(half).ref, counter);
  }
  // (kv)^n became k^n v^n: the context-free language of Table II.
}

TEST(Rewrite, RepSplitIntroducesCountField) {
  Graph g = spec(R"(
protocol P
m: seq end {
  rep: repeat delimited(";") { e: seq { a: terminal fixed(1) b: terminal fixed(2) } }
}
)");
  Rng rng(1);
  RewriteContext ctx{g, rng, 0};
  const auto entry =
      try_apply(ctx, TransformKind::RepSplit, g.find_by_name("rep").value());
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(validate(g).ok()) << validate(g).error().message;
  const Node& s = g.node(entry->created_seq);
  ASSERT_EQ(s.children.size(), 3u);  // cnt, t1, t2
  EXPECT_EQ(g.node(s.children[0]).type, NodeType::Terminal);
  EXPECT_TRUE(g.is_counter_target(s.children[0]));
}

// --- forward/inverse execution ----------------------------------------------

class ExecRoundTrip : public ::testing::TestWithParam<TransformKind> {};

TEST_P(ExecRoundTrip, InverseOfForwardIsIdentity) {
  // A graph where every transformation kind has at least one target.
  Graph g = spec(R"(
protocol P
m: seq end {
  n: terminal fixed(1)
  word: terminal delimited("|") ascii
  tab: tabular(n) { e: seq { k: terminal fixed(1) v: terminal fixed(2) } }
  rep: repeat delimited(";") { f: seq { a: terminal fixed(1) b: terminal fixed(1) } }
  tail: terminal end
}
)");
  // Capture G1 node ids before rewriting: targets get detached, but their
  // ids stay valid for instances of the original graph.
  std::map<std::string, NodeId> ids;
  for (NodeId id : g.dfs_order()) ids[g.node(id).name] = id;

  Rng rng(7);
  RewriteContext ctx{g, rng, 0};

  // Find any target where this kind applies.
  std::optional<AppliedTransform> entry;
  for (const auto& [name, id] : ids) {
    if ((entry = try_apply(ctx, GetParam(), id))) break;
  }
  ASSERT_TRUE(entry.has_value())
      << "no applicable target for " << to_string(GetParam());

  // Build a message with two tab elements and two rep elements.
  const auto t = [&](const char* name, Bytes v) {
    return ast::terminal(ids.at(name), std::move(v));
  };
  const auto elem = [&](const char* seq_name, InstPtr x, InstPtr y) {
    std::vector<InstPtr> children;
    children.push_back(std::move(x));
    children.push_back(std::move(y));
    return ast::composite(ids.at(seq_name), std::move(children));
  };
  std::vector<InstPtr> tab_elems, rep_elems;
  tab_elems.push_back(elem("e", t("k", {1}), t("v", {2, 3})));
  tab_elems.push_back(elem("e", t("k", {4}), t("v", {5, 6})));
  rep_elems.push_back(elem("f", t("a", {7}), t("b", {8})));
  rep_elems.push_back(elem("f", t("a", {9}), t("b", {10})));

  std::vector<InstPtr> children;
  children.push_back(t("n", {2}));
  children.push_back(t("word", to_bytes("hello")));
  children.push_back(ast::composite(ids.at("tab"), std::move(tab_elems)));
  children.push_back(ast::composite(ids.at("rep"), std::move(rep_elems)));
  children.push_back(t("tail", to_bytes("xyz")));
  InstPtr message = ast::composite(g.root(), std::move(children));

  InstPtr reference = ast::clone(*message);
  Journal journal{*entry};
  ASSERT_TRUE(forward_all(message, journal, /*msg_seed=*/1234).ok());
  // Structural transformations must actually change the tree (value-only
  // ones change values; ReadFromEnd changes nothing until emission).
  if (GetParam() != TransformKind::ReadFromEnd) {
    EXPECT_FALSE(ast::equal(*reference, *message));
  }
  ASSERT_TRUE(inverse_all(message, journal).ok());
  EXPECT_TRUE(ast::equal(*reference, *message));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ExecRoundTrip, ::testing::ValuesIn(kAllTransformKinds),
    [](const ::testing::TestParamInfo<TransformKind>& info) {
      return to_string(info.param);
    });

// --- lineage -----------------------------------------------------------------

TEST(Lineage, TracksHolderThroughStackedTransforms) {
  const Graph g1 = spec(R"(
protocol P
m: seq end {
  len: terminal fixed(2)
  payload: terminal length(len)
}
)");
  Graph g = g1.clone();  // the table is always built against pristine G1
  const NodeId len = g.find_by_name("len").value();
  Rng rng(3);
  RewriteContext ctx{g, rng, 0};
  Journal journal;
  journal.push_back(*try_apply(ctx, TransformKind::ConstXor, len));
  journal.push_back(*try_apply(ctx, TransformKind::SplitAdd, len));
  // A const op on a created half extends the lineage further.
  const NodeId half_b = journal[1].created_b;
  journal.push_back(*try_apply(ctx, TransformKind::ConstAdd, half_b));

  const HolderTable table = build_holder_table(g1, g, journal).value();
  ASSERT_EQ(table.holders.size(), 1u);
  const HolderInfo& info = table.holders[0];
  EXPECT_EQ(info.origin, len);
  EXPECT_EQ(info.top, journal[1].created_seq);
  EXPECT_EQ(info.chain, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_NE(table.find_by_top(info.top), nullptr);

  // Replaying the chain over a fresh value rebuilds the wire subtree, and
  // inverting the same chain recovers that value.
  Rng replay(9);
  auto rebuilt = rerun_chain(len, Bytes{0x00, 0x20}, journal, info.chain,
                             replay);
  ASSERT_TRUE(rebuilt.ok());
  auto logical = invert_chain(**rebuilt, journal, info.chain);
  ASSERT_TRUE(logical.ok());
  EXPECT_EQ((*logical)->schema, len);
  EXPECT_EQ((*logical)->value, (Bytes{0x00, 0x20}));
}

TEST(Lineage, CreatedCountersBecomeHolders) {
  const Graph g1 = spec(R"(
protocol P
m: seq end {
  rep: repeat delimited(";") { e: seq { a: terminal fixed(1) b: terminal fixed(1) } }
}
)");
  Graph g = g1.clone();
  Rng rng(3);
  RewriteContext ctx{g, rng, 0};
  Journal journal;
  journal.push_back(
      *try_apply(ctx, TransformKind::RepSplit, g.find_by_name("rep").value()));
  const HolderTable table = build_holder_table(g1, g, journal).value();
  ASSERT_EQ(table.holders.size(), 1u);
  EXPECT_EQ(table.holders[0].origin, journal[0].created_a);
  EXPECT_TRUE(table.holders[0].chain.empty());
}

// --- engine ------------------------------------------------------------------

TEST(Engine, ZeroRoundsIsIdentity) {
  Graph g = spec(kFlat);
  ObfuscationConfig cfg;
  cfg.per_node = 0;
  auto result = obfuscate(g, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->journal.empty());
  EXPECT_EQ(result->stats.applied, 0u);
  EXPECT_EQ(result->graph.size(), g.size());
}

TEST(Engine, DeterministicForSeed) {
  Graph g = spec(kFlat);
  ObfuscationConfig cfg;
  cfg.per_node = 2;
  cfg.seed = 77;
  auto a = obfuscate(g, cfg);
  auto b = obfuscate(g, cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->journal.size(), b->journal.size());
  for (std::size_t i = 0; i < a->journal.size(); ++i) {
    EXPECT_EQ(a->journal[i].kind, b->journal[i].kind);
    EXPECT_EQ(a->journal[i].target, b->journal[i].target);
  }
}

TEST(Engine, DifferentSeedsPickDifferentTransforms) {
  Graph g = spec(kFlat);
  ObfuscationConfig cfg;
  cfg.per_node = 2;
  cfg.seed = 1;
  auto a = obfuscate(g, cfg);
  cfg.seed = 2;
  auto b = obfuscate(g, cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  bool differs = a->journal.size() != b->journal.size();
  for (std::size_t i = 0; !differs && i < a->journal.size(); ++i) {
    differs = a->journal[i].kind != b->journal[i].kind ||
              a->journal[i].target != b->journal[i].target;
  }
  EXPECT_TRUE(differs);
}

TEST(Engine, AppliedCountGrowsSuperlinearly) {
  // Nodes created in earlier rounds are obfuscated in later rounds, so the
  // count grows faster than linearly (paper Tables III/IV).
  Graph g = spec(kFlat);
  std::vector<std::size_t> applied;
  for (int o = 1; o <= 4; ++o) {
    ObfuscationConfig cfg;
    cfg.per_node = o;
    cfg.seed = 9;
    applied.push_back(obfuscate(g, cfg)->stats.applied);
  }
  EXPECT_GT(applied[1], 2 * applied[0] - 2);
  EXPECT_GT(applied[3], applied[2]);
  EXPECT_GT(applied[2], applied[1]);
}

TEST(Engine, RespectsEnabledSubset) {
  Graph g = spec(kFlat);
  ObfuscationConfig cfg;
  cfg.per_node = 3;
  cfg.enabled = {TransformKind::ConstXor};
  auto result = obfuscate(g, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.applied, 0u);
  for (const auto& entry : result->journal) {
    EXPECT_EQ(entry.kind, TransformKind::ConstXor);
  }
}

TEST(Engine, ResultAlwaysValidates) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Graph g = spec(kDelimited);
    ObfuscationConfig cfg;
    cfg.per_node = 3;
    cfg.seed = seed;
    auto result = obfuscate(g, cfg);
    ASSERT_TRUE(result.ok()) << result.error().message;
    EXPECT_TRUE(validate(result->graph).ok());
  }
}

TEST(Engine, EveryKindGetsSelectedAcrossSeeds) {
  // Uniform random selection must exercise the whole Table I eventually; a
  // kind that never fires would mean dead applicability logic.
  Graph g = spec(R"(
protocol P
m: seq end {
  n: terminal fixed(1)
  word: terminal delimited("|") ascii
  tab: tabular(n) { e: seq { k: terminal fixed(1) v: terminal fixed(2) } }
  rep: repeat delimited(";") { f: seq { a: terminal fixed(1) b: terminal fixed(1) } }
  tail: terminal end
}
)");
  std::array<std::size_t, kTransformKindCount> totals{};
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    ObfuscationConfig cfg;
    cfg.per_node = 2;
    cfg.seed = seed;
    auto result = obfuscate(g, cfg);
    ASSERT_TRUE(result.ok());
    for (std::size_t k = 0; k < kTransformKindCount; ++k) {
      totals[k] += result->stats.per_kind[k];
    }
  }
  for (std::size_t k = 0; k < kTransformKindCount; ++k) {
    EXPECT_GT(totals[k], 0u) << "never applied: "
                             << to_string(kAllTransformKinds[k]);
  }
}

}  // namespace
}  // namespace protoobf
