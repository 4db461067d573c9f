// Graph model and validation tests (paper §V-A consistency rules).
#include <gtest/gtest.h>

#include "graph/dot.hpp"
#include "graph/graph.hpp"
#include "graph/validate.hpp"

namespace protoobf {
namespace {

/// Small builder helpers keeping the tests readable.
NodeId add_terminal(Graph& g, const std::string& name, BoundaryKind b,
                    std::size_t size = 1) {
  Node n;
  n.name = name;
  n.type = NodeType::Terminal;
  n.boundary = b;
  n.fixed_size = size;
  if (b == BoundaryKind::Delimited) n.delimiter = to_bytes("|");
  return g.add_node(n);
}

NodeId add_composite(Graph& g, const std::string& name, NodeType t,
                     BoundaryKind b, std::vector<NodeId> children) {
  Node n;
  n.name = name;
  n.type = t;
  n.boundary = b;
  if (b == BoundaryKind::Delimited) n.delimiter = to_bytes("|");
  const NodeId id = g.add_node(n);
  for (NodeId child : children) {
    g.node(id).children.push_back(child);
    g.node(child).parent = id;
  }
  return id;
}

Graph tiny_graph() {
  Graph g("Tiny");
  const NodeId len = add_terminal(g, "len", BoundaryKind::Fixed, 2);
  Node payload;
  payload.name = "payload";
  payload.type = NodeType::Terminal;
  payload.boundary = BoundaryKind::Length;
  const NodeId pid = g.add_node(payload);
  g.node(pid).ref = len;
  const NodeId root =
      add_composite(g, "msg", NodeType::Sequence, BoundaryKind::End,
                    {len, pid});
  g.set_root(root);
  return g;
}

TEST(Graph, DfsOrderIsPreOrder) {
  Graph g = tiny_graph();
  const auto order = g.dfs_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(g.node(order[0]).name, "msg");
  EXPECT_EQ(g.node(order[1]).name, "len");
  EXPECT_EQ(g.node(order[2]).name, "payload");
}

TEST(Graph, PathOfBuildsDottedNames) {
  Graph g = tiny_graph();
  EXPECT_EQ(g.path_of(g.find_by_name("payload").value()), "msg.payload");
}

TEST(Graph, FindByNameReportsAmbiguity) {
  Graph g = tiny_graph();
  add_terminal(g, "stray", BoundaryKind::Fixed);  // detached: not found
  EXPECT_FALSE(g.find_by_name("stray").has_value());
  EXPECT_TRUE(g.find_by_name("len").has_value());
}

TEST(Graph, ReplaceChildRewiresParents) {
  Graph g = tiny_graph();
  const NodeId root = g.root();
  const NodeId len = g.find_by_name("len").value();
  const NodeId extra = add_terminal(g, "extra", BoundaryKind::Fixed, 4);
  g.replace_child(root, len, extra);
  EXPECT_EQ(g.node(extra).parent, root);
  EXPECT_EQ(g.node(len).parent, kNoNode);
  EXPECT_EQ(g.child_index(root, extra), 0);
  EXPECT_EQ(g.child_index(root, len), -1);
}

TEST(Graph, ReferersOfFindsLengthRefs) {
  Graph g = tiny_graph();
  const NodeId len = g.find_by_name("len").value();
  const auto referers = g.referers_of(len);
  ASSERT_EQ(referers.size(), 1u);
  EXPECT_EQ(g.node(referers[0]).name, "payload");
  EXPECT_TRUE(g.is_length_target(len));
  EXPECT_FALSE(g.is_counter_target(len));
}

TEST(Graph, CloneIsDeepAndIdStable) {
  Graph g = tiny_graph();
  Graph copy = g.clone();
  copy.node(copy.find_by_name("len").value()).fixed_size = 9;
  EXPECT_EQ(g.node(g.find_by_name("len").value()).fixed_size, 2u);
}

TEST(Graph, DepthCountsLevels) {
  EXPECT_EQ(tiny_graph().depth(), 2u);
}

TEST(Condition, EvaluatesAllKinds) {
  Condition c;
  c.kind = Condition::Kind::Equals;
  c.values = {to_bytes("GET")};
  EXPECT_TRUE(c.evaluate(to_bytes("GET")));
  EXPECT_FALSE(c.evaluate(to_bytes("PUT")));

  c.kind = Condition::Kind::NotEquals;
  EXPECT_FALSE(c.evaluate(to_bytes("GET")));
  EXPECT_TRUE(c.evaluate(to_bytes("PUT")));

  c.kind = Condition::Kind::OneOf;
  c.values = {to_bytes("A"), to_bytes("B")};
  EXPECT_TRUE(c.evaluate(to_bytes("B")));
  EXPECT_FALSE(c.evaluate(to_bytes("C")));

  c.kind = Condition::Kind::NonZero;
  EXPECT_TRUE(c.evaluate(Bytes{0x00, 0x01}));
  EXPECT_FALSE(c.evaluate(Bytes{0x00, 0x00}));
  EXPECT_FALSE(c.evaluate(Bytes{}));

  c.kind = Condition::Kind::Always;
  EXPECT_TRUE(c.evaluate(Bytes{}));
}

// --- validation --------------------------------------------------------------

TEST(Validate, AcceptsTinyGraph) {
  EXPECT_TRUE(validate(tiny_graph()).ok());
}

TEST(Validate, RejectsMissingRoot) {
  Graph g("Empty");
  EXPECT_FALSE(validate(g).ok());
}

TEST(Validate, RejectsTerminalWithDelegatedBoundary) {
  Graph g("Bad");
  const NodeId t = add_terminal(g, "t", BoundaryKind::Delegated);
  g.set_root(add_composite(g, "m", NodeType::Sequence, BoundaryKind::End, {t}));
  EXPECT_FALSE(validate(g).ok());
}

TEST(Validate, RejectsTabularWithoutCounter) {
  Graph g("Bad");
  const NodeId e = add_terminal(g, "e", BoundaryKind::Fixed, 2);
  const NodeId tab =
      add_composite(g, "tab", NodeType::Tabular, BoundaryKind::End, {e});
  g.set_root(
      add_composite(g, "m", NodeType::Sequence, BoundaryKind::End, {tab}));
  EXPECT_FALSE(validate(g).ok());
}

TEST(Validate, RejectsFixedSizeZero) {
  Graph g("Bad");
  const NodeId t = add_terminal(g, "t", BoundaryKind::Fixed, 0);
  g.set_root(add_composite(g, "m", NodeType::Sequence, BoundaryKind::End, {t}));
  EXPECT_FALSE(validate(g).ok());
}

TEST(Validate, RejectsEmptyDelimiter) {
  Graph g("Bad");
  Node t;
  t.name = "t";
  t.type = NodeType::Terminal;
  t.boundary = BoundaryKind::Delimited;
  const NodeId tid = g.add_node(t);
  g.set_root(
      add_composite(g, "m", NodeType::Sequence, BoundaryKind::End, {tid}));
  EXPECT_FALSE(validate(g).ok());
}

TEST(Validate, RejectsReferenceAfterDependant) {
  Graph g("Bad");
  Node payload;
  payload.name = "payload";
  payload.type = NodeType::Terminal;
  payload.boundary = BoundaryKind::Length;
  const NodeId pid = g.add_node(payload);
  const NodeId len = add_terminal(g, "len", BoundaryKind::Fixed, 2);
  g.node(pid).ref = len;
  g.set_root(add_composite(g, "m", NodeType::Sequence, BoundaryKind::End,
                           {pid, len}));  // len AFTER payload
  const Status s = validate(g);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("parse order"), std::string::npos);
}

TEST(Validate, RejectsReferenceIntoForeignOptional) {
  Graph g("Bad");
  const NodeId kind = add_terminal(g, "kind", BoundaryKind::Fixed, 1);
  const NodeId len = add_terminal(g, "len", BoundaryKind::Fixed, 2);
  Node opt;
  opt.name = "opt";
  opt.type = NodeType::Optional;
  opt.condition.kind = Condition::Kind::NonZero;
  const NodeId oid = g.add_node(opt);
  g.node(oid).condition.ref = kind;
  g.node(oid).children.push_back(len);
  g.node(len).parent = oid;
  Node payload;
  payload.name = "payload";
  payload.type = NodeType::Terminal;
  payload.boundary = BoundaryKind::Length;
  const NodeId pid = g.add_node(payload);
  g.node(pid).ref = len;  // references into the optional from outside
  g.set_root(add_composite(g, "m", NodeType::Sequence, BoundaryKind::End,
                           {kind, oid, pid}));
  const Status s = validate(g);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("Optional"), std::string::npos);
}

TEST(Validate, RejectsReferenceToEnclosingNode) {
  // The parent sequence precedes its child in parse order but is not
  // complete when the child needs its length.
  Graph g("Bad");
  Node payload;
  payload.name = "payload";
  payload.type = NodeType::Terminal;
  payload.boundary = BoundaryKind::Length;
  const NodeId pid = g.add_node(payload);
  const NodeId tag = add_terminal(g, "tag", BoundaryKind::Fixed, 1);
  const NodeId body = add_composite(g, "body", NodeType::Sequence,
                                    BoundaryKind::Delegated, {tag, pid});
  g.node(pid).ref = body;
  g.set_root(
      add_composite(g, "m", NodeType::Sequence, BoundaryKind::End, {body}));
  const Status s = validate(g);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("reference 'm.body' encloses"),
            std::string::npos)
      << s.error().message;
}

TEST(Validate, RejectsReferenceIntoRepeatedElementFromOutside) {
  Graph g("Bad");
  const NodeId inner_len = add_terminal(g, "ilen", BoundaryKind::Fixed, 1);
  Node val;
  val.name = "val";
  val.type = NodeType::Terminal;
  val.boundary = BoundaryKind::Length;
  const NodeId vid = g.add_node(val);
  g.node(vid).ref = inner_len;
  const NodeId element = add_composite(g, "elem", NodeType::Sequence,
                                       BoundaryKind::Delegated,
                                       {inner_len, vid});
  const NodeId rep = add_composite(g, "rep", NodeType::Repetition,
                                   BoundaryKind::End, {element});
  // An outside node referencing the per-element length is ambiguous.
  Node outside;
  outside.name = "outside";
  outside.type = NodeType::Terminal;
  outside.boundary = BoundaryKind::Length;
  const NodeId oid = g.add_node(outside);
  g.node(oid).ref = inner_len;
  g.set_root(add_composite(g, "m", NodeType::Sequence, BoundaryKind::End,
                           {rep, oid}));
  const Status s = validate(g);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("repeated element"), std::string::npos);
}

TEST(Validate, AcceptsTlvPattern) {
  // Per-element length references are the canonical TLV idiom.
  Graph g("Tlv");
  const NodeId ilen = add_terminal(g, "ilen", BoundaryKind::Fixed, 1);
  Node val;
  val.name = "val";
  val.type = NodeType::Terminal;
  val.boundary = BoundaryKind::Length;
  const NodeId vid = g.add_node(val);
  g.node(vid).ref = ilen;
  const NodeId element = add_composite(
      g, "elem", NodeType::Sequence, BoundaryKind::Delegated, {ilen, vid});
  const NodeId rep = add_composite(g, "rep", NodeType::Repetition,
                                   BoundaryKind::End, {element});
  g.set_root(
      add_composite(g, "m", NodeType::Sequence, BoundaryKind::End, {rep}));
  EXPECT_TRUE(validate(g).ok()) << validate(g).error().message;
}

TEST(Dot, RendersPaperNotation) {
  const Graph g = tiny_graph();
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("Te F(2)"), std::string::npos);   // Fixed terminal
  EXPECT_NE(dot.find("L(len)"), std::string::npos);    // Length boundary
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // ref arrow
  const std::string outline = to_outline(g);
  EXPECT_NE(outline.find("msg [S E]"), std::string::npos);
}

}  // namespace
}  // namespace protoobf
