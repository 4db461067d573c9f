// Derived-field machinery tests: the G1 walk (logical values against G1:
// constants, holders, presence) and fix_holders (wire values against
// G(n+1) with lineage replay).
#include <gtest/gtest.h>

#include "core/protoobf.hpp"
#include "runtime/derive.hpp"
#include "runtime/emit.hpp"
#include "transform/exec.hpp"

namespace protoobf {
namespace {

Graph spec(std::string_view text) {
  auto g = Framework::load_spec(text);
  EXPECT_TRUE(g.ok()) << g.error().message;
  return std::move(g.value());
}

TEST(FillConsts, FillsEmptyAndChecksNonEmpty) {
  Graph g = spec(R"(
protocol P
m: seq end {
  magic: terminal fixed(2) const(0xbeef)
  rest: terminal end
}
)");
  Message ok(g);
  ok.set_text("rest", "x");
  ASSERT_TRUE(canonicalize(g, ok.root()).ok());
  EXPECT_EQ(ok.get("magic").value(), (Bytes{0xbe, 0xef}));

  Message bad(g);
  bad.set("magic", Bytes{0x00, 0x01});
  bad.set_text("rest", "x");
  const Status s = canonicalize(g, bad.root());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().message,
            "constant field 'magic' set to a non-constant value");
}

TEST(Canonicalize, ComputesNestedLengths) {
  // Outer length covers a region containing an inner length field.
  Graph g = spec(R"(
protocol P
m: seq end {
  outer_len: terminal fixed(2)
  region: seq length(outer_len) {
    inner_len: terminal fixed(1)
    inner: terminal length(inner_len)
    pad: terminal fixed(2)
  }
}
)");
  Message msg(g);
  msg.set_text("inner", "abcdef");
  msg.set("pad", Bytes{0, 0});
  ASSERT_TRUE(canonicalize(g, msg.root()).ok());
  EXPECT_EQ(msg.get_uint("inner_len").value(), 6u);
  EXPECT_EQ(msg.get_uint("outer_len").value(), 1u + 6 + 2);
}

TEST(Canonicalize, AsciiWidthReachesFixpoint) {
  // The ASCII length's own width is part of no region here, but its value
  // must size dynamically (1 digit vs 2 digits).
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal delimited(";") ascii
  payload: terminal length(len)
}
)");
  for (std::size_t n : {5u, 12u, 120u}) {
    Message msg(g);
    msg.set("payload", Bytes(n, 0x41));
    ASSERT_TRUE(canonicalize(g, msg.root()).ok());
    EXPECT_EQ(msg.get_uint("len").value(), n);
  }
}

TEST(Canonicalize, OverwritesStaleUserValues) {
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal fixed(2)
  payload: terminal length(len)
}
)");
  Message msg(g);
  msg.set_uint("len", 9999);  // wrong on purpose: derived fields are owned
  msg.set_text("payload", "xy");
  ASSERT_TRUE(canonicalize(g, msg.root()).ok());
  EXPECT_EQ(msg.get_uint("len").value(), 2u);
}

TEST(Canonicalize, RejectsOverflowingBinaryHolder) {
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal fixed(1)
  payload: terminal length(len)
}
)");
  Message msg(g);
  msg.set("payload", Bytes(300, 0));  // needs 2 bytes, field holds 1
  EXPECT_FALSE(canonicalize(g, msg.root()).ok());
}

TEST(Canonicalize, MeasuredRegionErrorsSurfaceVerbatim) {
  // A Length region is measured by emitting it, so an invalid region fails
  // canonicalize and serialize with the emitter's own error, unwrapped.
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal fixed(2)
  body: seq length(len) {
    word: terminal delimited("|")
    lines: repeat delimited("$") { line: terminal delimited("$") }
  }
  rest: terminal end
}
)");
  ObfuscationConfig cfg;
  cfg.per_node = 2;
  cfg.seed = 22;
  auto p = Framework::generate(g, cfg).value();
  struct Case {
    const char* word;
    const char* line;
    const char* error;
  };
  for (const Case& c :
       {Case{"a|b", "x",
             "serialize 'm.body.word': content contains its own delimiter"},
        Case{"ab", "",  // empty line -> element starts with $
             "serialize 'm.body.lines': repetition element starts with the "
             "stop marker"}}) {
    Message msg(g);
    msg.set_text("word", c.word);
    msg.append("lines");
    msg.set_text("lines[0].line", c.line);
    msg.set_text("rest", "r");
    auto wire = p.serialize(msg.root(), 5);
    ASSERT_FALSE(wire.ok());
    EXPECT_EQ(wire.error().message, c.error);
    Status s = canonicalize(g, msg.root());
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().message, c.error);
  }
}

TEST(Canonicalize, RejectsAnInstanceOfNoNode) {
  // A hand-built tree may carry any schema id; the walk refuses one outside
  // the graph instead of looking it up.
  Graph g = spec(R"(
protocol P
m: seq end {
  a: terminal fixed(1)
  rest: terminal end
}
)");
  Message msg(g);
  msg.set("a", Bytes{1});
  msg.set_text("rest", "r");
  msg.root().children[1]->schema = static_cast<NodeId>(g.arena_size() + 7);
  const Status s = canonicalize(g, msg.root());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().message,
            "instance of unknown node " + std::to_string(g.arena_size() + 7));
}

TEST(CheckPresence, DetectsBothMismatchDirections) {
  // canonicalize checks every Optional's presence after it derived the
  // holders, as serialize does.
  Graph g = spec(R"(
protocol P
m: seq end {
  kind: terminal fixed(1)
  x: optional (kind == 0x01) { xv: terminal fixed(1) }
  rest: terminal end
}
)");
  Message missing(g);
  missing.set_uint("kind", 1);  // condition true but optional absent
  missing.set_text("rest", "r");
  const Status absent = canonicalize(g, missing.root());
  ASSERT_FALSE(absent.ok());
  EXPECT_NE(absent.error().message.find("absent but its condition evaluates "
                                        "to true"),
            std::string::npos)
      << absent.error().message;

  Message spurious(g);
  spurious.set_uint("kind", 0);
  spurious.set("xv", Bytes{1});  // materializes the optional
  spurious.set_text("rest", "r");
  const Status present = canonicalize(g, spurious.root());
  ASSERT_FALSE(present.ok());
  EXPECT_NE(present.error().message.find("present but its condition "
                                         "evaluates to false"),
            std::string::npos)
      << present.error().message;

  spurious.set_uint("kind", 1);
  EXPECT_TRUE(canonicalize(g, spurious.root()).ok());
}

TEST(FixHolders, WireLengthTracksTransformedSize) {
  // SplitAdd under the measured region doubles the payload: the wire length
  // must be the doubled size, while the logical length stays the original.
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal fixed(2)
  payload: terminal length(len)
  rest: terminal end
}
)");
  ObfuscationConfig cfg;
  cfg.per_node = 1;
  cfg.seed = 21;
  cfg.enabled = {TransformKind::SplitAdd};
  auto p = Framework::generate(g, cfg).value();
  ASSERT_GE(p.stats().applied, 2u);  // at least len or payload split

  Message msg(g);
  msg.set_text("payload", "12345678");
  msg.set_text("rest", "R");
  auto wire = p.serialize(msg.root(), 4);
  ASSERT_TRUE(wire.ok()) << wire.error().message;

  auto back = p.parse(*wire);
  ASSERT_TRUE(back.ok()) << back.error().message;
  // The canonical (logical) view recomputes len = 8, not 16.
  const Inst* len = ast::find_path(g, **back, "m.len");
  EXPECT_EQ(be_decode(len->value), 8u);
}

TEST(FixHolders, SplitLengthFieldStillDelimits) {
  // The length holder itself is split: the parser must recombine the two
  // halves to learn the region size.
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal fixed(2)
  payload: terminal length(len)
  rest: terminal end
}
)");
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    ObfuscationConfig cfg;
    cfg.per_node = 2;
    cfg.seed = seed;
    auto p = Framework::generate(g, cfg).value();
    Message msg(g);
    msg.set_text("payload", "payload-bytes");
    msg.set_text("rest", "rest");
    auto wire = p.serialize(msg.root(), seed);
    ASSERT_TRUE(wire.ok()) << seed << ": " << wire.error().message;
    auto back = p.parse(*wire);
    ASSERT_TRUE(back.ok()) << seed << ": " << back.error().message;
    EXPECT_EQ(ast::find_path(g, **back, "m.payload")->value,
              to_bytes("payload-bytes"));
  }
}

TEST(FixHolders, CounterSurvivesValueTransforms) {
  Graph g = spec(R"(
protocol P
m: seq end {
  n: terminal fixed(1)
  items: tabular(n) { item: terminal fixed(2) }
  rest: terminal end
}
)");
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    ObfuscationConfig cfg;
    cfg.per_node = 2;
    cfg.seed = seed;
    auto p = Framework::generate(g, cfg).value();
    Message msg(g);
    for (int i = 0; i < 5; ++i) {
      msg.append("items");
      msg.set_uint("items[" + std::to_string(i) + "].item", 100 + i);
    }
    msg.set_text("rest", "!");
    auto wire = p.serialize(msg.root(), seed + 50);
    ASSERT_TRUE(wire.ok()) << seed << ": " << wire.error().message;
    auto back = p.parse(*wire);
    ASSERT_TRUE(back.ok()) << seed << ": " << back.error().message;
    EXPECT_EQ(ast::find_path(g, **back, "m.items")->children.size(), 5u);
    EXPECT_EQ(be_decode(ast::find_path(g, **back, "m.n")->value), 5u);
  }
}

TEST(Emit, SizeMatchesBuffer) {
  Graph g = spec(R"(
protocol P
m: seq end {
  a: terminal fixed(3)
  b: terminal delimited("!")
}
)");
  Message msg(g);
  msg.set("a", Bytes{1, 2, 3});
  msg.set_text("b", "bb");
  ASSERT_TRUE(canonicalize(g, msg.root()).ok());
  auto bytes = emit(g, msg.root());
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, (Bytes{1, 2, 3, 'b', 'b', '!'}));
  Bytes reused = {9, 9, 9, 9, 9, 9, 9, 9, 9};
  ASSERT_TRUE(emit_into(g, msg.root(), reused).ok());
  EXPECT_EQ(reused, *bytes);
}

TEST(Emit, RejectsRepetitionElementStartingWithStopMarker) {
  Graph g = spec(R"(
protocol P
m: seq end {
  lines: repeat delimited("$") { line: terminal delimited("$") }
  rest: terminal end
}
)");
  Message msg(g);
  msg.append("lines");
  msg.set_text("lines[0].line", "");  // empty line -> element starts with $
  msg.set_text("rest", "x");
  ASSERT_TRUE(canonicalize(g, msg.root()).ok());
  EXPECT_FALSE(emit(g, msg.root()).ok());
}

}  // namespace
}  // namespace protoobf
