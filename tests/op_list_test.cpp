// Resolved op lists (transform/lineage.hpp's JournalProgram).
//
// The op list drops ReadFromEnd, which only marks its target mirrored for
// emission and parse_wire. That rewrite is checked the way translation
// validation checks a compiler pass (alive2's Transform and
// TransformVerify): `src` is what the journal holds, `tgt` what the op
// list runs instead (nothing at all), and the two must agree, forward and
// inverse, on every value length 1..8 and every byte value.
//
// Hand-built journals then run their op lists against
// forward_all/inverse_all byte for byte while pads and splits move and
// replace the targets, and the op counts of the benchmark protocols are
// pinned.
#include <gtest/gtest.h>

#include <string>

#include "core/protoobf.hpp"
#include "protocols/http.hpp"
#include "protocols/modbus.hpp"
#include "runtime/emit.hpp"
#include "spec/parser.hpp"
#include "transform/apply.hpp"
#include "transform/exec.hpp"
#include "transform/lineage.hpp"

namespace protoobf {
namespace {

using K = TransformKind;

// --- alive2-style rewrite check ----------------------------------------------

constexpr NodeId kValue = 0;  // the terminal every checked entry acts on

/// One rewrite: the op list runs `tgt` where the journal holds `src`.
struct Rewrite {
  std::string name;
  Journal src, tgt;
};

/// Runs `entries` forward (or, with `inverse`, backward) over a terminal
/// holding `value`.
Bytes run(const Journal& entries, const Bytes& value, bool inverse) {
  InstPtr t = ast::terminal(kValue, value);
  Rng no_draws(0);  // ReadFromEnd draws nothing
  if (inverse) {
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      EXPECT_TRUE(inverse_entry(t, *it).ok());
    }
  } else {
    for (const AppliedTransform& e : entries) {
      EXPECT_TRUE(forward_entry(t, e, no_draws).ok());
    }
  }
  return t->value;
}

/// Checks `rewrite` on a value of `size` bytes, every byte holding the same
/// value, for all 256 values: tgt forward equals src forward, and src's
/// inverse undoes tgt's forward. The first counterexample goes to
/// `failure`.
void verify(const Rewrite& rewrite, std::size_t size, std::string& failure) {
  for (int v = 0; v < 256; ++v) {
    const Bytes value(size, static_cast<Byte>(v));
    const Bytes src = run(rewrite.src, value, false);
    const Bytes tgt = run(rewrite.tgt, value, false);
    const Bytes back = run(rewrite.src, tgt, true);
    if ((tgt != src || back != value) && failure.empty()) {
      failure = rewrite.name + ", all bytes " + std::to_string(v) + ": src " +
                to_hex(src) + " tgt " + to_hex(tgt) + " inverse " +
                to_hex(back);
    }
  }
}

TEST(OpRewrite, DroppedReadFromEndIsTheIdentity) {
  AppliedTransform mirror;
  mirror.kind = K::ReadFromEnd;
  mirror.target = mirror.replacement = kValue;
  std::string failure;
  for (std::size_t size = 1; size <= 8; ++size) {
    verify({"ReadFromEnd", {mirror}, {}}, size, failure);
  }
  EXPECT_TRUE(failure.empty()) << failure;
}

// --- hand-built journals -----------------------------------------------------

constexpr std::string_view kFlat = R"(
protocol Flat
m: seq end {
  a: terminal fixed(2)
  b: terminal fixed(4)
  c: terminal end
}
)";

/// A journal built entry by entry with try_apply over kFlat.
class HandBuilt : public ::testing::Test {
 protected:
  HandBuilt()
      : g1_(parse_spec(kFlat).value()),
        wire_(g1_.clone()),
        rng_(5),
        ctx_{wire_, rng_, 0} {}

  NodeId id(const char* name) const { return g1_.find_by_name(name).value(); }

  /// Appends `kind` applied to `target`, which must accept it.
  AppliedTransform add(TransformKind kind, NodeId target) {
    auto entry = try_apply(ctx_, kind, target);
    EXPECT_TRUE(entry.has_value()) << to_string(kind) << " on " << target;
    journal_.push_back(entry.value_or(AppliedTransform{}));
    return journal_.back();
  }

  Expected<JournalProgram> compile() const {
    return compile_program(g1_, wire_, journal_);
  }

  InstPtr message() const {
    std::vector<InstPtr> children;
    children.push_back(ast::terminal(id("a"), Bytes{1, 2}));
    children.push_back(ast::terminal(id("b"), Bytes{3, 4, 5, 6}));
    children.push_back(ast::terminal(id("c"), to_bytes("xyz")));
    return ast::composite(g1_.root(), std::move(children));
  }

  /// The program against forward_all/inverse_all: equal wires and trees
  /// forward, equal trees back, and back to the message.
  void expect_matches_sequential(const JournalProgram& program) const {
    for (const std::uint64_t msg_seed : {1u, 2u, 3u}) {
      InstPtr seq = message();
      InstPtr prog = message();
      ASSERT_TRUE(forward_all(seq, journal_, msg_seed).ok());
      EntryStreams streams;
      streams.reset(msg_seed, journal_.size());
      ASSERT_TRUE(forward_program(prog, program, journal_, streams).ok());
      Bytes seq_wire, prog_wire;
      ASSERT_TRUE(emit_into(wire_, *seq, seq_wire).ok());
      ASSERT_TRUE(emit_into(wire_, *prog, prog_wire).ok());
      EXPECT_EQ(to_hex(prog_wire), to_hex(seq_wire));
      EXPECT_TRUE(ast::equal(*seq, *prog));
      ASSERT_TRUE(inverse_all(seq, journal_).ok());
      ASSERT_TRUE(inverse_program(prog, program, journal_).ok());
      EXPECT_TRUE(ast::equal(*seq, *prog));
      EXPECT_TRUE(ast::equal(*prog, *message()));
    }
  }

  Graph g1_, wire_;
  Rng rng_;
  RewriteContext ctx_;
  Journal journal_;
};

// Each Const is its own op. The pad of their parent can move `b` between
// them, so the last op's path is resolved after the pad, the first two
// before it.
TEST_F(HandBuilt, ConstsOnBothSidesOfAPadOfTheirParent) {
  add(K::ConstAdd, id("b"));
  add(K::ConstXor, id("b"));
  add(K::PadInsert, id("m"));
  add(K::ConstSub, id("b"));
  auto program = compile();
  ASSERT_TRUE(program.ok()) << program.error().message;
  EXPECT_EQ(program->ops.size(), 4u);
  expect_matches_sequential(*program);
}

// The same shape inside one owner: the second pad can move the first.
TEST_F(HandBuilt, ConstsOnAPadOnBothSidesOfAnotherPadOfTheSameOwner) {
  const NodeId pad = add(K::PadInsert, id("m")).created_a;
  add(K::ConstXor, pad);
  add(K::PadInsert, id("m"));
  add(K::ConstXor, pad);
  auto program = compile();
  ASSERT_TRUE(program.ok()) << program.error().message;
  EXPECT_EQ(program->ops.size(), 4u);
  expect_matches_sequential(*program);
}

TEST_F(HandBuilt, ConstsOnASplitTargetAndOnItsHalf) {
  add(K::ConstAdd, id("b"));
  const AppliedTransform split = add(K::SplitCat, id("b"));
  add(K::ConstAdd, split.created_a);
  add(K::ConstSub, split.created_a);
  auto program = compile();
  ASSERT_TRUE(program.ok()) << program.error().message;
  EXPECT_EQ(program->ops.size(), 4u);
  expect_matches_sequential(*program);

  // A Const on b after its split has no instance to act on; the sequential
  // executor skips it, the compiler names it.
  add(K::ConstAdd, id("b"));
  auto rejected = compile();
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().message.find("journal entry 4: "),
            std::string::npos)
      << rejected.error().message;
}

TEST_F(HandBuilt, ReadFromEndEmitsNoOp) {
  add(K::ReadFromEnd, id("b"));
  auto program = compile();
  ASSERT_TRUE(program.ok()) << program.error().message;
  EXPECT_TRUE(program->empty());
  expect_matches_sequential(*program);
}

// --- the benchmark protocols -------------------------------------------------

// Every entry but ReadFromEnd is one op: HTTP per_node 4 drops 23 of 129,
// Modbus per_node 4 60 of 274.
TEST(OpList, BenchmarkProtocolsCompileToPinnedOpCounts) {
  const struct {
    std::string_view spec;
    std::size_t entries, ops;
  } cases[] = {{http::request_spec(), 129, 106},
               {modbus::request_spec(), 274, 214}};
  for (const auto& c : cases) {
    const Graph g = Framework::load_spec(c.spec).value();
    ObfuscationConfig cfg;
    cfg.seed = 2018;
    cfg.per_node = 4;
    const auto p = Framework::generate(g, cfg);
    ASSERT_TRUE(p.ok()) << p.error().message;
    EXPECT_EQ(p->journal().size(), c.entries);
    EXPECT_EQ(p->program().ops.size(), c.ops);
  }
}

}  // namespace
}  // namespace protoobf
