// Resumable prefix parse (ParseResume): a Truncated parse_wire_prefix
// suspends its partial state and the next attempt on the same grown buffer
// front continues from the truncation point instead of byte 0.
//
// Load-bearing properties (ISSUE 5 acceptance):
//   * byte-identity — a parse assembled from resumed attempts equals the
//     one-shot parse of the full wire image, for every chunking, including
//     delimiter-bounded and stop-marker wire formats and obfuscated specs;
//   * amortized O(1) work per delivered byte — delimiter scans never
//     re-read rejected bytes (pinned through ParseResume::Stats), where
//     the restart-from-zero baseline rescans quadratically;
//   * checkpoint hygiene — consumed on success, dropped on malformed
//     input, auto-invalidated when the buffer front shrinks.
#include <gtest/gtest.h>

#include <memory>

#include "core/protoobf.hpp"
#include "runtime/parse.hpp"
#include "util/rng.hpp"

namespace protoobf {
namespace {

// Delimiter-bounded frame format: no length field anywhere, so a streaming
// receiver can only discover the boundary by scanning.
constexpr std::string_view kDelimSpec = R"(
protocol DFrame
frame: seq end {
  ftag: terminal delimited("|") ascii
  fbody: terminal delimited("\r\n") ascii
}
)";

// Stop-marker repetition on the open spine: elements are themselves
// delimiter-bounded, the list ends with a marker the trickle reveals late.
constexpr std::string_view kRepSpec = R"(
protocol DRep
frame: seq end {
  fbody: terminal delimited("|") ascii
  fopts: repeat delimited("\r\n") {
    fopt: terminal delimited(";") ascii
  }
}
)";

ObfuscationConfig config_of(std::uint64_t seed, int per_node) {
  ObfuscationConfig cfg;
  cfg.seed = seed;
  cfg.per_node = per_node;
  return cfg;
}

std::shared_ptr<const ObfuscatedProtocol> compile(std::string_view spec,
                                                  std::uint64_t seed,
                                                  int per_node) {
  return std::make_shared<const ObfuscatedProtocol>(
      Framework::generate(Framework::load_spec(spec).value(),
                          config_of(seed, per_node))
          .value());
}

/// One resumable prefix parse of `wire` delivered in `step`-byte slices
/// (the last slice may be shorter). Returns the final tree and checks the
/// intermediate taxonomy: every short attempt is Truncated, never an error.
/// `restart` drops the checkpoint before every attempt: the restart-from-
/// zero baseline, with the same accounting.
Expected<InstPtr> trickle_parse(const ObfuscatedProtocol& protocol,
                                BytesView wire, std::size_t step,
                                ParseResume& resume, Workspace& ws,
                                std::size_t& consumed, bool restart = false) {
  for (std::size_t have = std::min(step, wire.size());;
       have = std::min(have + step, wire.size())) {
    if (restart) resume.invalidate();
    auto tree =
        protocol.parse_prefix(wire.first(have), consumed, ws, &resume);
    if (tree.ok()) return tree;
    EXPECT_TRUE(tree.error().truncated())
        << "prefix " << have << "/" << wire.size()
        << " reported malformed: " << tree.error().message;
    EXPECT_GE(tree.error().need, 1u);
    if (have == wire.size()) return tree;  // full wire failed: surface it
  }
}

TEST(ParseResume, ResumedTrickleEqualsOneShotOnDelimiterSpec) {
  auto protocol = compile(kDelimSpec, 1, 0);  // identity wire format
  auto g = Framework::load_spec(kDelimSpec).value();
  Message msg(g);
  msg.set_text("ftag", "42");
  msg.set_text("fbody", "a delimiter-bounded body with | inside? no: pipes "
                        "end ftag, so none here");
  const Bytes wire = protocol->serialize(msg.root(), 3).value();
  auto oneshot = protocol->parse(wire);
  ASSERT_TRUE(oneshot.ok()) << oneshot.error().message;

  for (const std::size_t step : {1u, 2u, 3u, 7u}) {
    ParseResume resume;
    Workspace ws;
    std::size_t consumed = 0;
    auto resumed =
        trickle_parse(*protocol, wire, step, resume, ws, consumed);
    ASSERT_TRUE(resumed.ok()) << resumed.error().message;
    EXPECT_EQ(consumed, wire.size());
    EXPECT_TRUE(ast::equal(**resumed, **oneshot)) << "step " << step;
    EXPECT_FALSE(resume.active()) << "checkpoint must be consumed";
    EXPECT_GT(resume.stats().resumed, 0u) << "trickle must actually resume";
  }
}

TEST(ParseResume, DelimiterScanNeverRereadsRejectedBytes) {
  auto protocol = compile(kDelimSpec, 1, 0);
  auto g = Framework::load_spec(kDelimSpec).value();
  Message msg(g);
  msg.set_text("ftag", "7");
  msg.set_text("fbody", std::string(512, 'x'));  // one long scanned region
  const Bytes wire = protocol->serialize(msg.root(), 5).value();

  // Resumable: scanned bytes stay O(wire) under 1-byte delivery.
  ParseResume resume;
  Workspace ws;
  std::size_t consumed = 0;
  auto tree = trickle_parse(*protocol, wire, 1, resume, ws, consumed);
  ASSERT_TRUE(tree.ok()) << tree.error().message;
  // Every byte is examined once per scanned region it belongs to, plus a
  // (delimiter-1)-byte overlap per retry: comfortably under 4x the wire.
  EXPECT_LE(resume.stats().scanned_bytes, 4 * wire.size())
      << "resumable scan degraded toward O(n^2)";

  // Restart-from-zero baseline (checkpoint dropped before every attempt,
  // same accounting): the same delivery rescans the front on every
  // attempt — quadratic.
  ParseResume baseline;
  Workspace baseline_ws;
  auto base_tree = trickle_parse(*protocol, wire, 1, baseline, baseline_ws,
                                 consumed, /*restart=*/true);
  ASSERT_TRUE(base_tree.ok());
  EXPECT_GT(baseline.stats().scanned_bytes, 16 * wire.size())
      << "baseline unexpectedly cheap: the regression this guards is gone?";
  EXPECT_EQ(baseline.stats().resumed, 0u);
  EXPECT_TRUE(ast::equal(**tree, **base_tree));
}

TEST(ParseResume, CommittedHolderResolvesInsideThePartialTree) {
  // `flen` is committed into the suspended root before the scan of `ftag`
  // runs dry, so `fbody`'s length resolves inside the partial tree that
  // the retry walks down again.
  constexpr std::string_view kHeldSpec = R"(
protocol DHeld
frame: seq end {
  flen: terminal fixed(1)
  ftag: terminal delimited("|") ascii
  fbody: terminal length(flen)
}
)";
  auto protocol = compile(kHeldSpec, 1, 0);
  auto g = Framework::load_spec(kHeldSpec).value();
  Message msg(g);
  msg.set_text("ftag", "a tag long enough to suspend on");
  msg.set_text("fbody", "measured by the committed holder");
  const Bytes wire = protocol->serialize(msg.root(), 4).value();
  auto oneshot = protocol->parse(wire);
  ASSERT_TRUE(oneshot.ok()) << oneshot.error().message;

  ParseResume resume;
  Workspace ws;
  std::size_t consumed = 0;
  auto resumed = trickle_parse(*protocol, wire, 1, resume, ws, consumed);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  EXPECT_EQ(consumed, wire.size());
  EXPECT_TRUE(ast::equal(**resumed, **oneshot));
  EXPECT_GT(resume.stats().resumed, 0u);
}

TEST(ParseResume, StopMarkerRepetitionResumesAcrossElements) {
  auto protocol = compile(kRepSpec, 1, 0);
  auto g = Framework::load_spec(kRepSpec).value();
  Message msg(g);
  msg.set_text("fbody", "body");
  for (int i = 0; i < 4; ++i) {
    msg.append("fopts");
    // A '\r' inside an element: during the trickle the buffer tail will
    // look like a half-delivered stop marker ("\r" of "\r\n"), exercising
    // the undecided-marker truncation rule.
    msg.set_text("fopts[" + std::to_string(i) + "].fopt",
                 "opt\r" + std::to_string(i));
  }
  const Bytes wire = protocol->serialize(msg.root(), 9).value();
  auto oneshot = protocol->parse(wire);
  ASSERT_TRUE(oneshot.ok()) << oneshot.error().message;

  for (const std::size_t step : {1u, 2u, 5u}) {
    ParseResume resume;
    Workspace ws;
    std::size_t consumed = 0;
    auto resumed =
        trickle_parse(*protocol, wire, step, resume, ws, consumed);
    ASSERT_TRUE(resumed.ok()) << "step " << step << ": "
                              << resumed.error().message;
    EXPECT_EQ(consumed, wire.size());
    EXPECT_TRUE(ast::equal(**resumed, **oneshot)) << "step " << step;
  }
}

TEST(ParseResume, RandomChunkingsMatchOneShotOnObfuscatedSpec) {
  // An obfuscated delimiter-bounded wire format: transformations reshuffle
  // the tree, but resumed parses must still be byte-identical to one-shot.
  // Not every (seed, message) pair survives obfuscation of a delimited
  // format (a transformed byte may collide with a delimiter, which emit
  // rejects), so hunt for a few working combinations.
  auto g = Framework::load_spec(kDelimSpec).value();
  int exercised = 0;
  Rng rng(2026);
  for (std::uint64_t seed = 100; seed < 140 && exercised < 3; ++seed) {
    auto protocol = compile(kDelimSpec, seed, 2);
    if (protocol == nullptr) continue;
    if (!stream_safe(protocol->wire_graph()).ok()) continue;
    Message msg(g);
    msg.set_text("ftag", "9");
    msg.set_text("fbody", "resumable under obfuscation");
    auto wire = protocol->serialize(msg.root(), seed);
    if (!wire.ok()) continue;  // delimiter collision: try the next seed
    auto oneshot = protocol->parse(*wire);
    ASSERT_TRUE(oneshot.ok()) << oneshot.error().message;

    for (int round = 0; round < 4; ++round) {
      ParseResume resume;
      Workspace ws;
      std::size_t consumed = 0;
      std::size_t have = 0;
      Expected<InstPtr> tree = Unexpected("never attempted");
      while (true) {
        have = std::min<std::size_t>(have + rng.between(1, 9), wire->size());
        tree = protocol->parse_prefix(BytesView(*wire).first(have), consumed,
                                      ws, &resume);
        if (tree.ok()) break;
        ASSERT_TRUE(tree.error().truncated())
            << "seed " << seed << " at " << have << ": "
            << tree.error().message;
        ASSERT_LT(have, wire->size());
      }
      EXPECT_EQ(consumed, wire->size());
      EXPECT_TRUE(ast::equal(**tree, **oneshot)) << "seed " << seed;
    }
    ++exercised;
  }
  EXPECT_GE(exercised, 1) << "no obfuscated delimiter spec exercised";
}

TEST(ParseResume, ShrunkenFrontAutoInvalidatesAndMalformedClears) {
  auto protocol = compile(kDelimSpec, 1, 0);
  auto g = Framework::load_spec(kDelimSpec).value();
  Message msg(g);
  msg.set_text("ftag", "1");
  msg.set_text("fbody", "invalidation probe");
  const Bytes wire = protocol->serialize(msg.root(), 1).value();

  ParseResume resume;
  Workspace ws;
  std::size_t consumed = 0;
  // Suspend midway.
  auto partial = protocol->parse_prefix(BytesView(wire).first(wire.size() / 2),
                                        consumed, ws, &resume);
  ASSERT_FALSE(partial.ok());
  ASSERT_TRUE(resume.active());
  EXPECT_GT(resume.depth(), 0u);

  // A shorter front cannot be "the same front with bytes appended": the
  // checkpoint is dropped automatically and the attempt restarts clean.
  auto shorter = protocol->parse_prefix(BytesView(wire).first(2), consumed,
                                        ws, &resume);
  ASSERT_FALSE(shorter.ok());
  EXPECT_TRUE(shorter.error().truncated());
  EXPECT_GT(resume.stats().invalidations, 0u);

  // Malformed input clears the checkpoint (nothing to continue).
  Bytes garbage = {0x00, 0x01, 0x02};  // ftag must be ascii digits
  garbage.resize(24, 0x02);
  auto bad = protocol->parse_prefix(garbage, consumed, ws, &resume);
  // Whether this exact garbage parses or not, no checkpoint may survive a
  // non-truncated outcome.
  if (!bad.ok() && !bad.error().truncated()) {
    EXPECT_FALSE(resume.active());
  }

  // And an explicit invalidate always works, releasing pooled partials.
  auto again = protocol->parse_prefix(BytesView(wire).first(wire.size() / 2),
                                      consumed, ws, &resume);
  ASSERT_FALSE(again.ok());
  ASSERT_TRUE(resume.active());
  resume.invalidate();
  EXPECT_FALSE(resume.active());
  EXPECT_EQ(resume.depth(), 0u);

  // After all of that, a clean full parse still round-trips.
  auto full = protocol->parse_prefix(wire, consumed, ws, &resume);
  ASSERT_TRUE(full.ok()) << full.error().message;
  EXPECT_EQ(consumed, wire.size());
}

TEST(ParseResume, SuspendedTreeOutlivesItsWorkspace) {
  // A checkpoint's partial tree comes from the workspace's pool and may be
  // dropped after the workspace: the last partial node frees the pool's
  // storage. Under LeakSanitizer a store left behind is a leak, and
  // reading a freed one below is a use-after-free.
  auto protocol = compile(kDelimSpec, 1, 0);
  auto g = Framework::load_spec(kDelimSpec).value();
  Message msg(g);
  msg.set_text("ftag", "5");
  msg.set_text("fbody", "suspended past its workspace");
  const Bytes wire = protocol->serialize(msg.root(), 3).value();

  ParseResume resume;
  {
    Workspace ws;
    std::size_t consumed = 0;
    auto partial = protocol->parse_prefix(
        BytesView(wire).first(wire.size() / 2), consumed, ws, &resume);
    ASSERT_FALSE(partial.ok());
    ASSERT_TRUE(partial.error().truncated()) << partial.error().message;
    ASSERT_TRUE(resume.active());
    EXPECT_GT(ws.nodes.stats().live, 0u);
  }
  const Inst* root = resume.spine().front().partial.get();
  ASSERT_NE(root, nullptr);
  ASSERT_EQ(root->children.size(), 1u);
  EXPECT_EQ(root->children[0]->value, to_bytes("5"));
  resume.invalidate();
  EXPECT_EQ(resume.depth(), 0u);
}

TEST(ParseResume, SuspendedTreesRecycleIntoThePool) {
  auto protocol = compile(kDelimSpec, 1, 0);
  auto g = Framework::load_spec(kDelimSpec).value();
  Message msg(g);
  msg.set_text("ftag", "3");
  msg.set_text("fbody", "pool hygiene");
  const Bytes wire = protocol->serialize(msg.root(), 2).value();

  Workspace ws;
  {
    ParseResume resume;
    std::size_t consumed = 0;
    for (int round = 0; round < 8; ++round) {
      auto tree = trickle_parse(*protocol, wire, 1, resume, ws, consumed);
      ASSERT_TRUE(tree.ok());
      // Dropping the result returns every node — including any that lived
      // in suspended partials along the way — to the freelist.
    }
    resume.invalidate();
  }
  EXPECT_EQ(ws.nodes.stats().live, 0u)
      << "suspended partial trees leaked out of the pool";
}

}  // namespace
}  // namespace protoobf
