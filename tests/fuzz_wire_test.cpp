// Structure-aware wire fuzz campaign (ISSUE 6 tentpole, part 1).
//
// Four protocol arms (length-prefixed demo, delimiter-heavy chat, the
// torture spec, Modbus requests), each compiled with per-field
// obfuscation, each hammered with mutants aimed at the wire *structure*:
// bit flips on region edges, skewed length/counter holders, corrupted and
// prefix-colliding delimiters, truncations at every region edge, splices
// of two valid frames. Every input runs through FuzzRunner::check, which
// enforces the full hostile-bytes contract: no crash, per-input deadline,
// pooled-node count back to baseline, and one-shot == chunk-split-resumed
// verdict (kind, consumed, tree).
//
// Reproduction: every failure message carries the campaign RNG seed;
// rerun with PROTOOBF_FUZZ_SEED=<seed>. Scale with PROTOOBF_FUZZ_ITERS
// and PROTOOBF_FUZZ_REPLAYS.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/protoobf.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/runner.hpp"
#include "fuzz_support.hpp"
#include "runtime/parse.hpp"
#include "session/session.hpp"
#include "stream/channel.hpp"
#include "stream/stream_reader.hpp"
#include "util/rng.hpp"

namespace protoobf {
namespace {

using fuzz::FuzzRunner;
using fuzz::Mutant;
using fuzz::Verdict;
using fuzz::WireMutator;

struct Arm {
  std::string name;
  std::unique_ptr<ObfuscatedProtocol> protocol;
  std::unique_ptr<WireMutator> mutator;
  std::unique_ptr<FuzzRunner> runner;
  bool whole_message = false;
};

/// Compiles every registry spec at its registered obfuscation depth and
/// builds its mutation bases. Prefix-parse mode is decided by the compiled
/// wire graph itself: non-stream-safe arms (a trailing `end` terminal that
/// cannot self-delimit) run whole-message, everything else gets the
/// chunk-split resume replay.
std::vector<Arm> build_arms(std::uint64_t seed) {
  std::vector<Arm> arms;
  for (const fuzztest::SpecEntry& entry : fuzztest::spec_registry()) {
    auto graph = Framework::load_spec(entry.spec);
    EXPECT_TRUE(graph.ok()) << entry.name << ": " << graph.error().message;
    if (!graph.ok()) continue;

    ObfuscationConfig cfg;
    cfg.seed = 90125;
    cfg.per_node = entry.per_node;
    auto protocol = Framework::generate(*graph, cfg);
    EXPECT_TRUE(protocol.ok())
        << entry.name << ": " << protocol.error().message;
    if (!protocol.ok()) continue;

    Arm arm;
    arm.name = std::string(entry.name);
    arm.protocol = std::make_unique<ObfuscatedProtocol>(std::move(*protocol));
    arm.whole_message = !stream_safe(arm.protocol->wire_graph()).ok();

    WireMutator::Config mut_cfg;
    if (entry.name == "modbus-request") {
      // The generic generator rarely hits the function-code constraints;
      // use the paper's workload driver instead.
      mut_cfg.generator = [](const Graph& g, Rng& rng) {
        return ast::clone(modbus::random_request(g, rng).root());
      };
    }
    auto mutator = WireMutator::create(*arm.protocol, seed ^ arms.size(),
                                       mut_cfg);
    EXPECT_TRUE(mutator.ok()) << entry.name << ": " << mutator.error().message;
    if (!mutator.ok()) continue;
    arm.mutator = std::make_unique<WireMutator>(std::move(*mutator));

    FuzzRunner::Config run_cfg;
    run_cfg.whole_message = arm.whole_message;
    arm.runner = std::make_unique<FuzzRunner>(*arm.protocol, run_cfg);
    arms.push_back(std::move(arm));
  }
  return arms;
}

TEST(WireFuzz, CampaignHoldsEveryInvariantOnEveryArm) {
  const std::uint64_t seed = fuzztest::fuzz_seed(0xF0221);
  const std::uint64_t iters =
      fuzztest::env_u64("PROTOOBF_FUZZ_ITERS", 10000);
  SCOPED_TRACE(fuzztest::seed_note(seed));

  std::vector<Arm> arms = build_arms(seed);
  ASSERT_EQ(arms.size(), fuzztest::spec_registry().size());

  const std::uint64_t per_arm = iters / arms.size() + 1;
  std::uint64_t chunk_replays = 0;
  for (Arm& arm : arms) {
    Rng chunks(seed ^ 0xC4A7 ^ std::hash<std::string>{}(arm.name));
    for (std::uint64_t i = 0; i < per_arm; ++i) {
      const Mutant m = arm.mutator->next();
      const std::string violation = arm.runner->check(m.wire, chunks);
      ASSERT_EQ(violation, "")
          << arm.name << " iter " << i << " strategy " << m.strategy << "\n"
          << hexdump(m.wire) << fuzztest::seed_note(seed);
    }

    const FuzzRunner::Totals& t = arm.runner->totals();
    EXPECT_EQ(t.violations, 0u) << arm.name;
    EXPECT_EQ(t.inputs, per_arm) << arm.name;
    // The mutants must actually exercise the whole taxonomy — a campaign
    // that only ever sees Malformed is corrupting too hard to probe the
    // interesting paths.
    EXPECT_GT(t.parsed, 0u) << arm.name;
    EXPECT_GT(t.malformed, 0u) << arm.name;
    if (!arm.whole_message) {
      EXPECT_GT(t.truncated, 0u) << arm.name;
      chunk_replays += t.inputs;
      // The replays must genuinely ride the suspend/restore machinery.
      EXPECT_GT(arm.runner->resume_stats().resumed, 0u) << arm.name;
    }

    // Campaign-level memory bound: every tree went back to the pool, and
    // slab growth reflects the deepest single parse, not the input count.
    EXPECT_EQ(arm.runner->arena().nodes().stats().live, 0u) << arm.name;
    EXPECT_LE(arm.runner->arena().nodes().stats().slabs, 16u) << arm.name;
  }
  // ISSUE 6 acceptance: >= 2k chunk-split resume replays in the default
  // campaign (every stream-safe check() replays its input chunked).
  EXPECT_GE(chunk_replays, std::min<std::uint64_t>(iters / 5, 2000));
}

TEST(WireFuzz, TruncationOfValidWireIsNeverMalformed) {
  const std::uint64_t seed = fuzztest::fuzz_seed(0xF0222);
  SCOPED_TRACE(fuzztest::seed_note(seed));

  for (Arm& arm : build_arms(seed)) {
    if (arm.whole_message) continue;  // prefix taxonomy needs prefix parse
    for (std::size_t f = 0; f < arm.mutator->seeds().size(); ++f) {
      for (const Mutant& cut : arm.mutator->truncation_sweep(f)) {
        const Verdict v = arm.runner->one_shot(cut.wire);
        EXPECT_NE(v.kind, Verdict::Kind::Malformed)
            << arm.name << " frame " << f << " cut at " << cut.wire.size()
            << " bytes misclassified: a prefix of a valid frame parses "
               "once the rest arrives\n"
            << hexdump(cut.wire);
      }
    }
  }
}

TEST(WireFuzz, GarbageAfterAValidFrameStaysUnconsumed) {
  const std::uint64_t seed = fuzztest::fuzz_seed(0xF0223);
  SCOPED_TRACE(fuzztest::seed_note(seed));
  Rng rng(seed);

  for (Arm& arm : build_arms(seed)) {
    if (arm.whole_message) continue;
    for (const fuzz::SeedFrame& frame : arm.mutator->seeds()) {
      Bytes wire = frame.wire;
      const std::size_t extra = 1 + rng.below(16);
      for (std::size_t i = 0; i < extra; ++i) wire.push_back(rng.byte());
      const Verdict v = arm.runner->one_shot(wire);
      ASSERT_EQ(v.kind, Verdict::Kind::Parsed)
          << arm.name << ": a valid frame stopped parsing when followed by "
          << extra << " garbage bytes\n" << hexdump(wire);
      EXPECT_EQ(v.consumed, frame.wire.size())
          << arm.name << ": the prefix parse ran past the frame end into "
             "trailing garbage";
    }
  }
}

// --- mutants through the streaming stack ------------------------------------

/// Obfuscated frame protocol for the reader-level suite (the net tests'
/// seed-search idiom: stream-safe and framer-constructible).
std::shared_ptr<const ObfuscatedProtocol> find_framing() {
  constexpr std::string_view kFrameSpec = R"(
protocol Frame
frame: seq end {
  flen: terminal fixed(4)
  fbody: terminal length(flen)
}
)";
  auto graph = Framework::load_spec(kFrameSpec);
  EXPECT_TRUE(graph.ok());
  for (std::uint64_t seed = 13; seed < 13 + 64; ++seed) {
    ObfuscationConfig cfg;
    cfg.seed = seed;
    cfg.per_node = 2;
    auto protocol = Framework::generate(*graph, cfg);
    if (!protocol.ok()) continue;
    auto shared =
        std::make_shared<const ObfuscatedProtocol>(std::move(*protocol));
    if (!stream_safe(shared->wire_graph()).ok()) continue;
    if (ObfuscatedFramer::create(shared).ok()) return shared;
  }
  return nullptr;
}

TEST(StreamFuzz, ReaderSurvivesMutantFramesUnderRandomChunkSplits) {
  const std::uint64_t seed = fuzztest::fuzz_seed(0xF0224);
  const std::uint64_t replays =
      fuzztest::env_u64("PROTOOBF_FUZZ_REPLAYS", 2000);
  SCOPED_TRACE(fuzztest::seed_note(seed));

  auto framing = find_framing();
  ASSERT_NE(framing, nullptr) << "no stream-safe frame seed found";
  auto mutator = WireMutator::create(*framing, seed);
  ASSERT_TRUE(mutator.ok()) << mutator.error().message;

  ObfuscatedFramer::Config framer_cfg;
  framer_cfg.max_frame_size = 64 * 1024;
  auto framer = ObfuscatedFramer::create(framing, framer_cfg).value();
  StreamReader reader(*framer);

  Rng rng(seed ^ 0x5712);
  for (std::uint64_t i = 0; i < replays; ++i) {
    // Each replay is an independent stream: mutant frame bytes trickled
    // in random chunks, frames drained after every chunk, decode errors
    // answered with resync() — the reader must never wedge or grow its
    // reassembly buffer past the bytes it was actually fed.
    reader.reset();
    const Mutant m = mutator->next();
    std::size_t fed = 0;
    std::size_t guard = 0;
    while (fed < m.wire.size()) {
      const std::size_t step =
          std::min<std::size_t>(m.wire.size() - fed,
                                static_cast<std::size_t>(rng.between(1, 9)));
      reader.feed(BytesView(m.wire).subspan(fed, step));
      fed += step;
      for (;;) {
        ASSERT_LT(++guard, 100000u)
            << "reader spun on iter " << i << " strategy " << m.strategy
            << "\n" << hexdump(m.wire) << fuzztest::seed_note(seed);
        if (reader.next_frame().has_value()) continue;
        if (reader.failed()) {
          reader.resync();
          continue;
        }
        break;
      }
      reader.release_payloads();
      ASSERT_LE(reader.reassembly_size(), m.wire.size() + 16)
          << "reassembly ballooned on iter " << i << " strategy "
          << m.strategy << "\n" << fuzztest::seed_note(seed);
    }
  }

  // The stream must still work after the whole campaign: a fresh valid
  // frame round-trips through the same reader.
  reader.reset();
  Bytes framed;
  const Bytes payload = {'o', 'k'};
  ASSERT_TRUE(framer->encode(payload, framed).ok());
  reader.feed(framed);
  auto out = reader.next_frame();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(!reader.failed());
  EXPECT_EQ(Bytes(out->begin(), out->end()), payload);
}

TEST(StreamFuzz, ChannelSurvivesMutantPayloadsInsideValidFrames) {
  const std::uint64_t seed = fuzztest::fuzz_seed(0xF0225);
  SCOPED_TRACE(fuzztest::seed_note(seed));

  // Mutated *message* bytes inside intact length-prefixed frames: framing
  // stays healthy, per-message parse errors surface through receive(),
  // and the channel keeps going — the documented Channel contract, here
  // under adversarial payloads instead of hand-picked ones.
  auto graph = Framework::load_spec(fuzztest::kNetDemoSpec);
  ASSERT_TRUE(graph.ok());
  ObfuscationConfig cfg;
  cfg.seed = 90125;
  cfg.per_node = 2;
  auto compiled = Framework::generate(*graph, cfg);
  ASSERT_TRUE(compiled.ok());
  auto protocol =
      std::make_shared<const ObfuscatedProtocol>(std::move(*compiled));
  auto mutator = WireMutator::create(*protocol, seed);
  ASSERT_TRUE(mutator.ok()) << mutator.error().message;

  Session session(protocol);
  LengthPrefixFramer framer;
  Channel channel(session, framer);

  Rng rng(seed ^ 0xCAFE);
  constexpr std::uint64_t kPayloads = 512;
  std::uint64_t delivered = 0;
  for (std::uint64_t i = 0; i < kPayloads; ++i) {
    const Mutant m = mutator->next();
    Bytes framed;
    ASSERT_TRUE(framer.encode(m.wire, framed).ok());
    std::size_t fed = 0;
    while (fed < framed.size()) {
      const std::size_t step =
          std::min<std::size_t>(framed.size() - fed,
                                static_cast<std::size_t>(rng.between(1, 13)));
      channel.on_bytes(BytesView(framed).subspan(fed, step));
      fed += step;
      while (auto msg = channel.receive()) {
        ++delivered;  // parse result per message — ok or error, both fine
      }
    }
    ASSERT_FALSE(channel.failed())
        << "intact framing must never fail the channel; iter " << i
        << " strategy " << m.strategy << "\n" << fuzztest::seed_note(seed);
  }
  EXPECT_EQ(delivered, kPayloads);

  // And a well-formed message still round-trips on the same channel.
  const fuzz::SeedFrame& valid = mutator->seeds().front();
  Bytes framed;
  ASSERT_TRUE(framer.encode(valid.wire, framed).ok());
  channel.on_bytes(framed);
  auto msg = channel.receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->ok()) << (*msg).error().message;
}

}  // namespace
}  // namespace protoobf
