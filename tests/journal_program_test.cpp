// Differential oracle for the compiled journal (ROADMAP item 4(b)).
//
// serialize()/parse() run the journal as per-node programs
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
#include "runtime/persist.hpp"
#include "transform/exec.hpp"

namespace protoobf {
namespace {

constexpr int kSeeds = 40;
constexpr int kDraws = 10;
constexpr int kMaxAttempts = 64;  // per draw: the generator is best-effort

struct Tally {
  std::size_t cases = 0;
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

/// `rebuilt` is p reloaded from its artifact: its program must agree with
/// p's sequential executor just as p's own program does.
void check_protocol(const ObfuscatedProtocol& p,
                    const ObfuscatedProtocol& rebuilt, Rng& rng,
                    const std::string& label, Tally& tally) {
  for (int draw = 0; draw < kDraws; ++draw) {
    const std::uint64_t msg_seed = rng.next_u64();
    InstPtr message;
    Bytes served;
    for (int attempt = 0; attempt < kMaxAttempts && message == nullptr;
         ++attempt) {
      InstPtr candidate = fuzz::random_message(p.original(), rng);
      auto wire = p.serialize(*candidate, msg_seed);
      if (wire && p.canonicalize(*candidate).ok()) {
        message = std::move(candidate);
        served = std::move(*wire);
      }
    }
    const std::string where = label + " draw " + std::to_string(draw);
    if (message == nullptr) {
      tally.mismatch(where + ": no serializable message drawn");
      continue;
    }
    ++tally.cases;

    // (a) and (d): forward trees and wires agree, and match what
    // serialize() emitted.
    InstPtr seq_tree, prog_tree, rebuilt_tree;
    const Bytes wire = forward(p, *message, msg_seed, true, seq_tree);
    const Bytes prog_wire = forward(p, *message, msg_seed, false, prog_tree);
    const Bytes rebuilt_wire =
        forward(rebuilt, *message, msg_seed, false, rebuilt_tree);
    if (wire.empty() || prog_wire.empty() || rebuilt_wire.empty()) {
      tally.mismatch(where + ": an executor failed forward");
      continue;
    }
    if (!ast::equal(*seq_tree, *prog_tree) ||
        !ast::equal(*seq_tree, *rebuilt_tree)) {
      tally.mismatch(where + ": forward trees differ");
      continue;
    }
    if (prog_wire != wire || rebuilt_wire != wire || served != wire) {
      tally.mismatch(where + ": emitted wires differ");
      continue;
    }

    // (b) and (d): the programs invert the parsed wire tree to the
    // sequential executor's result.
    auto parsed = parse_wire(p.wire_graph(), p.journal(), p.holders(), wire);
    auto reparsed = parse_wire(rebuilt.wire_graph(), rebuilt.journal(),
                               rebuilt.holders(), wire);
    if (!parsed || !reparsed) {
      tally.mismatch(where + ": parse_wire rejected a valid wire");
      continue;
    }
    InstPtr seq_logical = ast::clone(**parsed);
    if (!inverse_all(seq_logical, p.journal()) ||
        !inverse_program(*parsed, p.program(), p.journal()) ||
        !inverse_program(*reparsed, rebuilt.program(), rebuilt.journal())) {
      tally.mismatch(where + ": an executor failed to invert a valid wire");
      continue;
    }
    if (!ast::equal(*seq_logical, **parsed) ||
        !ast::equal(*seq_logical, **reparsed)) {
      tally.mismatch(where + ": inverses differ on a valid wire");
      continue;
    }

    // (c): a 1-byte mutation and a truncation.
    Bytes mutated = wire;
    mutated[rng.below(mutated.size())] ^=
        static_cast<Byte>(1 + rng.below(255));
    const BytesView truncated = BytesView(wire).first(
        static_cast<std::size_t>(rng.below(wire.size())));
    for (const BytesView input : {BytesView(mutated), truncated}) {
      auto damaged =
          parse_wire(p.wire_graph(), p.journal(), p.holders(), input);
      if (!damaged) continue;
      ++tally.mutants;
      if (!inverses_agree(p, **damaged)) {
        tally.mismatch(where + ": inverses differ on a damaged wire " +
                       to_hex(input));
      }
    }
  }
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
        auto rebuilt = load_artifact(save_artifact(*protocol));
        ASSERT_TRUE(rebuilt.ok()) << name << ": " << rebuilt.error().message;
        check_protocol(*protocol, *rebuilt, rng,
                       name + " per_node " + std::to_string(per_node) +
                           " seed " + std::to_string(cfg.seed),
                       tally);
      }
    }
  }

  std::printf("journal_program: seed %llu, %zu cases, %zu damaged wires "
              "parsed, %zu mismatches\n",
              static_cast<unsigned long long>(seed), tally.cases,
              tally.mutants, tally.mismatches);
  EXPECT_EQ(tally.mismatches, 0u) << "first: " << tally.first;
  EXPECT_GE(tally.cases, specs.size() * 4 * kSeeds * 8);
  EXPECT_GT(tally.mutants, 0u);
}

}  // namespace
}  // namespace protoobf
