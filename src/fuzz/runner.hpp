// Adversarial parse harness: one input, every invariant.
//
// The parser's contract against hostile bytes has four clauses, and the
// FuzzRunner checks all of them for every input it is handed:
//
//   1. no crash — trivially, by running;
//   2. no hang — a per-input deadline is checked between parse attempts
//      (a wedged single attempt is caught by the test-level timeout);
//   3. bounded memory — trees drop back into the runner's arena pool after
//      every input (live-node count returns to zero), and slab growth over
//      a whole campaign stays flat instead of tracking the input count;
//   4. correct taxonomy, stable across delivery — the verdict (Parsed /
//      Truncated / Malformed, plus the consumed count and the tree itself)
//      of a one-shot parse of the full buffer must equal the verdict of
//      the same bytes trickled through randomized chunk splits with a
//      ParseResume continuing each truncated attempt. Disagreement means a
//      suspend/restore path lost or invented state.
//
// The runner also lints the protocol once at construction (the static
// analyzer over the same wire graph) and stamps every violation with that
// verdict: a taxonomy violation on a lint-clean spec means either the
// runtime or the analyzer is wrong — the static/dynamic cross-oracle.
//
// The runner owns one SessionArena and one ParseResume and reuses them
// across inputs — exactly the shape of a long-lived connection fed by an
// adversary, which is the scenario under test.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "analysis/analyzer.hpp"
#include "runtime/protocol.hpp"
#include "runtime/resume.hpp"
#include "session/arena.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace protoobf::fuzz {

struct Verdict {
  enum class Kind : std::uint8_t { Parsed, Truncated, Malformed };
  Kind kind = Kind::Malformed;
  std::size_t consumed = 0;  // Parsed: the message's wire size
  bool deadline_exceeded = false;

  bool operator==(const Verdict& other) const {
    return kind == other.kind &&
           (kind != Kind::Parsed || consumed == other.consumed);
  }
};

const char* to_string(Verdict::Kind kind);

class FuzzRunner {
 public:
  struct Config {
    // Per-input wall-clock budget across all parse attempts.
    std::chrono::milliseconds deadline{2000};
    // Chunk-split replay: most chunks are tiny (1..max_chunk bytes, the
    // suspend-heavy regime), a fraction are large to hit the mixed paths.
    std::size_t max_chunk = 7;
    // Non-stream-safe specs cannot prefix-parse: fall back to whole-buffer
    // parse() and skip the chunked replay.
    bool whole_message = false;
  };

  FuzzRunner(const ObfuscatedProtocol& protocol, Config config);
  explicit FuzzRunner(const ObfuscatedProtocol& protocol)
      : FuzzRunner(protocol, Config()) {}

  /// Full-buffer parse, no resume state involved.
  Verdict one_shot(BytesView wire);

  /// Runs every oracle on one input. Returns the empty string when all
  /// invariants hold, else a description of the violation (for the test's
  /// failure message and the corpus note).
  std::string check(BytesView wire, Rng& chunks);

  /// Accounting across the campaign.
  struct Totals {
    std::uint64_t inputs = 0;
    std::uint64_t parsed = 0;
    std::uint64_t truncated = 0;
    std::uint64_t malformed = 0;
    std::uint64_t violations = 0;
  };
  const Totals& totals() const { return totals_; }

  const ParseResume::Stats& resume_stats() const { return resume_.stats(); }
  SessionArena& arena() { return arena_; }
  const ObfuscatedProtocol& protocol() const { return *protocol_; }

  /// The static analyzer's verdict on the protocol under test, computed
  /// once at construction. check() stamps violations with it: a violation
  /// on a lint-clean spec is a bug in the runtime or in the analyzer.
  const analysis::Report& lint() const { return lint_; }

 private:
  struct Attempt {
    Verdict verdict;
    InstPtr tree;  // Parsed only; drawn from arena_'s pool
  };

  Attempt parse_full(BytesView wire);
  Attempt replay_chunked(BytesView wire, Rng& chunks);

  const ObfuscatedProtocol* protocol_;
  Config config_;
  SessionArena arena_;
  ParseResume resume_;  // reused across replays; invalidated between inputs
  analysis::Report lint_;
  Totals totals_;
};

}  // namespace protoobf::fuzz
