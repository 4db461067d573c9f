#include "fuzz/runner.hpp"

#include <algorithm>

#include "ast/ast.hpp"
#include "util/bytes.hpp"

namespace protoobf::fuzz {
namespace {

using Clock = std::chrono::steady_clock;

Verdict verdict_of_error(const Error& error) {
  Verdict v;
  v.kind = error.truncated() ? Verdict::Kind::Truncated
                             : Verdict::Kind::Malformed;
  return v;
}

}  // namespace

const char* to_string(Verdict::Kind kind) {
  switch (kind) {
    case Verdict::Kind::Parsed:
      return "Parsed";
    case Verdict::Kind::Truncated:
      return "Truncated";
    case Verdict::Kind::Malformed:
      return "Malformed";
  }
  return "?";
}

FuzzRunner::FuzzRunner(const ObfuscatedProtocol& protocol, Config config)
    : protocol_(&protocol),
      config_(config),
      lint_(analysis::analyze(protocol)) {}

FuzzRunner::Attempt FuzzRunner::parse_full(BytesView wire) {
  Attempt a;
  if (config_.whole_message) {
    auto tree = protocol_->parse(wire, &arena_.scratch(), &arena_.nodes(),
                                 &arena_.derive());
    if (tree.ok()) {
      a.verdict.kind = Verdict::Kind::Parsed;
      a.verdict.consumed = wire.size();
      a.tree = std::move(*tree);
    } else {
      a.verdict = verdict_of_error(tree.error());
    }
    return a;
  }
  std::size_t consumed = 0;
  auto tree = protocol_->parse_prefix(wire, &consumed, &arena_.scratch(),
                                     &arena_.nodes(), &arena_.derive(),
                                     /*resume=*/nullptr);
  if (tree.ok()) {
    a.verdict.kind = Verdict::Kind::Parsed;
    a.verdict.consumed = consumed;
    a.tree = std::move(*tree);
  } else {
    a.verdict = verdict_of_error(tree.error());
  }
  return a;
}

FuzzRunner::Attempt FuzzRunner::replay_chunked(BytesView wire, Rng& chunks) {
  // A checkpoint left by a previous input describes a different buffer
  // front; it must never leak into this replay.
  resume_.invalidate();
  Attempt a;
  const auto start = Clock::now();
  std::size_t fed = 0;
  for (;;) {
    // Mostly tiny chunks (every byte a suspend/restore), sometimes a large
    // one (mixed progress within a single attempt).
    std::size_t step = chunks.chance(0.15) && wire.size() > fed
                           ? chunks.between(1, wire.size() - fed)
                           : chunks.between(1, config_.max_chunk);
    fed = std::min(wire.size(), fed + step);
    std::size_t consumed = 0;
    auto tree = protocol_->parse_prefix(wire.first(fed), &consumed,
                                        &arena_.scratch(), &arena_.nodes(),
                                        &arena_.derive(), &resume_);
    if (tree.ok()) {
      a.verdict.kind = Verdict::Kind::Parsed;
      a.verdict.consumed = consumed;
      a.tree = std::move(*tree);
      break;
    }
    if (!tree.error().truncated()) {
      a.verdict = verdict_of_error(tree.error());
      break;
    }
    if (fed >= wire.size()) {
      a.verdict.kind = Verdict::Kind::Truncated;
      break;
    }
    if (Clock::now() - start > config_.deadline) {
      a.verdict.kind = Verdict::Kind::Truncated;
      a.verdict.deadline_exceeded = true;
      break;
    }
  }
  // A truncated replay leaves a live checkpoint over `wire`'s front; the
  // next input is a different buffer, so the state is worthless now.
  resume_.invalidate();
  return a;
}

Verdict FuzzRunner::one_shot(BytesView wire) {
  return parse_full(wire).verdict;
}

std::string FuzzRunner::check(BytesView wire, Rng& chunks) {
  ++totals_.inputs;
  const std::size_t live_before = arena_.nodes().stats().live;
  std::string violation;

  {
    const auto start = Clock::now();
    Attempt full = parse_full(wire);
    if (Clock::now() - start > config_.deadline) {
      violation = "one-shot parse exceeded the deadline";
    }

    switch (full.verdict.kind) {
      case Verdict::Kind::Parsed:
        ++totals_.parsed;
        break;
      case Verdict::Kind::Truncated:
        ++totals_.truncated;
        break;
      case Verdict::Kind::Malformed:
        ++totals_.malformed;
        break;
    }

    if (violation.empty() && !config_.whole_message) {
      Attempt replayed = replay_chunked(wire, chunks);
      if (replayed.verdict.deadline_exceeded) {
        violation = "chunked replay exceeded the deadline";
      } else if (!(replayed.verdict == full.verdict)) {
        violation = std::string("verdict disagreement: one-shot ") +
                    to_string(full.verdict.kind) + " (consumed " +
                    std::to_string(full.verdict.consumed) + ") vs resumed " +
                    to_string(replayed.verdict.kind) + " (consumed " +
                    std::to_string(replayed.verdict.consumed) + ")";
      } else if (full.verdict.kind == Verdict::Kind::Parsed &&
                 !ast::equal(*full.tree, *replayed.tree)) {
        violation = "resumed parse produced a different tree";
      }
    }
  }  // trees drop here, recycling their nodes

  if (violation.empty() &&
      arena_.nodes().stats().live != live_before) {
    violation = "parse leaked " +
                std::to_string(arena_.nodes().stats().live - live_before) +
                " pooled nodes";
  }
  if (!violation.empty()) {
    ++totals_.violations;
    // The static/dynamic cross-oracle: on a lint-clean spec the parser had
    // no excuse, so the bug is in the runtime — or in the analyzer that
    // called the spec clean. Either way the stamp routes the triage.
    violation += lint_.clean()
                     ? " [spec lint-clean: runtime or analyzer at fault]"
                     : " [spec lint: " + analysis::summary(lint_) + "]";
  }
  return violation;
}

}  // namespace protoobf::fuzz
