#include "session/session.hpp"

#include "obs/families.hpp"

namespace protoobf {

namespace {

using Op = obs::SessionMetrics::Op;

// Per-message instrumentation, kept off the critical path: counters are one
// relaxed add; latency is recorded for one message in kSampleEvery per
// thread and op, so the steady_clock reads never become a per-message cost.
inline std::uint64_t maybe_start_sample(Op op) {
  return obs::SessionMetrics::sample(op) ? obs::now_ns() : 0;
}

inline void finish_serialize(obs::SessionMetrics& m, std::uint64_t t0,
                             std::size_t wire_capacity) {
  m.serialized.add(1);
  if (t0 != 0) {
    m.serialize_ns.record(obs::now_ns() - t0);
    m.arena_retained_bytes.set_max(static_cast<std::int64_t>(wire_capacity));
  }
}

inline void finish_parse(obs::SessionMetrics& m, std::uint64_t t0, bool ok) {
  if (ok) {
    m.parsed.add(1);
  } else {
    m.parse_errors.add(1);
  }
  if (t0 != 0) m.parse_ns.record(obs::now_ns() - t0);
}

}  // namespace

Session::Session(std::shared_ptr<const ObfuscatedProtocol> protocol,
                 WorkerPool* pool)
    : protocol_(std::move(protocol)),
      pool_(pool),
      shards_(pool_ != nullptr ? pool_->width() : 1) {}

Expected<BytesView> Session::serialize(const Inst& message,
                                       std::uint64_t msg_seed,
                                       std::vector<FieldSpan>* spans) {
  obs::SessionMetrics& m = obs::SessionMetrics::get();
  const std::uint64_t t0 = maybe_start_sample(Op::Serialize);
  wire_hint_.reserve(arena_.wire());
  if (Status s = protocol_->serialize_into(message, msg_seed, arena_.wire(),
                                           spans, &arena_.nodes(),
                                           &arena_.scopes(),
                                           &arena_.derive());
      !s) {
    m.serialize_errors.add(1);
    return Unexpected(s.error());
  }
  wire_hint_.note(arena_.wire().size());
  finish_serialize(m, t0, arena_.wire().capacity());
  return BytesView(arena_.wire());
}

Expected<InstPtr> Session::parse(BytesView wire) {
  obs::SessionMetrics& m = obs::SessionMetrics::get();
  const std::uint64_t t0 = maybe_start_sample(Op::Parse);
  auto result = protocol_->parse(wire, &arena_.scratch(), &arena_.scopes(),
                                 &arena_.nodes(), &arena_.derive());
  finish_parse(m, t0, static_cast<bool>(result));
  return result;
}

Expected<Bytes> Session::serialize_one(SessionArena& arena,
                                       const BatchItem& item) {
  if (item.message == nullptr) {
    return Unexpected("batch item has no message");
  }
  obs::SessionMetrics& m = obs::SessionMetrics::get();
  const std::uint64_t t0 = maybe_start_sample(Op::Serialize);
  wire_hint_.reserve(arena.wire());
  if (Status s = protocol_->serialize_into(*item.message, item.msg_seed,
                                           arena.wire(), /*spans=*/nullptr,
                                           &arena.nodes(), &arena.scopes(),
                                           &arena.derive());
      !s) {
    m.serialize_errors.add(1);
    return Unexpected(s.error());
  }
  wire_hint_.note(arena.wire().size());
  finish_serialize(m, t0, arena.wire().capacity());
  // The arena buffer is reused for the next item; the result is a
  // right-sized copy the caller owns.
  return Bytes(arena.wire());
}

std::vector<Expected<Bytes>> Session::serialize_batch(
    std::span<const BatchItem> items) {
  std::vector<Expected<Bytes>> results;
  results.reserve(items.size());

  if (pool_ == nullptr || pool_->width() == 1 || items.size() <= 1) {
    for (const BatchItem& item : items) {
      results.emplace_back(serialize_one(shards_[0], item));
    }
    return results;
  }

  // Sharded run: pre-fill placeholders so shards can assign their slots
  // concurrently. The empty error message stays within SSO, so this does
  // not allocate per item.
  for (std::size_t i = 0; i < items.size(); ++i) {
    results.emplace_back(Unexpected(std::string()));
  }
  pool_->parallel_for(
      items.size(), [&](std::size_t shard, std::size_t begin,
                        std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          results[i] = serialize_one(shards_[shard], items[i]);
        }
      });
  return results;
}

std::vector<Expected<InstPtr>> Session::parse_batch(
    std::span<const BytesView> wires) {
  std::vector<Expected<InstPtr>> results;
  results.reserve(wires.size());

  obs::SessionMetrics& m = obs::SessionMetrics::get();
  const auto parse_into = [&](SessionArena& arena, BytesView wire,
                              Expected<InstPtr>& out) {
    const std::uint64_t t0 = maybe_start_sample(Op::Parse);
    out = protocol_->parse(wire, &arena.scratch(), &arena.scopes(),
                           &arena.nodes(), &arena.derive());
    finish_parse(m, t0, static_cast<bool>(out));
  };

  if (pool_ == nullptr || pool_->width() == 1 || wires.size() <= 1) {
    for (const BytesView wire : wires) {
      results.emplace_back(Unexpected(std::string()));
      parse_into(shards_[0], wire, results.back());
    }
    return results;
  }

  for (std::size_t i = 0; i < wires.size(); ++i) {
    results.emplace_back(Unexpected(std::string()));
  }
  pool_->parallel_for(
      wires.size(), [&](std::size_t shard, std::size_t begin,
                        std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          parse_into(shards_[shard], wires[i], results[i]);
        }
      });
  return results;
}

}  // namespace protoobf
