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

}  // namespace

Expected<BytesView> Session::serialize(const Inst& message,
                                       std::uint64_t msg_seed,
                                       std::vector<FieldSpan>* spans) {
  obs::SessionMetrics& m = obs::SessionMetrics::get();
  const std::uint64_t t0 = maybe_start_sample(Op::Serialize);
  if (Status s = protocol_->serialize_into(message, msg_seed, arena_.wire(),
                                           spans, &arena_.nodes(),
                                           &arena_.derive());
      !s) {
    m.serialize_errors.add(1);
    return Unexpected(s.error());
  }
  m.serialized.add(1);
  if (t0 != 0) {
    m.serialize_ns.record(obs::now_ns() - t0);
    m.arena_retained_bytes.set_max(
        static_cast<std::int64_t>(arena_.wire().capacity()));
  }
  return BytesView(arena_.wire());
}

Expected<InstPtr> Session::parse(BytesView wire) {
  obs::SessionMetrics& m = obs::SessionMetrics::get();
  const std::uint64_t t0 = maybe_start_sample(Op::Parse);
  auto result = protocol_->parse(wire, &arena_.scratch(), &arena_.nodes(),
                                 &arena_.derive());
  if (result) {
    m.parsed.add(1);
  } else {
    m.parse_errors.add(1);
  }
  if (t0 != 0) m.parse_ns.record(obs::now_ns() - t0);
  return result;
}

}  // namespace protoobf
