// Bounded-ring per-connection lifecycle tracer.
//
// Writers claim a slot with one relaxed fetch_add on a global cursor, store
// the event fields into that slot's atomics, then release-publish the slot's
// sequence number. Readers acquire-load the sequence, copy the fields, and
// re-check the sequence — a slot overwritten mid-read fails the re-check and
// is dropped. Every field is an atomic scalar (no strings, no pointers), so
// the ring is TSan-clean by construction and a record() costs a handful of
// relaxed stores.
//
// The ring holds the most recent kCapacity events; dump() renders the
// survivors oldest-first. Connection ids come from next_conn_id() so events
// from one connection can be grepped across layers.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace protoobf::obs {

enum class TraceEvent : std::uint8_t {
  Dial = 1,       // outbound connect issued (arg: attempt #)
  Accept,         // inbound connection adopted (arg: shard)
  FrameIn,        // frame decoded + parsed (arg: the message's 1-based
                  // index on its connection, i.e. messages in so far)
  FrameOut,       // message framed for send (arg: framed bytes, prefix or
                  // obfuscated frame included)
  ParseError,     // framing/parse verdict went Malformed (arg: buffered bytes)
  Backpressure,   // send queue crossed the high watermark (arg: queued bytes)
  FaultInjected,  // harness injected a fault (arg: FaultKind ordinal)
  Reconnect,      // ReliableClient re-established (arg: resent count)
  Drain,          // graceful drain initiated (arg: live connections)
  Shed,           // connection shed by the pending sweeper (arg: pending bytes)
  Close,          // connection closed (arg: 0 clean / 1 truncated / 2 malformed)
};

const char* trace_event_name(TraceEvent ev);

class Tracer {
 public:
  static constexpr std::size_t kCapacity = 4096;  // power of two

  /// The process-wide ring every subsystem records into.
  static Tracer& global();

  Tracer();

  /// Hands out connection ids for correlating events across layers.
  std::uint64_t next_conn_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void record(std::uint64_t conn_id, TraceEvent ev, std::uint64_t arg = 0) {
    if (!enabled()) return;
    const std::uint64_t ticket =
        cursor_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[ticket & (kCapacity - 1)];
    // Invalidate while writing: a reader that started before this store
    // sees a sequence mismatch and drops the slot.
    s.seq.store(0, std::memory_order_release);
    s.conn.store(conn_id, std::memory_order_relaxed);
    s.kind_arg.store((static_cast<std::uint64_t>(ev) << 56) |
                         (arg & 0x00FFFFFFFFFFFFFFull),
                     std::memory_order_relaxed);
    s.t_ns.store(elapsed_ns(), std::memory_order_relaxed);
    s.seq.store(ticket + 1, std::memory_order_release);  // 0 means empty
  }

  /// Number of events ever recorded (monotonic; ring keeps the last
  /// kCapacity of them).
  std::uint64_t recorded() const {
    return cursor_.load(std::memory_order_relaxed);
  }

  /// Renders surviving events oldest-first, one per line:
  ///   +123456us conn=42 FrameIn arg=512
  /// `max_events` caps the output (0 = whole ring).
  std::string dump(std::size_t max_events = 0) const;

  /// Drops all events (test isolation). Racy against concurrent writers,
  /// which is fine — those events are simply kept.
  void clear();

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // ticket + 1; 0 = never written
    std::atomic<std::uint64_t> conn{0};
    std::atomic<std::uint64_t> kind_arg{0};  // event << 56 | arg
    std::atomic<std::uint64_t> t_ns{0};
  };

  std::uint64_t elapsed_ns() const;

  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<bool> enabled_{true};
  std::uint64_t epoch_ns_;  // process-start reference for readable offsets
  Slot slots_[kCapacity];
};

}  // namespace protoobf::obs
