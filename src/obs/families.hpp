// The metric catalog: one bundle of pre-registered instruments per
// subsystem, so hot paths hold raw Counter/Gauge/Histogram references and
// never touch the registry after construction. Accessors are function-local
// statics against the global registry; touch_all() forces every family to
// exist so a scrape of a freshly started process already shows the full
// catalog at zero (Prometheus treats absent and zero very differently).
//
// Naming: protoobf_<layer>_<what>[_total|_ns|_bytes], labels only where a
// dimension is genuinely per-series (shard="0".."N-1" | "client",
// kind="..." for fault taxonomy).
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"

namespace protoobf::obs {

/// Per-shard transport metrics. Server shards use for_shard(i); outbound
/// (Connector / ReliableClient) connections share the "client" series.
struct NetMetrics {
  Counter& accepted;        // connections accepted (server) / dialed (client)
  Counter& closed;          // connections fully closed
  Counter& rejected;        // accepts dropped at the overload gate
  Counter& shed;            // connections shed by the pending-byte sweeper
  Gauge& active;            // live connections right now
  Counter& bytes_in;        // payload bytes received
  Counter& bytes_out;       // payload bytes sent
  Counter& messages_in;     // frames decoded + parsed to messages
  Counter& messages_out;    // messages serialized + framed for send
  Counter& writes;          // send(2) calls that moved bytes
  Counter& close_clean;     // close taxonomy: graceful / local close
  Counter& close_truncated; // transport-level failures (ErrorKind::Truncated)
  Counter& close_malformed; // framing/parse failures (ErrorKind::Malformed)
  Counter& backpressure;    // send-queue high-watermark trips
  Histogram& frame_ns;      // decode, parse and handlers per read slice
                            // (the slice's write is not included)

  static NetMetrics& for_shard(std::size_t shard);
  static NetMetrics& client();
  /// Sums an instrument across every shard series created so far (server
  /// shards only, or including the client series). The members are
  /// references, so the field is picked by a capture-free selector:
  ///   NetMetrics::sum([](NetMetrics& m) -> Counter& { return m.bytes_in; },
  ///                   /*include_client=*/true)
  static std::uint64_t sum(Counter& (*field)(NetMetrics&),
                           bool include_client);
  static std::int64_t sum(Gauge& (*field)(NetMetrics&), bool include_client);
};

/// Session-layer (serialize/parse) metrics, process-wide.
struct SessionMetrics {
  Counter& serialized;          // messages serialized
  Counter& parsed;              // messages parsed
  Counter& serialize_errors;
  Counter& parse_errors;
  Histogram& serialize_ns;      // sampled (1 in kSampleEvery)
  Histogram& parse_ns;          // sampled
  Gauge& arena_retained_bytes;  // high-water of arena wire capacity

  static constexpr std::uint32_t kSampleEvery = 64;  // latency sampling period
  enum class Op : std::uint8_t { Serialize, Parse };
  /// True once every kSampleEvery calls of `op` on this thread — keeps the
  /// two steady_clock reads off the common per-message path. Each op has
  /// its own tick: with a shared one, a strict parse/serialize alternation
  /// (every echo) would sample only whichever op lands on even ticks.
  static bool sample(Op op) {
    thread_local std::uint32_t ticks[2] = {};
    return (++ticks[static_cast<std::size_t>(op)] & (kSampleEvery - 1)) == 0;
  }
  static SessionMetrics& get();
};

/// ReliableClient reconnect/resend metrics, process-wide.
struct ReconnectMetrics {
  Counter& sent;
  Counter& resent;
  Counter& acked;
  Counter& dials;
  Counter& reconnects;
  Counter& drops;
  Counter& overflows;
  Gauge& unacked;  // ack lag: sent-but-unacknowledged messages

  static ReconnectMetrics& get();
};

/// ParseResume (suspended prefix parse) metrics, process-wide; mirrored
/// from per-framer ParseResume::Stats deltas.
struct ResumeMetrics {
  Counter& attempts;
  Counter& resumed;
  Counter& suspensions;
  Counter& invalidations;
  Counter& scanned_bytes;

  static ResumeMetrics& get();
};

/// FaultInjector tallies, labeled by fault kind so the soak test can match
/// them one-for-one against FaultInjector::Stats.
struct FaultMetrics {
  Counter& short_reads;
  Counter& short_writes;
  Counter& eagains;
  Counter& resets;
  Counter& epipes;
  Counter& fins;
  Counter& refused;
  Counter& connections;

  static FaultMetrics& get();
};

/// Forces every family above into the registry (plus net shard "client")
/// so exposition covers the complete catalog before any traffic flows.
void touch_all();

}  // namespace protoobf::obs
