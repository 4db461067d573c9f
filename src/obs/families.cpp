#include "obs/families.hpp"

#include <mutex>
#include <string>
#include <vector>

namespace protoobf::obs {

namespace {

NetMetrics* make_net(const std::string& shard) {
  MetricsRegistry& r = MetricsRegistry::global();
  const Labels l{{"shard", shard}};
  return new NetMetrics{
      r.counter("protoobf_net_connections_accepted_total",
                "Connections accepted (server shards) or dialed (client).", l),
      r.counter("protoobf_net_connections_closed_total",
                "Connections fully closed.", l),
      r.counter("protoobf_net_connections_rejected_total",
                "Accepts rejected at the overload gate.", l),
      r.counter("protoobf_net_connections_shed_total",
                "Connections shed by the pending-byte sweeper.", l),
      r.gauge("protoobf_net_connections_active",
              "Live connections right now.", l),
      r.counter("protoobf_net_bytes_in_total", "Payload bytes received.", l),
      r.counter("protoobf_net_bytes_out_total", "Payload bytes sent.", l),
      r.counter("protoobf_net_messages_in_total",
                "Frames decoded and parsed into messages.", l),
      r.counter("protoobf_net_messages_out_total",
                "Messages serialized and framed for send.", l),
      r.counter("protoobf_net_writes_total",
                "send(2) calls that moved bytes.", l),
      r.counter("protoobf_net_close_clean_total",
                "Closes without a transport or parse error.", l),
      r.counter("protoobf_net_close_truncated_total",
                "Closes from transport-level failures (Truncated).", l),
      r.counter("protoobf_net_close_malformed_total",
                "Closes from framing/parse failures (Malformed).", l),
      r.counter("protoobf_net_backpressure_total",
                "Send-queue high-watermark trips.", l),
      r.histogram("protoobf_net_frame_ns",
                  "Decode, parse and message handlers per read slice, "
                  "excluding the slice's write, nanoseconds.", l),
  };
}

// Shard bundles are created on demand and cached; the list is walked by
// NetMetrics::sum() for cross-shard aggregates.
std::mutex g_net_mu;
std::vector<NetMetrics*>& net_shards() {
  static std::vector<NetMetrics*>* v = new std::vector<NetMetrics*>();
  return *v;
}

}  // namespace

NetMetrics& NetMetrics::for_shard(std::size_t shard) {
  std::lock_guard<std::mutex> lock(g_net_mu);
  auto& shards = net_shards();
  while (shards.size() <= shard) {
    shards.push_back(make_net(std::to_string(shards.size())));
  }
  return *shards[shard];
}

NetMetrics& NetMetrics::client() {
  static NetMetrics* m = make_net("client");
  return *m;
}

std::uint64_t NetMetrics::sum(Counter& (*field)(NetMetrics&),
                              bool include_client) {
  std::uint64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(g_net_mu);
    for (NetMetrics* m : net_shards()) total += field(*m).value();
  }
  if (include_client) total += field(client()).value();
  return total;
}

std::int64_t NetMetrics::sum(Gauge& (*field)(NetMetrics&),
                             bool include_client) {
  std::int64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(g_net_mu);
    for (NetMetrics* m : net_shards()) total += field(*m).value();
  }
  if (include_client) total += field(client()).value();
  return total;
}

SessionMetrics& SessionMetrics::get() {
  static SessionMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::global();
    return new SessionMetrics{
        r.counter("protoobf_session_serialized_total",
                  "Messages serialized by the session layer."),
        r.counter("protoobf_session_parsed_total",
                  "Messages parsed by the session layer."),
        r.counter("protoobf_session_serialize_errors_total",
                  "Serialize failures."),
        r.counter("protoobf_session_parse_errors_total", "Parse failures."),
        r.histogram("protoobf_session_serialize_ns",
                    "Serialize latency, nanoseconds (sampled 1/64)."),
        r.histogram("protoobf_session_parse_ns",
                    "Parse latency, nanoseconds (sampled 1/64)."),
        r.gauge("protoobf_session_arena_retained_bytes",
                "High-water mark of session arena wire capacity."),
    };
  }();
  return *m;
}

ReconnectMetrics& ReconnectMetrics::get() {
  static ReconnectMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::global();
    return new ReconnectMetrics{
        r.counter("protoobf_reconnect_sent_total",
                  "Messages handed to the wire at least once."),
        r.counter("protoobf_reconnect_resent_total",
                  "Retransmissions after reconnect."),
        r.counter("protoobf_reconnect_acked_total",
                  "Messages confirmed by cumulative ack."),
        r.counter("protoobf_reconnect_dials_total", "Dial attempts."),
        r.counter("protoobf_reconnect_reconnects_total",
                  "Successful re-dials after a drop."),
        r.counter("protoobf_reconnect_drops_total",
                  "Established connections lost."),
        r.counter("protoobf_reconnect_overflows_total",
                  "Sends rejected because the resend queue was full."),
        r.gauge("protoobf_reconnect_unacked",
                "Ack lag: sent-but-unacknowledged messages."),
    };
  }();
  return *m;
}

ResumeMetrics& ResumeMetrics::get() {
  static ResumeMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::global();
    return new ResumeMetrics{
        r.counter("protoobf_resume_attempts_total",
                  "Frame decode attempts through ParseResume."),
        r.counter("protoobf_resume_resumed_total",
                  "Decodes resumed from a suspended prefix parse."),
        r.counter("protoobf_resume_suspensions_total",
                  "Prefix parses suspended on Truncated."),
        r.counter("protoobf_resume_invalidations_total",
                  "Suspended states discarded (buffer rewound/changed)."),
        r.counter("protoobf_resume_scanned_bytes_total",
                  "Bytes scanned by prefix parsing, including rescans."),
    };
  }();
  return *m;
}

FaultMetrics& FaultMetrics::get() {
  static FaultMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::global();
    const char* name = "protoobf_fault_injected_total";
    const char* help = "Faults injected by kind (test/soak harness).";
    return new FaultMetrics{
        r.counter(name, help, {{"kind", "short_read"}}),
        r.counter(name, help, {{"kind", "short_write"}}),
        r.counter(name, help, {{"kind", "eagain"}}),
        r.counter(name, help, {{"kind", "reset"}}),
        r.counter(name, help, {{"kind", "epipe"}}),
        r.counter(name, help, {{"kind", "fin"}}),
        r.counter(name, help, {{"kind", "refused"}}),
        r.counter(name, help, {{"kind", "connection"}}),
    };
  }();
  return *m;
}

void touch_all() {
  NetMetrics::client();
  SessionMetrics::get();
  ReconnectMetrics::get();
  ResumeMetrics::get();
  FaultMetrics::get();
}

}  // namespace protoobf::obs
