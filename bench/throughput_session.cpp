// Session throughput baseline: single-message vs. arena paths.
//
// The session subsystem (src/session) pairs one shared compiled protocol
// with an arena of reusable buffers and nodes. This bench pins the numbers
// future PRs optimize against. Four measurements over the same message
// set:
//
//   serialize/single   ObfuscatedProtocol::serialize() per message — the
//                      allocating baseline path
//   serialize/arena    Session::serialize() — arena emit, one message at a
//                      time
//   parse/single       ObfuscatedProtocol::parse() per wire image
//   parse/arena        Session::parse()
//
// Usage: bench_throughput_session [messages] [repeats] [per_node] [json_path]
// Defaults keep a full run under ~5 s on one core for the CI smoke test.
// Every run also writes a machine-readable BENCH_throughput.json so the
// perf trajectory across PRs can be archived from CI.
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "session/session.hpp"

namespace {

using namespace protoobf;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::uint64_t msg_seed_of(std::size_t i) { return 0x5e55 + 11400714819323198485ull * i; }

struct Rate {
  double msgs_per_sec = 0;
  std::size_t messages = 0;
};

void print_rate(const char* label, const Rate& r) {
  std::printf("  %-18s %12.0f msgs/s  (%zu msgs)\n", label, r.msgs_per_sec,
              r.messages);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t messages =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 512;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 8;
  const int per_node = argc > 3 ? std::atoi(argv[3]) : 2;
  const char* json_path = argc > 4 ? argv[4] : "BENCH_throughput.json";
  if (messages == 0 || repeats <= 0 || per_node < 0) {
    std::fprintf(stderr,
                 "usage: bench_throughput_session [messages>0] [repeats>0] "
                 "[per_node>=0] [json_path]\n");
    return 2;
  }

  bench::Workload workload = bench::http_workload();
  const Graph& g = workload.graphs[0];

  ObfuscationConfig config;
  config.seed = 2018;
  config.per_node = per_node;

  auto compiled = Framework::generate(g, config);
  if (!compiled) {
    std::fprintf(stderr, "obfuscation failed: %s\n",
                 compiled.error().message.c_str());
    return 1;
  }
  auto entry =
      std::make_shared<const ObfuscatedProtocol>(std::move(*compiled));
  const ObfuscatedProtocol& protocol = *entry;

  Rng rng(7);
  std::vector<Message> msgs;
  msgs.reserve(messages);
  for (std::size_t i = 0; i < messages; ++i) {
    msgs.push_back(workload.make(0, g, rng));
  }

  Session session(entry);

  // Warm-up: touches every code path once, grows the arena to steady
  // state, and yields the wire set for the parse measurements.
  std::vector<Bytes> wires;
  wires.reserve(messages);
  for (std::size_t i = 0; i < messages; ++i) {
    auto wire = protocol.serialize(msgs[i].root(), msg_seed_of(i));
    if (!wire) {
      std::fprintf(stderr, "serialize failed: %s\n",
                   wire.error().message.c_str());
      return 1;
    }
    wires.push_back(std::move(*wire));
    (void)session.serialize(msgs[i].root(), msg_seed_of(i));
    (void)session.parse(wires.back());
  }

  std::size_t checksum = 0;

  // Each path is timed in `kTrials` windows interleaved round-robin across
  // all paths, and the best window wins: a shared or throttled core
  // perturbs stretches of wall time, so interleaving spreads the
  // perturbation evenly instead of biasing whichever path happened to run
  // during it.
  constexpr int kTrials = 5;
  Rate ser_single, ser_arena;
  Rate parse_single, parse_arena;
  struct Path {
    Rate* rate = nullptr;
    std::function<void()> body;
  };
  std::array<Path, 4> paths;

  // The single-message baseline collects owned results, one call at a
  // time, as a caller that keeps every result would. The arena rows are
  // the streaming variants (results consumed immediately). The table is
  // fixed-size and filled by index: growing a vector of these entries
  // trips a GCC 12 false-positive -Warray-bounds.
  paths[0] = {&ser_single, [&] {
    std::vector<Expected<Bytes>> results;
    results.reserve(messages);
    for (std::size_t i = 0; i < messages; ++i) {
      results.emplace_back(protocol.serialize(msgs[i].root(), msg_seed_of(i)));
    }
    for (const auto& result : results) checksum += result ? result->size() : 0;
  }};

  paths[1] = {&ser_arena, [&] {
    for (std::size_t i = 0; i < messages; ++i) {
      auto wire = session.serialize(msgs[i].root(), msg_seed_of(i));
      checksum += wire ? wire->size() : 0;
    }
  }};

  paths[2] = {&parse_single, [&] {
    std::vector<Expected<InstPtr>> results;
    results.reserve(messages);
    for (const Bytes& wire : wires) {
      results.emplace_back(protocol.parse(wire));
    }
    for (const auto& result : results) {
      checksum += result ? (*result)->children.size() : 0;
    }
  }};

  paths[3] = {&parse_arena, [&] {
    for (const Bytes& wire : wires) {
      auto tree = session.parse(wire);
      checksum += tree ? (*tree)->children.size() : 0;
    }
  }};

  for (auto& [rate, body] : paths) {
    rate->messages = messages * static_cast<std::size_t>(repeats);
  }
  for (int t = 0; t < kTrials; ++t) {
    for (auto& [rate, body] : paths) {
      const auto start = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) body();
      const double rate_now =
          static_cast<double>(rate->messages) / seconds_since(start);
      if (rate_now > rate->msgs_per_sec) rate->msgs_per_sec = rate_now;
    }
  }

  // Metrics A/B: the instrumented arena paths rerun with the registry
  // kill-switch thrown and again with it live, interleaved within each
  // trial so thermal/cache drift hits both arms equally, so the on/off
  // ratios price the telemetry itself (counters, 1/64 latency sampling).
  // The acceptance bar is < 2%.
  Rate ser_arena_on, ser_arena_off, parse_arena_on, parse_arena_off;
  ser_arena_on.messages = messages * static_cast<std::size_t>(repeats);
  ser_arena_off.messages = ser_arena_on.messages;
  parse_arena_on.messages = ser_arena_on.messages;
  parse_arena_off.messages = ser_arena_on.messages;
  const auto run_serialize = [&](Rate& rate) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      for (std::size_t i = 0; i < messages; ++i) {
        auto wire = session.serialize(msgs[i].root(), msg_seed_of(i));
        checksum += wire ? wire->size() : 0;
      }
    }
    const double rate_now =
        static_cast<double>(rate.messages) / seconds_since(start);
    if (rate_now > rate.msgs_per_sec) rate.msgs_per_sec = rate_now;
  };
  const auto run_parse = [&](Rate& rate) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      for (const Bytes& wire : wires) {
        auto tree = session.parse(wire);
        checksum += tree ? (*tree)->children.size() : 0;
      }
    }
    const double rate_now =
        static_cast<double>(rate.messages) / seconds_since(start);
    if (rate_now > rate.msgs_per_sec) rate.msgs_per_sec = rate_now;
  };
  for (int t = 0; t < kTrials; ++t) {
    obs::set_enabled(false);
    run_serialize(ser_arena_off);
    run_parse(parse_arena_off);
    obs::set_enabled(true);
    run_serialize(ser_arena_on);
    run_parse(parse_arena_on);
  }
  const double ser_onoff =
      ser_arena_off.msgs_per_sec > 0
          ? ser_arena_on.msgs_per_sec / ser_arena_off.msgs_per_sec
          : 0;
  const double parse_onoff =
      parse_arena_off.msgs_per_sec > 0
          ? parse_arena_on.msgs_per_sec / parse_arena_off.msgs_per_sec
          : 0;

  std::printf("throughput_session — %s, per_node=%d, %zu msgs x %d repeats\n",
              workload.name.c_str(), per_node, messages, repeats);
  print_rate("serialize/single", ser_single);
  print_rate("serialize/arena", ser_arena);
  print_rate("parse/single", parse_single);
  print_rate("parse/arena", parse_arena);
  // The pooled single-session paths must at least match the allocating
  // plain calls (CI guards these ratios).
  std::printf("  serialize arena/single:   %.3fx\n",
              ser_arena.msgs_per_sec / ser_single.msgs_per_sec);
  std::printf("  parse     arena/single:   %.3fx\n",
              parse_arena.msgs_per_sec / parse_single.msgs_per_sec);
  std::printf("  serialize metrics on/off: %.3fx\n", ser_onoff);
  std::printf("  parse     metrics on/off: %.3fx\n", parse_onoff);
  std::printf("  (checksum %zu)\n", checksum);

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"throughput_session\",\n"
                 "  \"workload\": \"%s\",\n"
                 "  \"per_node\": %d,\n"
                 "  \"messages\": %zu,\n"
                 "  \"repeats\": %d,\n"
                 "  \"serialize_single_msgs_per_sec\": %.0f,\n"
                 "  \"serialize_arena_msgs_per_sec\": %.0f,\n"
                 "  \"parse_single_msgs_per_sec\": %.0f,\n"
                 "  \"parse_arena_msgs_per_sec\": %.0f,\n"
                 "  \"serialize_arena_metrics_off_msgs_per_sec\": %.0f,\n"
                 "  \"parse_arena_metrics_off_msgs_per_sec\": %.0f,\n"
                 "  \"serialize_metrics_on_off_ratio\": %.4f,\n"
                 "  \"parse_metrics_on_off_ratio\": %.4f\n"
                 "}\n",
                 workload.name.c_str(), per_node, messages, repeats,
                 ser_single.msgs_per_sec, ser_arena.msgs_per_sec,
                 parse_single.msgs_per_sec, parse_arena.msgs_per_sec,
                 ser_arena_off.msgs_per_sec, parse_arena_off.msgs_per_sec,
                 ser_onoff, parse_onoff);
    std::fclose(f);
    std::printf("  wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  return 0;
}
