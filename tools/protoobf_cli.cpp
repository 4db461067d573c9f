// protoobf — command-line front end to the framework.
//
// Commands:
//   protoobf validate <spec-file>
//       Parse and validate a specification; print the graph outline.
//   protoobf graph <spec-file> [--obfuscate SEED:PER_NODE]
//       Print the (optionally obfuscated) message format graph in DOT.
//   protoobf obfuscate <spec-file> --seed N --per-node K
//       Apply transformations; print the journal and the resulting graph.
//   protoobf codegen <spec-file> --seed N --per-node K [-o out.cpp]
//       Generate the serializer/parser library; print the complexity
//       metrics of §VII-B.
//   protoobf stream <spec-file> [--seed N --per-node K] [--emit COUNT]
//       Framed-stream filter over stdin/stdout (src/stream's Channel).
//       With --emit, writes COUNT framed random messages to stdout;
//       without, reassembles frames from stdin (any chunking) and prints
//       one line per recovered message. The two ends pipe together:
//         protoobf stream p.spec --emit 20 | protoobf stream p.spec
//       --frame-width W picks the length-prefix width; --obf-frame S:K
//       obfuscates the framing layer itself (both ends must agree).
//   protoobf serve <spec-file> [--seed N --per-node K] [--port P]
//       Obfuscated echo server (src/net): accepts TCP connections, parses
//       every framed message and serializes it right back. --shards N runs
//       N event-loop threads (SO_REUSEPORT); --round-robin switches to a
//       single acceptor handing connections across shards; --idle-ms
//       closes silent connections. Prints "listening on HOST:PORT" once
//       ready. Stop with SIGINT/SIGTERM.
//   protoobf connect <spec-file> --port P --emit COUNT [--expect COUNT]
//       Client peer for serve: dials, sends COUNT framed random messages,
//       counts the echoes. --retry (alias --retry-ms) keeps dialing a
//       not-yet-listening server, backing off between refused attempts
//       (--backoff-ms picks the initial delay). Both ends must agree on
//       spec, --seed/--per-node and the framing flags (--frame-width /
//       --obf-frame).
//   protoobf soak <spec-file> [--conns N] [--emit COUNT] [--fault-seed N]
//       Self-contained reliability drill: spins up a loopback echo server
//       and N ReliableClients under a seeded transport-fault schedule
//       (short reads/writes, EAGAIN storms, scheduled resets, refused
//       dials), then verifies every client confirmed its whole message
//       window despite the chaos. --no-faults runs the same drill on a
//       clean transport (a throughput baseline). Prints the fault and
//       recovery counters; exits nonzero on any unconfirmed message.
//   protoobf top --port P [--host H] [--interval-ms N] [--once]
//       Live metrics viewer: polls /metrics.json on the admin endpoint a
//       serve/soak run exposes (--metrics-port) and redraws a per-shard
//       table of connections, traffic rates and frame-latency quantiles,
//       plus session/reconnect summary lines. --once prints a single
//       plain snapshot and exits (CI-friendly).
//   protoobf lint <spec-file> [--seed N --per-node K] [--json] [--deny]
//       Static analysis over the wire graph (src/analysis): decode
//       ambiguity, frame bounds, holder-chain integrity, stream/datagram
//       safety, DPI fingerprint bytes — as structured diagnostics with
//       node locations and fix hints. Without --per-node the identity
//       graph (the spec's own wire syntax) is linted; with --seed and
//       --per-node a specific compiled artifact is. --json emits one JSON
//       object; --deny promotes warnings to the failing exit. Exit 0 =
//       clean, 1 = gated findings, 2 = load error.
//
// Spec files use the ProtoSpec language (see README.md).
#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "analysis/analyzer.hpp"
#include "codegen/generator.hpp"
#include "core/protoobf.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/random_message.hpp"
#include "fuzz/runner.hpp"
#include "net/connector.hpp"
#include "net/fault.hpp"
#include "net/reconnect.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "obs/families.hpp"
#include "runtime/parse.hpp"
#include "stream/channel.hpp"

namespace {

using namespace protoobf;

int usage() {
  std::fprintf(
      stderr,
      "usage: protoobf <validate|lint|graph|obfuscate|codegen|stream|"
      "serve|connect|soak|fuzz|top> <spec-file> [--seed N] "
      "[--per-node K] [-o FILE]\n"
      "       lint extras: [--json] [--deny]  (identity graph by default; "
      "--per-node K lints the compiled artifact; --deny fails on warnings)\n"
      "       serve: [--no-lint]  (serve refuses artifacts with "
      "error-severity lint findings unless overridden)\n"
      "       stream extras: [--emit COUNT] [--expect COUNT] "
      "[--msg-seed N] [--frame-width W] "
      "[--obf-frame SEED:PER_NODE] [--dump]\n"
      "       fuzz extras: [--iters N] [--chunked] [--whole] "
      "[--msg-seed N]  (env: PROTOOBF_FUZZ_SEED overrides --msg-seed)\n"
      "       serve extras: [--host H] [--port P] [--shards N] "
      "[--round-robin] [--idle-ms N] [--max-conns N]  (SIGTERM drains "
      "gracefully, SIGINT stops hard)\n"
      "       connect extras: [--host H] [--port P] [--emit COUNT] "
      "[--expect COUNT] [--msg-seed N] [--retry MS] [--backoff-ms N]\n"
      "       soak extras: [--conns N] [--emit MSGS_PER_CLIENT] "
      "[--fault-seed N] [--no-faults] [--shards N] [--max-conns N] "
      "[--retry MS] [--backoff-ms N]\n"
      "       serve/soak: [--metrics-port P] [--no-metrics]  (admin HTTP "
      "endpoint: /metrics, /metrics.json, /trace; serve defaults to an "
      "ephemeral port, soak needs the flag)\n"
      "       top (no spec file): --port P [--host H] [--interval-ms N] "
      "[--once]  (poll a running admin endpoint, live table)\n");
  return 2;
}

struct Options {
  std::string command;
  std::string spec_path;
  std::uint64_t seed = 1;
  int per_node = 1;
  bool per_node_set = false;  // --per-node given explicitly (lint cares)
  std::string output;
  // lint
  bool json = false;
  bool deny = false;     // promote warnings to the failing exit
  bool no_lint = false;  // serve: skip the error-severity gate
  // stream command
  std::size_t emit = 0;         // 0 = decode mode
  std::size_t expect = 0;       // decode: fail unless exactly N recovered
  std::uint64_t msg_seed = 42;  // message randomness for --emit
  std::size_t frame_width = 4;
  bool obf_frame = false;
  std::uint64_t obf_frame_seed = 13;
  int obf_frame_per_node = 2;
  bool dump = false;
  // serve / connect
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // serve: 0 = ephemeral; connect: required
  std::size_t shards = 1;
  bool round_robin = false;
  std::size_t idle_ms = 0;
  std::size_t retry_ms = 2000;
  bool retry_set = false;       // --retry/--retry-ms given explicitly
  std::size_t backoff_ms = 20;  // initial backoff between refused dials
  std::size_t max_conns = 0;    // serve/soak: accept-pause cap (0 = none)
  // soak
  std::size_t conns = 64;
  std::uint64_t fault_seed = 42;
  bool no_faults = false;
  // fuzz
  std::size_t iters = 1000;
  bool chunked = false;  // force the chunk-split resume replay
  bool whole = false;    // force whole-message parses (no prefix replay)
  // observability (serve/soak/top)
  std::uint16_t metrics_port = 0;  // 0 = ephemeral
  bool metrics_port_set = false;
  bool no_metrics = false;  // skip the admin endpoint AND the instruments
  std::size_t interval_ms = 1000;  // top refresh period
  bool once = false;               // top: one plain snapshot, then exit
};

bool parse_args(int argc, char** argv, Options& opts) {
  if (argc < 2) return false;
  opts.command = argv[1];
  int first_flag = 2;
  // `top` talks to a running server; it takes flags only, no spec file.
  if (opts.command != "top") {
    if (argc < 3) return false;
    opts.spec_path = argv[2];
    first_flag = 3;
  }
  for (int i = first_flag; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      opts.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--per-node" && i + 1 < argc) {
      opts.per_node = std::atoi(argv[++i]);
      opts.per_node_set = true;
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--deny") {
      opts.deny = true;
    } else if (arg == "--no-lint") {
      opts.no_lint = true;
    } else if (arg == "-o" && i + 1 < argc) {
      opts.output = argv[++i];
    } else if (arg == "--emit" && i + 1 < argc) {
      opts.emit = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 0));
    } else if (arg == "--expect" && i + 1 < argc) {
      opts.expect =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 0));
    } else if (arg == "--msg-seed" && i + 1 < argc) {
      opts.msg_seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--frame-width" && i + 1 < argc) {
      opts.frame_width =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 0));
    } else if (arg == "--obf-frame" && i + 1 < argc) {
      opts.obf_frame = true;
      const std::string value = argv[++i];
      const std::size_t colon = value.find(':');
      opts.obf_frame_seed = std::strtoull(value.c_str(), nullptr, 0);
      if (colon != std::string::npos) {
        opts.obf_frame_per_node = std::atoi(value.c_str() + colon + 1);
      }
    } else if (arg == "--dump") {
      opts.dump = true;
    } else if (arg == "--host" && i + 1 < argc) {
      opts.host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      const unsigned long value = std::strtoul(argv[++i], nullptr, 0);
      if (value > 65535) {
        std::fprintf(stderr, "--port out of range: %lu\n", value);
        return false;
      }
      opts.port = static_cast<std::uint16_t>(value);
    } else if (arg == "--shards" && i + 1 < argc) {
      opts.shards = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 0));
    } else if (arg == "--round-robin") {
      opts.round_robin = true;
    } else if (arg == "--idle-ms" && i + 1 < argc) {
      opts.idle_ms = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 0));
    } else if ((arg == "--retry-ms" || arg == "--retry") && i + 1 < argc) {
      opts.retry_ms = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 0));
      opts.retry_set = true;
    } else if (arg == "--backoff-ms" && i + 1 < argc) {
      opts.backoff_ms =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 0));
    } else if (arg == "--max-conns" && i + 1 < argc) {
      opts.max_conns =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 0));
    } else if (arg == "--conns" && i + 1 < argc) {
      opts.conns =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 0));
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      opts.fault_seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--no-faults") {
      opts.no_faults = true;
    } else if (arg == "--iters" && i + 1 < argc) {
      opts.iters = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 0));
    } else if (arg == "--chunked") {
      opts.chunked = true;
    } else if (arg == "--whole") {
      opts.whole = true;
    } else if (arg == "--metrics-port" && i + 1 < argc) {
      const unsigned long value = std::strtoul(argv[++i], nullptr, 0);
      if (value > 65535) {
        std::fprintf(stderr, "--metrics-port out of range: %lu\n", value);
        return false;
      }
      opts.metrics_port = static_cast<std::uint16_t>(value);
      opts.metrics_port_set = true;
    } else if (arg == "--no-metrics") {
      opts.no_metrics = true;
    } else if (arg == "--interval-ms" && i + 1 < argc) {
      opts.interval_ms =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 0));
    } else if (arg == "--once") {
      opts.once = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

Expected<std::string> read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Unexpected("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Expected<Graph> load(const std::string& path) {
  auto text = read_text(path);
  if (!text.ok()) return Unexpected(text.error());
  return Framework::load_spec(*text);
}

// --- lint -------------------------------------------------------------------

int cmd_lint(const Options& opts) {
  auto graph = load(opts.spec_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.error().message.c_str());
    return 2;
  }
  analysis::Report report;
  if (opts.per_node_set && opts.per_node > 0) {
    ObfuscationConfig cfg;
    cfg.seed = opts.seed;
    cfg.per_node = opts.per_node;
    auto protocol = Framework::generate(*graph, cfg);
    if (!protocol.ok()) {
      std::fprintf(stderr, "error: %s\n", protocol.error().message.c_str());
      return 2;
    }
    report = analysis::analyze(*protocol);
  } else {
    // Identity: the specification's own wire syntax, before obfuscation.
    report = analysis::analyze_graph(*graph);
  }
  if (opts.json) {
    std::printf("%s\n", analysis::render_json(report).c_str());
  } else {
    std::fputs(analysis::render_text(report).c_str(), stdout);
  }
  const bool gated =
      report.errors() > 0 || (opts.deny && report.warnings() > 0);
  return gated ? 1 : 0;
}

/// The serve hard gate: error-severity lint findings refuse the
/// artifact (a wrong artifact on the wire is worse than a refused start).
/// --no-lint is the operator's escape hatch.
bool lint_gate(const ObfuscatedProtocol& protocol, const Options& opts) {
  if (opts.no_lint) return true;
  const analysis::Report report = analysis::analyze(protocol);
  if (report.clean()) return true;
  std::fputs(analysis::render_text(report).c_str(), stderr);
  std::fprintf(stderr,
               "refusing to serve this artifact: %zu error-severity lint "
               "finding(s) (--no-lint overrides)\n",
               report.errors());
  return false;
}

int cmd_validate(const Options& opts) {
  auto graph = load(opts.spec_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.error().message.c_str());
    return 1;
  }
  std::printf("protocol '%s': %zu nodes, depth %zu — OK\n\n",
              graph->protocol_name().c_str(), graph->size(), graph->depth());
  std::fputs(to_outline(*graph).c_str(), stdout);
  return 0;
}

int cmd_graph(const Options& opts) {
  auto graph = load(opts.spec_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.error().message.c_str());
    return 1;
  }
  if (opts.per_node > 0) {
    ObfuscationConfig cfg;
    cfg.seed = opts.seed;
    cfg.per_node = opts.per_node;
    auto protocol = Framework::generate(*graph, cfg);
    if (!protocol.ok()) {
      std::fprintf(stderr, "error: %s\n", protocol.error().message.c_str());
      return 1;
    }
    std::fputs(to_dot(protocol->wire_graph()).c_str(), stdout);
  } else {
    std::fputs(to_dot(*graph).c_str(), stdout);
  }
  return 0;
}

int cmd_obfuscate(const Options& opts) {
  auto graph = load(opts.spec_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.error().message.c_str());
    return 1;
  }
  ObfuscationConfig cfg;
  cfg.seed = opts.seed;
  cfg.per_node = opts.per_node;
  auto protocol = Framework::generate(*graph, cfg);
  if (!protocol.ok()) {
    std::fprintf(stderr, "error: %s\n", protocol.error().message.c_str());
    return 1;
  }
  std::printf("# %zu transformations (seed %llu, %d per node)\n",
              protocol->journal().size(),
              static_cast<unsigned long long>(opts.seed), opts.per_node);
  for (const auto& entry : protocol->journal()) {
    std::printf("%s\n", entry.describe(protocol->wire_graph()).c_str());
  }
  std::printf("\n# obfuscated message format\n%s",
              to_outline(protocol->wire_graph()).c_str());
  return 0;
}

int cmd_codegen(const Options& opts) {
  auto graph = load(opts.spec_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.error().message.c_str());
    return 1;
  }
  ObfuscationConfig cfg;
  cfg.seed = opts.seed;
  cfg.per_node = opts.per_node;
  auto protocol = Framework::generate(*graph, cfg);
  if (!protocol.ok()) {
    std::fprintf(stderr, "error: %s\n", protocol.error().message.c_str());
    return 1;
  }
  const GeneratedCode code = generate_cpp(*protocol);
  std::fprintf(stderr,
               "# %zu lines, %zu structs, call graph size %zu, depth %zu\n",
               code.metrics.lines, code.metrics.structs,
               code.metrics.callgraph_size, code.metrics.callgraph_depth);
  if (opts.output.empty()) {
    std::fputs(code.source.c_str(), stdout);
  } else {
    std::ofstream out(opts.output);
    out << code.source;
    std::fprintf(stderr, "# wrote %s\n", opts.output.c_str());
  }
  return 0;
}

// --- stream -----------------------------------------------------------------

/// Frame spec for --obf-frame; identical on both ends of a pipe by
/// construction (obfuscation is deterministic in (spec, seed, per_node)).
constexpr std::string_view kCliFrameSpec = R"(
protocol Frame
frame: seq end {
  flen: terminal fixed(4)
  fbody: terminal length(flen)
}
)";

/// Compiled obfuscated framing layer: the shared frame protocol plus the
/// framer the validation pass already built (ready for single-channel use;
/// factory-based callers mint fresh ones per connection from `protocol`).
struct CompiledFraming {
  std::shared_ptr<const ObfuscatedProtocol> protocol;
  std::unique_ptr<ObfuscatedFramer> framer;
};

/// Compiles the CLI frame spec at the agreed (seed, per_node) and
/// validates it as a framing layer (stream-safety, payload detection) —
/// shared by the stream filter and serve/connect, so the two paths cannot
/// drift. A rejected compilation names the fix: try another seed.
Expected<CompiledFraming> compile_frame_protocol(const Options& opts) {
  auto frame_graph = Framework::load_spec(kCliFrameSpec).value();
  ObfuscationConfig fcfg;
  fcfg.seed = opts.obf_frame_seed;
  fcfg.per_node = opts.obf_frame_per_node;
  auto framing = Framework::generate(frame_graph, fcfg);
  if (!framing.ok()) return Unexpected(framing.error());
  auto shared =
      std::make_shared<const ObfuscatedProtocol>(std::move(*framing));
  auto framer = ObfuscatedFramer::create(shared);
  if (!framer.ok()) {
    return Unexpected(Error{framer.error().message +
                            " (try another --obf-frame seed)"});
  }
  return CompiledFraming{std::move(shared), std::move(*framer)};
}

int cmd_stream(const Options& opts) {
  auto graph = load(opts.spec_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.error().message.c_str());
    return 1;
  }
  ObfuscationConfig cfg;
  cfg.seed = opts.seed;
  cfg.per_node = opts.per_node;
  auto compiled = Framework::generate(*graph, cfg);
  if (!compiled.ok()) {
    std::fprintf(stderr, "error: %s\n", compiled.error().message.c_str());
    return 1;
  }
  auto protocol =
      std::make_shared<const ObfuscatedProtocol>(std::move(*compiled));

  // Framing layer: transparent length prefix, or the obfuscated frame spec
  // when both ends agreed on --obf-frame SEED:PER_NODE.
  LengthPrefixFramer::Config lp;
  lp.width = opts.frame_width;
  LengthPrefixFramer plain_framer(lp);
  std::unique_ptr<ObfuscatedFramer> obf_framer;
  if (opts.obf_frame) {
    auto framing = compile_frame_protocol(opts);
    if (!framing.ok()) {
      std::fprintf(stderr, "error: %s\n", framing.error().message.c_str());
      return 1;
    }
    obf_framer = std::move(framing->framer);
  }
  Framer& framer =
      obf_framer != nullptr ? static_cast<Framer&>(*obf_framer) : plain_framer;

  Session session(protocol);
  Channel channel(session, framer);

  if (opts.emit > 0) {
    // Emit mode: framed random messages to stdout, summary to stderr.
    Rng rng(opts.msg_seed);
    std::size_t sent = 0;
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < opts.emit; ++i) {
      InstPtr msg = fuzz::random_message(*graph, rng);
      auto framed = channel.send(*msg, opts.msg_seed + i);
      if (!framed.ok()) {
        std::fprintf(stderr, "message %zu rejected: %s\n", i,
                     framed.error().message.c_str());
        continue;
      }
      std::fwrite(framed->data(), 1, framed->size(), stdout);
      ++sent;
      bytes += framed->size();
    }
    std::fflush(stdout);
    std::fprintf(stderr, "emitted %zu/%zu messages, %zu bytes\n", sent,
                 opts.emit, bytes);
    // Rejected draws are skipped by contract; only a fully dry run fails.
    return sent > 0 ? 0 : 1;
  }

  // Decode mode: reassemble whatever chunking stdin delivers.
  std::size_t received = 0;
  char chunk[4096];
  for (;;) {
    const std::size_t n = std::fread(chunk, 1, sizeof chunk, stdin);
    if (n == 0) break;
    channel.on_bytes(
        BytesView(reinterpret_cast<const Byte*>(chunk), n));
    while (auto message = channel.receive()) {
      if (!message->ok()) {
        std::fprintf(stderr, "message %zu parse error: %s\n", received,
                     (*message).error().message.c_str());
        return 1;
      }
      if (opts.dump) {
        std::fputs(ast::dump(*graph, ***message).c_str(), stdout);
      } else {
        std::printf("message %zu: %zu instances\n", received,
                    ast::count(***message));
      }
      ++received;
    }
    if (channel.failed()) {
      std::fprintf(stderr, "framing error: %s\n",
                   channel.error().message.c_str());
      return 1;
    }
  }
  if (std::ferror(stdin)) {
    std::fprintf(stderr, "read error on stdin after %zu messages\n",
                 received);
    return 1;
  }
  if (channel.reader().buffered() > 0) {
    std::fprintf(stderr, "stream ended mid-frame (%zu bytes buffered, %zu "
                 "more needed)\n",
                 channel.reader().buffered(), channel.need_bytes());
    return 1;
  }
  std::printf("recovered %zu messages\n", received);
  if (opts.expect > 0 && received != opts.expect) {
    std::fprintf(stderr, "expected %zu messages, recovered %zu\n",
                 opts.expect, received);
    return 1;
  }
  return 0;
}

// --- serve / connect --------------------------------------------------------

/// Compiles the message protocol both net commands run over.
Expected<std::shared_ptr<const ObfuscatedProtocol>> compile_protocol(
    const Options& opts) {
  auto graph = load(opts.spec_path);
  if (!graph.ok()) return Unexpected(graph.error());
  ObfuscationConfig cfg;
  cfg.seed = opts.seed;
  cfg.per_node = opts.per_node;
  auto compiled = Framework::generate(*graph, cfg);
  if (!compiled.ok()) return Unexpected(compiled.error());
  return std::make_shared<const ObfuscatedProtocol>(std::move(*compiled));
}

/// The framing layer serve/connect share with the stream filter: a
/// transparent length prefix, or the obfuscated CLI frame spec when both
/// ends agreed on --obf-frame SEED:PER_NODE.
Expected<net::FramerFactory> framer_factory_of(const Options& opts) {
  if (!opts.obf_frame) {
    LengthPrefixFramer::Config lp;
    lp.width = opts.frame_width;
    return net::length_prefix_framer_factory(lp);
  }
  auto framing = compile_frame_protocol(opts);
  if (!framing.ok()) return Unexpected(framing.error());
  return net::obfuscated_framer_factory(std::move(framing->protocol));
}

std::atomic<int> g_stop_signal{0};

void stop_signal(int sig) { g_stop_signal.store(sig); }

/// Starts the admin exposition endpoint for serve/soak. Returns nullptr
/// (with a stderr note) when the port is busy — metrics stay on, only the
/// scrape surface is missing, so the serving command keeps going.
std::unique_ptr<obs::AdminServer> start_admin(std::uint16_t port) {
  obs::AdminServer::Config cfg;
  cfg.endpoint = {"127.0.0.1", port};
  auto admin = std::make_unique<obs::AdminServer>(cfg);
  if (Status s = admin->start(); !s) {
    std::fprintf(stderr, "metrics endpoint disabled: %s\n",
                 s.error().message.c_str());
    return nullptr;
  }
  std::printf("metrics on http://127.0.0.1:%u/metrics "
              "(also /metrics.json, /trace)\n",
              admin->port());
  std::fflush(stdout);
  return admin;
}

int cmd_serve(const Options& opts) {
  if (opts.no_metrics) obs::set_enabled(false);
  auto protocol = compile_protocol(opts);
  if (!protocol.ok()) {
    std::fprintf(stderr, "error: %s\n", protocol.error().message.c_str());
    return 1;
  }
  if (!lint_gate(**protocol, opts)) return 1;
  auto factory = framer_factory_of(opts);
  if (!factory.ok()) {
    std::fprintf(stderr, "error: %s\n", factory.error().message.c_str());
    return 1;
  }

  net::Server::Config cfg;
  cfg.endpoint = {opts.host, opts.port};
  cfg.shards = opts.shards > 0 ? opts.shards : 1;
  cfg.reuse_port = !opts.round_robin;
  cfg.connection.idle_timeout = std::chrono::milliseconds(opts.idle_ms);
  cfg.max_connections = opts.max_conns;
  // The drain path doubles as the operator's shutdown report: a final
  // registry snapshot on stderr once the last connection is gone.
  cfg.log_drain_snapshot = !opts.no_metrics;

  net::Server server(*protocol, *factory, cfg);
  server.on_accept([](net::Connection& conn) {
    conn.on_message([](net::Connection& c, Expected<InstPtr> msg) {
      if (!msg.ok()) {
        std::fprintf(stderr, "fd %d: message rejected: %s\n", c.fd(),
                     msg.error().message.c_str());
        return;
      }
      // Echo with a per-connection deterministic seed so a peer (or a
      // test) can reproduce the exact bytes with a session replica.
      if (Status s = c.send(**msg, c.stats().messages_in); !s) {
        std::fprintf(stderr, "fd %d: echo failed: %s\n", c.fd(),
                     s.error().message.c_str());
        return;
      }
      // Backpressure: a peer that keeps sending but never drains its
      // echoes would grow the write queue without bound. Stop reading and
      // flush what is queued — close() caps the queue at the watermark.
      if (!c.writable()) {
        std::fprintf(stderr,
                     "fd %d: peer not draining (%zu bytes queued), "
                     "closing\n",
                     c.fd(), c.queued());
        c.close();
      }
    });
    conn.on_close([](net::Connection& c, const Error* err) {
      std::fprintf(stderr,
                   "connection closed: %llu in / %llu out msgs%s%s\n",
                   static_cast<unsigned long long>(c.stats().messages_in),
                   static_cast<unsigned long long>(c.stats().messages_out),
                   err != nullptr ? ", error: " : "",
                   err != nullptr ? err->message.c_str() : "");
    });
  });
  if (Status s = server.start(); !s) {
    std::fprintf(stderr, "error: %s\n", s.error().message.c_str());
    return 1;
  }
  std::printf("listening on %s:%u (%zu shard%s, %s, %s framing)\n",
              opts.host.c_str(), server.port(), server.shard_count(),
              server.shard_count() == 1 ? "" : "s",
              opts.round_robin ? "round-robin" : "SO_REUSEPORT",
              opts.obf_frame ? "obfuscated" : "length-prefix");
  std::fflush(stdout);
  std::unique_ptr<obs::AdminServer> admin;
  if (!opts.no_metrics) admin = start_admin(opts.metrics_port);

  std::signal(SIGINT, stop_signal);
  std::signal(SIGTERM, stop_signal);
  while (g_stop_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Snapshot before shutdown: drain()/stop() retire the shards (and their
  // counters) on the way out.
  const net::Server::Stats stats = server.stats();
  // SIGTERM is the orchestrator's "finish what you started": close the
  // listeners, flush every write queue, then leave. SIGINT stops hard.
  if (g_stop_signal.load() == SIGTERM) {
    std::fprintf(stderr, "SIGTERM: draining connections...\n");
    server.drain(std::chrono::milliseconds(5000));
  }
  server.stop();
  std::fprintf(stderr, "served %llu connections (%llu rejected, %llu shed)\n",
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.rejected),
               static_cast<unsigned long long>(stats.shed));
  return 0;
}

int cmd_connect(const Options& opts) {
  if (opts.port == 0) {
    std::fprintf(stderr, "error: connect requires --port\n");
    return 2;
  }
  const std::size_t emit = opts.emit > 0 ? opts.emit : 16;
  auto protocol = compile_protocol(opts);
  if (!protocol.ok()) {
    std::fprintf(stderr, "error: %s\n", protocol.error().message.c_str());
    return 1;
  }
  // The G1 view the random messages are built against — taken from the
  // compiled protocol so it cannot diverge from what serialization uses.
  const Graph& graph = (*protocol)->original();
  auto factory = framer_factory_of(opts);
  if (!factory.ok()) {
    std::fprintf(stderr, "error: %s\n", factory.error().message.c_str());
    return 1;
  }

  // Dial with retries: the smoke tests race this against a server that is
  // still binding its port. Connector::dial absorbs the ECONNREFUSED
  // window itself, backing off with full jitter between attempts.
  net::EventLoop loop;
  const net::Endpoint ep{opts.host, opts.port};
  auto framer = (*factory)();
  if (!framer.ok()) {
    std::fprintf(stderr, "error: %s\n", framer.error().message.c_str());
    return 1;
  }
  net::BackoffPolicy backoff;
  backoff.initial = std::chrono::milliseconds(opts.backoff_ms);
  if (backoff.initial > backoff.cap) backoff.cap = backoff.initial;
  auto dialed = net::Connector::dial(loop, ep, *protocol, std::move(*framer),
                                     {}, std::chrono::milliseconds(opts.retry_ms),
                                     backoff);
  if (!dialed.ok()) {
    std::fprintf(stderr, "error: %s\n", dialed.error().message.c_str());
    return 1;
  }
  std::unique_ptr<net::Connection> conn = std::move(*dialed);

  std::size_t echoed = 0;
  std::size_t parse_errors = 0;
  bool closed = false;
  std::string close_error;
  conn->on_message([&](net::Connection&, Expected<InstPtr> msg) {
    if (!msg.ok()) {
      ++parse_errors;
      std::fprintf(stderr, "echo %zu parse error: %s\n", echoed,
                   msg.error().message.c_str());
      return;
    }
    if (opts.dump) std::fputs(ast::dump(graph, **msg).c_str(), stdout);
    ++echoed;
  });
  conn->on_close([&](net::Connection&, const Error* err) {
    closed = true;
    if (err != nullptr) close_error = err->message;
  });
  if (Status s = conn->open(); !s) {
    std::fprintf(stderr, "error: %s\n", s.error().message.c_str());
    return 1;
  }

  // Emit the batch up front (the loop is not running yet, so sends are
  // race-free; overflow queues drain through EPOLLOUT below).
  Rng rng(opts.msg_seed);
  std::size_t sent = 0;
  for (std::size_t i = 0; i < emit; ++i) {
    InstPtr msg = fuzz::random_message(graph, rng);
    if (Status s = conn->send(*msg, opts.msg_seed + i); !s) {
      std::fprintf(stderr, "message %zu rejected: %s\n", i,
                   s.error().message.c_str());
      continue;
    }
    ++sent;
  }

  const auto echo_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (echoed + parse_errors < sent && !closed &&
         std::chrono::steady_clock::now() < echo_deadline) {
    loop.run_once(50);
  }
  if (!closed) conn->close();
  for (int i = 0; i < 4 && !closed; ++i) loop.run_once(10);

  std::printf("echoed %zu/%zu messages\n", echoed, sent);
  if (!close_error.empty()) {
    std::fprintf(stderr, "connection error: %s\n", close_error.c_str());
    return 1;
  }
  if (parse_errors > 0) return 1;
  if (opts.expect > 0 && echoed != opts.expect) {
    std::fprintf(stderr, "expected %zu echoes, got %zu\n", opts.expect,
                 echoed);
    return 1;
  }
  return echoed == sent && sent > 0 ? 0 : 1;
}

// --- soak -------------------------------------------------------------------

/// Per-client soak bookkeeping. `confirmed` is loop-thread-only; the
/// atomics are what the polling main thread reads.
struct SoakClient {
  std::unique_ptr<net::ReliableClient> client;
  std::uint64_t confirmed = 0;  // echoes seen -> next cumulative ack
  std::atomic<std::uint64_t> acked{0};
  std::atomic<bool> gave_up{false};
};

/// In-process reliability drill: a sharded loopback echo server and
/// --conns ReliableClients exchange --emit messages each while a seeded
/// FaultInjector on both sides of the wire shortens reads, storms EAGAIN,
/// refuses dials and kills connections at scheduled byte offsets. Every
/// echo confirms the client's oldest outstanding message (cumulative ack,
/// like TCP); success means every client confirmed its whole window — the
/// at-least-once resend queue rode through every injected kill. The
/// rigorous zero-loss/zero-duplication proof lives in tests/soak_test.cpp;
/// this command is the operator-facing drill and throughput probe.
int cmd_soak(const Options& opts) {
  if (opts.no_metrics) obs::set_enabled(false);
  const std::size_t conns = opts.conns > 0 ? opts.conns : 1;
  const std::uint64_t msgs = opts.emit > 0 ? opts.emit : 16;
  const bool faults = !opts.no_faults;

  auto protocol = compile_protocol(opts);
  if (!protocol.ok()) {
    std::fprintf(stderr, "error: %s\n", protocol.error().message.c_str());
    return 1;
  }
  const Graph& graph = (*protocol)->original();
  auto factory = framer_factory_of(opts);
  if (!factory.ok()) {
    std::fprintf(stderr, "error: %s\n", factory.error().message.c_str());
    return 1;
  }

  net::FaultPlan plan;
  plan.seed = opts.fault_seed;
  if (faults) {
    plan.short_read = 0.2;
    plan.short_write = 0.2;
    plan.eagain = 0.1;
    plan.kill_rate = 0.3;
    plan.kill_window_bytes = 2048;
    plan.refuse_every = 5;
  }
  net::FaultInjector server_faults(plan);
  net::FaultPlan client_plan = plan;
  client_plan.seed = plan.seed ^ 0x9e3779b97f4a7c15ull;
  net::FaultInjector client_faults(client_plan);
  std::printf("soak: %zu clients x %llu messages, fault seed %llu%s\n", conns,
              static_cast<unsigned long long>(msgs),
              static_cast<unsigned long long>(opts.fault_seed),
              faults ? "" : " (faults off)");

  net::Server::Config scfg;
  scfg.endpoint = {"127.0.0.1", 0};
  scfg.shards = opts.shards > 0 ? opts.shards : 1;
  scfg.max_connections =
      opts.max_conns > 0 ? opts.max_conns : conns + 64;
  scfg.connection.drain_timeout = std::chrono::milliseconds(2000);
  if (faults) scfg.connection.ops = &server_faults;
  std::atomic<std::uint64_t> server_msgs{0};
  net::Server server(*protocol, *factory, scfg);
  server.on_accept([&](net::Connection& conn) {
    conn.on_message([&](net::Connection& c, Expected<InstPtr> msg) {
      if (!msg.ok()) return;  // per-message parse error: stream continues
      server_msgs.fetch_add(1);
      (void)c.send(**msg, c.stats().messages_in);
    });
  });
  if (Status s = server.start(); !s) {
    std::fprintf(stderr, "error: %s\n", s.error().message.c_str());
    return 1;
  }
  // soak only exposes the scrape endpoint when asked: the drill is a batch
  // run, but --metrics-port lets `protoobf top` watch the chaos live.
  std::unique_ptr<obs::AdminServer> admin;
  if (opts.metrics_port_set && !opts.no_metrics) {
    admin = start_admin(opts.metrics_port);
  }

  const std::size_t n_loops = conns < 4 ? conns : 4;
  std::vector<std::unique_ptr<net::EventLoop>> loops;
  for (std::size_t i = 0; i < n_loops; ++i) {
    loops.push_back(std::make_unique<net::EventLoop>());
  }
  std::vector<SoakClient> clients(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    net::ReliableClient::Config ccfg;
    ccfg.endpoint = {"127.0.0.1", server.port()};
    ccfg.framer_factory = *factory;
    if (faults) ccfg.connection.ops = &client_faults;
    ccfg.backoff.initial = std::chrono::milliseconds(
        opts.backoff_ms > 0 ? opts.backoff_ms : 5);
    if (ccfg.backoff.initial > ccfg.backoff.cap) {
      ccfg.backoff.cap = ccfg.backoff.initial;
    }
    // --retry bounds how long a client keeps re-dialing (0 = forever).
    if (opts.retry_set) {
      ccfg.lifetime = std::chrono::milliseconds(opts.retry_ms);
    }
    ccfg.max_unacked = msgs;
    ccfg.seed = opts.fault_seed + i;
    SoakClient& state = clients[i];
    state.client = std::make_unique<net::ReliableClient>(
        *loops[i % n_loops], *protocol, ccfg);
    state.client->on_message([&state](Expected<InstPtr> msg) {
      if (!msg.ok()) return;
      state.client->ack(++state.confirmed);
      state.acked.store(state.client->stats().acked);
    });
    state.client->on_gave_up(
        [&state](const Error&) { state.gave_up.store(true); });
  }

  std::vector<std::thread> threads;
  for (auto& loop : loops) {
    threads.emplace_back([&loop] { loop->run(); });
  }
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < conns; ++i) {
    SoakClient& state = clients[i];
    loops[i % n_loops]->post([&state, &graph, seed = opts.msg_seed + i, msgs] {
      state.client->start();
      Rng rng(seed);
      for (std::uint64_t m = 0; m < msgs; ++m) {
        InstPtr msg = fuzz::random_message(graph, rng);
        (void)state.client->send(*msg);
      }
    });
  }

  const auto deadline =
      started + std::chrono::milliseconds(30000 + 25 * conns);
  auto done = [&] {
    for (const SoakClient& state : clients) {
      if (state.gave_up.load()) return true;  // fail fast below
      if (state.acked.load() < msgs) return false;
    }
    return true;
  };
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();

  std::size_t complete = 0;
  std::uint64_t gave_up = 0;
  // Recovery counters live on the loop threads; read them there too.
  std::atomic<std::uint64_t> dials{0};
  std::atomic<std::uint64_t> reconnects{0};
  std::atomic<std::uint64_t> resent{0};
  std::atomic<std::size_t> stopped{0};
  for (std::size_t i = 0; i < conns; ++i) {
    SoakClient& state = clients[i];
    if (state.gave_up.load()) ++gave_up;
    if (state.acked.load() >= msgs) ++complete;
    loops[i % n_loops]->post([&state, &stopped, &dials, &reconnects,
                              &resent] {
      const net::ReliableClient::Stats& cs = state.client->stats();
      dials.fetch_add(cs.dials);
      reconnects.fetch_add(cs.reconnects);
      resent.fetch_add(cs.resent);
      state.client->stop();
      stopped.fetch_add(1);
    });
  }
  const auto stop_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stopped.load() < conns &&
         std::chrono::steady_clock::now() < stop_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server.drain(std::chrono::milliseconds(5000));
  for (auto& loop : loops) loop->stop();
  for (auto& thread : threads) thread.join();
  clients.clear();  // after their loops stopped

  std::printf(
      "soak: %zu/%zu clients confirmed %llu msgs in %.0f ms "
      "(%llu gave up)\n",
      complete, conns, static_cast<unsigned long long>(msgs), elapsed_ms,
      static_cast<unsigned long long>(gave_up));
  std::printf(
      "recovery: %llu dials, %llu reconnects, %llu resends, "
      "%llu server receipts\n",
      static_cast<unsigned long long>(dials.load()),
      static_cast<unsigned long long>(reconnects.load()),
      static_cast<unsigned long long>(resent.load()),
      static_cast<unsigned long long>(server_msgs.load()));
  if (faults) {
    const net::FaultInjector::Stats sf = server_faults.stats();
    const net::FaultInjector::Stats cf = client_faults.stats();
    std::printf(
        "faults: %llu kills, %llu short reads, %llu short writes, "
        "%llu EAGAIN, %llu dials refused\n",
        static_cast<unsigned long long>(server_faults.kills() +
                                        client_faults.kills()),
        static_cast<unsigned long long>(sf.short_reads + cf.short_reads),
        static_cast<unsigned long long>(sf.short_writes + cf.short_writes),
        static_cast<unsigned long long>(sf.eagains + cf.eagains),
        static_cast<unsigned long long>(cf.refused));
  }
  if (!opts.no_metrics) {
    const obs::Histogram::Snapshot parse =
        obs::SessionMetrics::get().parse_ns.snapshot();
    const obs::Histogram::Snapshot serialize =
        obs::SessionMetrics::get().serialize_ns.snapshot();
    std::printf(
        "latency (1/64 sampled): parse p50=%.1fus p95=%.1fus p99=%.1fus, "
        "serialize p50=%.1fus p95=%.1fus p99=%.1fus\n",
        parse.p50 / 1e3, parse.p95 / 1e3, parse.p99 / 1e3,
        serialize.p50 / 1e3, serialize.p95 / 1e3, serialize.p99 / 1e3);
  }
  return complete == conns ? 0 : 1;
}

// --- top --------------------------------------------------------------------

/// One blocking HTTP/1.0 GET against the admin endpoint. Deliberately
/// plain BSD sockets: `top` is the observer and must not depend on the
/// event-loop machinery it is observing.
Expected<std::string> http_get(const std::string& host, std::uint16_t port,
                               const std::string& path) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (const int rc =
          ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
      rc != 0) {
    return Unexpected("resolve " + host + ": " + ::gai_strerror(rc));
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    return Unexpected("connect " + host + ":" + service + ": " +
                      std::strerror(errno));
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  for (std::size_t off = 0; off < request.size();) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return Unexpected("send: " + std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Unexpected("recv: " + std::string(std::strerror(errno)));
    }
    if (n == 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Unexpected("malformed HTTP response");
  }
  const std::string status_line = response.substr(0, response.find("\r\n"));
  if (status_line.find(" 200 ") == std::string::npos) {
    return Unexpected("HTTP error: " + status_line);
  }
  return response.substr(header_end + 4);
}

/// Quantile summary of one histogram series in the snapshot.
struct HistRow {
  double count = 0, sum = 0, max = 0, mean = 0, p50 = 0, p95 = 0, p99 = 0;
};

/// The flat shape /metrics.json serves (see MetricsRegistry::
/// json_snapshot). Keys are full Prometheus series names.
struct FlatSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistRow> hists;
};

/// Minimal scanner for the snapshot's fixed two-level shape — objects of
/// numbers, one extra nesting level under "histograms", string keys with
/// backslash escapes. Not a general JSON parser and not meant to be one.
class SnapshotParser {
 public:
  explicit SnapshotParser(const std::string& text) : s_(text) {}

  bool parse(FlatSnapshot& out) {
    if (!consume('{')) return false;
    if (consume('}')) return true;
    do {
      std::string section;
      if (!string(section) || !consume(':')) return false;
      if (section == "histograms") {
        if (!hist_section(out)) return false;
      } else if (!number_section(section == "counters" ? out.counters
                                                       : out.gauges)) {
        return false;
      }
    } while (consume(','));
    return consume('}');
  }

 private:
  char peek() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
    return i_ < s_.size() ? s_[i_] : '\0';
  }
  bool consume(char c) {
    if (peek() != c) return false;
    ++i_;
    return true;
  }

  bool string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (i_ >= s_.size()) return false;
      const char esc = s_[i_++];
      switch (esc) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'u': i_ += 4; out.push_back('?'); break;
        default: out.push_back(esc); break;  // \" \\ \/ pass through
      }
    }
    return false;
  }

  bool number(double& out) {
    peek();  // position past whitespace
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    out = std::strtod(begin, &end);
    if (end == begin) return false;
    i_ += static_cast<std::size_t>(end - begin);
    return true;
  }

  bool number_section(std::map<std::string, double>& out) {
    if (!consume('{')) return false;
    if (consume('}')) return true;
    do {
      std::string key;
      double value = 0;
      if (!string(key) || !consume(':') || !number(value)) return false;
      out[key] = value;
    } while (consume(','));
    return consume('}');
  }

  bool hist_section(FlatSnapshot& out) {
    if (!consume('{')) return false;
    if (consume('}')) return true;
    do {
      std::string key;
      if (!string(key) || !consume(':')) return false;
      std::map<std::string, double> fields;
      if (!number_section(fields)) return false;
      HistRow row;
      row.count = fields["count"];
      row.sum = fields["sum"];
      row.max = fields["max"];
      row.mean = fields["mean"];
      row.p50 = fields["p50"];
      row.p95 = fields["p95"];
      row.p99 = fields["p99"];
      out.hists[key] = row;
    } while (consume(','));
    return consume('}');
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

double value_or(const std::map<std::string, double>& m,
                const std::string& key) {
  const auto it = m.find(key);
  return it != m.end() ? it->second : 0.0;
}

std::string shard_series(const char* name, const std::string& shard) {
  return std::string(name) + "{shard=\"" + shard + "\"}";
}

void render_top(const Options& opts, const FlatSnapshot& snap,
                const FlatSnapshot* prev, double dt,
                std::uint64_t poll) {
  std::string out;
  char line[512];
  const auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof line, fmt, args...);
    out += line;
  };
  if (!opts.once) out += "\x1b[H\x1b[2J";  // home + clear for the redraw
  emit("protoobf top - %s:%u  poll #%llu  (refresh %.1fs, q: Ctrl-C)\n\n",
       opts.host.c_str(), opts.port,
       static_cast<unsigned long long>(poll),
       static_cast<double>(opts.interval_ms) / 1000.0);

  // Shard rows come from the label sets actually registered: numeric
  // server shards first, then the client-side bundle.
  std::vector<std::string> shards;
  const std::string probe =
      "protoobf_net_connections_accepted_total{shard=\"";
  for (const auto& [key, value] : snap.counters) {
    if (key.rfind(probe, 0) != 0) continue;
    const std::size_t end = key.find('"', probe.size());
    if (end == std::string::npos) continue;
    shards.push_back(key.substr(probe.size(), end - probe.size()));
  }
  const auto rank = [](const std::string& s) {
    const bool numeric =
        !s.empty() && std::isdigit(static_cast<unsigned char>(s[0]));
    return std::make_pair(numeric ? 0 : 1,
                          numeric ? std::atol(s.c_str()) : 0L);
  };
  std::sort(shards.begin(), shards.end(),
            [&](const std::string& a, const std::string& b) {
              return rank(a) < rank(b);
            });

  emit("%-7s %7s %9s %8s %6s %11s %11s %9s %13s %13s %11s\n", "SHARD",
       "ACTIVE", "ACCEPTED", "CLOSED", "SHED", "MSGS_IN", "MSGS_OUT",
       "MSG/S", "BYTES_IN", "BYTES_OUT", "FRAME_P95");
  double total_active = 0, total_msgs_in = 0, total_rate = 0;
  for (const std::string& shard : shards) {
    const double msgs_in = value_or(
        snap.counters, shard_series("protoobf_net_messages_in_total", shard));
    double rate = 0;
    if (prev != nullptr && dt > 0) {
      rate = (msgs_in -
              value_or(prev->counters,
                       shard_series("protoobf_net_messages_in_total", shard))) /
             dt;
    }
    const double active = value_or(
        snap.gauges, shard_series("protoobf_net_connections_active", shard));
    const auto frame =
        snap.hists.find(shard_series("protoobf_net_frame_ns", shard));
    const double p95_us =
        frame != snap.hists.end() ? frame->second.p95 / 1e3 : 0.0;
    emit("%-7s %7.0f %9.0f %8.0f %6.0f %11.0f %11.0f %9.1f %13.0f %13.0f "
         "%9.0fus\n",
         shard.c_str(), active,
         value_or(snap.counters,
                  shard_series("protoobf_net_connections_accepted_total",
                               shard)),
         value_or(snap.counters,
                  shard_series("protoobf_net_connections_closed_total",
                               shard)),
         value_or(snap.counters,
                  shard_series("protoobf_net_connections_shed_total", shard)),
         msgs_in,
         value_or(snap.counters,
                  shard_series("protoobf_net_messages_out_total", shard)),
         rate,
         value_or(snap.counters,
                  shard_series("protoobf_net_bytes_in_total", shard)),
         value_or(snap.counters,
                  shard_series("protoobf_net_bytes_out_total", shard)),
         p95_us);
    total_active += active;
    total_msgs_in += msgs_in;
    total_rate += rate;
  }
  emit("%-7s %7.0f %9s %8s %6s %11.0f %11s %9.1f\n\n", "TOTAL", total_active,
       "", "", "", total_msgs_in, "", total_rate);

  const auto hist = [&](const char* name) {
    const auto it = snap.hists.find(name);
    return it != snap.hists.end() ? it->second : HistRow{};
  };
  const HistRow serialize = hist("protoobf_session_serialize_ns");
  const HistRow parse = hist("protoobf_session_parse_ns");
  emit("session    serialized %.0f (p50 %.1fus p99 %.1fus)  parsed %.0f "
       "(p50 %.1fus p99 %.1fus)\n",
       value_or(snap.counters, "protoobf_session_serialized_total"),
       serialize.p50 / 1e3, serialize.p99 / 1e3,
       value_or(snap.counters, "protoobf_session_parsed_total"),
       parse.p50 / 1e3, parse.p99 / 1e3);
  emit("reconnect  sent %.0f  resent %.0f  acked %.0f  dials %.0f  "
       "reconnects %.0f  unacked %.0f\n",
       value_or(snap.counters, "protoobf_reconnect_sent_total"),
       value_or(snap.counters, "protoobf_reconnect_resent_total"),
       value_or(snap.counters, "protoobf_reconnect_acked_total"),
       value_or(snap.counters, "protoobf_reconnect_dials_total"),
       value_or(snap.counters, "protoobf_reconnect_reconnects_total"),
       value_or(snap.gauges, "protoobf_reconnect_unacked"));
  double faults = 0;
  for (const auto& [key, value] : snap.counters) {
    if (key.rfind("protoobf_fault_injected_total{", 0) == 0) faults += value;
  }
  emit("resume     attempts %.0f  resumed %.0f  suspensions %.0f  "
       "scanned %.0fB   faults injected %.0f\n",
       value_or(snap.counters, "protoobf_resume_attempts_total"),
       value_or(snap.counters, "protoobf_resume_resumed_total"),
       value_or(snap.counters, "protoobf_resume_suspensions_total"),
       value_or(snap.counters, "protoobf_resume_scanned_bytes_total"),
       faults);
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fflush(stdout);
}

int cmd_top(const Options& opts) {
  if (opts.port == 0) {
    std::fprintf(stderr,
                 "error: top requires --port (the metrics endpoint a "
                 "running serve/soak printed)\n");
    return 2;
  }
  std::signal(SIGINT, stop_signal);
  std::signal(SIGTERM, stop_signal);
  const auto interval = std::chrono::milliseconds(
      opts.interval_ms > 0 ? opts.interval_ms : 1000);

  FlatSnapshot prev;
  bool have_prev = false;
  std::uint64_t prev_ns = 0;
  std::uint64_t polls = 0;
  while (g_stop_signal.load() == 0) {
    auto body = http_get(opts.host, opts.port, "/metrics.json");
    if (!body.ok()) {
      std::fprintf(stderr, "error: %s\n", body.error().message.c_str());
      return 1;
    }
    FlatSnapshot snap;
    if (!SnapshotParser(*body).parse(snap)) {
      std::fprintf(stderr, "error: malformed /metrics.json snapshot\n");
      return 1;
    }
    const std::uint64_t now = obs::now_ns();
    ++polls;
    render_top(opts, snap, have_prev ? &prev : nullptr,
               static_cast<double>(now - prev_ns) / 1e9, polls);
    if (opts.once) return 0;
    prev = std::move(snap);
    have_prev = true;
    prev_ns = now;
    for (auto waited = std::chrono::milliseconds(0);
         waited < interval && g_stop_signal.load() == 0;
         waited += std::chrono::milliseconds(50)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return 0;
}

int cmd_fuzz(const Options& opts) {
  auto graph = load(opts.spec_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.error().message.c_str());
    return 1;
  }
  ObfuscationConfig cfg;
  cfg.seed = opts.seed;
  cfg.per_node = opts.per_node;
  auto compiled = Framework::generate(*graph, cfg);
  if (!compiled.ok()) {
    std::fprintf(stderr, "error: %s\n", compiled.error().message.c_str());
    return 1;
  }

  // Campaign RNG: --msg-seed, overridable by PROTOOBF_FUZZ_SEED (the same
  // env the test suites honor, so a CI failure line reproduces here too).
  std::uint64_t rng_seed = opts.msg_seed;
  if (const char* env = std::getenv("PROTOOBF_FUZZ_SEED");
      env != nullptr && *env != '\0') {
    rng_seed = std::strtoull(env, nullptr, 0);
  }

  auto mutator = fuzz::WireMutator::create(*compiled, rng_seed);
  if (!mutator.ok()) {
    std::fprintf(stderr, "error: %s\n", mutator.error().message.c_str());
    return 1;
  }

  const bool prefix_capable = stream_safe(compiled->wire_graph()).ok();
  if (opts.chunked && !prefix_capable) {
    std::fprintf(stderr,
                 "error: --chunked needs a stream-safe wire format and "
                 "this compilation is not (try --whole)\n");
    return 1;
  }
  fuzz::FuzzRunner::Config run_cfg;
  run_cfg.whole_message = opts.whole || !prefix_capable;
  fuzz::FuzzRunner runner(*compiled, run_cfg);

  // Campaign header carries the static analyzer's verdict, so a crasher
  // found today records whether the spec was lint-clean when it was found
  // (the static/dynamic cross-oracle's paper trail).
  std::printf("lint: %s\n", analysis::summary(runner.lint()).c_str());

  Rng chunks(rng_seed ^ 0xC4A7);
  for (std::size_t i = 0; i < opts.iters; ++i) {
    const fuzz::Mutant m = mutator->next();
    const std::string violation = runner.check(m.wire, chunks);
    if (!violation.empty()) {
      std::fprintf(stderr,
                   "VIOLATION at iter %zu (strategy %s): %s\n%s"
                   "reproduce with PROTOOBF_FUZZ_SEED=%llu\n",
                   i, m.strategy, violation.c_str(),
                   hexdump(m.wire).c_str(),
                   static_cast<unsigned long long>(rng_seed));
      return 1;
    }
  }

  const fuzz::FuzzRunner::Totals& t = runner.totals();
  std::printf(
      "fuzzed %llu inputs (%s): %llu parsed, %llu truncated, %llu "
      "malformed, 0 violations\n",
      static_cast<unsigned long long>(t.inputs),
      run_cfg.whole_message ? "whole-message" : "chunk-split resumed",
      static_cast<unsigned long long>(t.parsed),
      static_cast<unsigned long long>(t.truncated),
      static_cast<unsigned long long>(t.malformed));
  if (!run_cfg.whole_message) {
    std::printf("resume: %llu attempts, %llu resumed, %llu suspensions\n",
                static_cast<unsigned long long>(runner.resume_stats().attempts),
                static_cast<unsigned long long>(runner.resume_stats().resumed),
                static_cast<unsigned long long>(
                    runner.resume_stats().suspensions));
  }
  std::printf("pool: %zu slabs, %zu live (rng seed %llu)\n",
              runner.arena().workspace().nodes.stats().slabs,
              runner.arena().workspace().nodes.stats().live,
              static_cast<unsigned long long>(rng_seed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return usage();
  if (opts.command == "validate") return cmd_validate(opts);
  if (opts.command == "lint") return cmd_lint(opts);
  if (opts.command == "graph") return cmd_graph(opts);
  if (opts.command == "obfuscate") return cmd_obfuscate(opts);
  if (opts.command == "codegen") return cmd_codegen(opts);
  if (opts.command == "stream") return cmd_stream(opts);
  if (opts.command == "serve") return cmd_serve(opts);
  if (opts.command == "connect") return cmd_connect(opts);
  if (opts.command == "soak") return cmd_soak(opts);
  if (opts.command == "fuzz") return cmd_fuzz(opts);
  if (opts.command == "top") return cmd_top(opts);
  return usage();
}
