// Stage bench: where one message's time goes, stage by stage.
//
// ObfuscatedProtocol::serialize_into and finish_parse are pipelines of a
// few passes over one message tree. This bench calls the same functions,
// in the same order and with the same SessionArena scratch, and times each
// call separately:
//
//   serialize  copy+canonicalize (the G1 walk: check, copy, constants,
//              holders and presence), forward (the compiled journal),
//              fix_holders (the wire holder pass), emit
//   parse      parse_wire, inverse (the compiled journal), canonicalize
//              (the G1 walk in place: constants, holders and check)
//
// for HTTP and Modbus requests at per_node 0, 2 and 4, with the journal
// size J, the number of resolved ops the journal compiles to (`ops`: J
// less the dropped ReadFromEnd entries) and the wire-graph node count on
// each row. The identity protocols (per_node 0) skip forward and
// fix_holders, as serialize_into does; their columns then time one clock
// read. Each row is the best of five windows per stage, and every stage
// includes one clock read (about 20 ns on a typical x86 host). Before
// timing, each workload checks that the staged pipeline emits the very
// bytes serialize_into emits and parses to the tree parse() returns, so
// the bench cannot drift from the real path unnoticed.
//
// A build table follows: per row, the minimum over 50 runs of load_spec
// (the request spec's text), Framework::generate (obfuscate and compile,
// identity decision included) and analysis::analyze, in microseconds —
// the in-process counterpart of perfbench's setup time.
//
// The last line is the ratio CI guards: HTTP per_node 4 over per_node 0,
// serialize plus parse, within this run. It reads about 12-13 on a 4-core
// x86 VM now that per_node 0, the identity protocol, skips the wire
// passes; the resolved op lists kept it at about 8-12 before that (the
// owner-bounded walks they replaced read about 12-14, O(J × N) replay
// about 40-64).
//
// Usage: bench_pipeline [messages] [json_path]
// Writes BENCH_pipeline.json (or json_path).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "harness.hpp"
#include "protocols/http.hpp"
#include "protocols/modbus.hpp"
#include "runtime/derive.hpp"
#include "runtime/parse.hpp"
#include "session/arena.hpp"
#include "transform/exec.hpp"

namespace {

using namespace protoobf;
using Clock = std::chrono::steady_clock;

constexpr int kTrials = 5;
constexpr int kBuildRuns = 50;

constexpr std::array<const char*, 4> kSerializeStages = {
    "copy+canonicalize", "forward", "fix_holders", "emit"};
constexpr std::array<const char*, 3> kParseStages = {
    "parse_wire", "inverse", "canonicalize"};
constexpr std::array<const char*, 3> kBuildStages = {"load_spec", "generate",
                                                     "analyze"};

template <std::size_t N>
using StageNs = std::array<double, N>;

struct Row {
  std::string workload;
  int per_node = 0;
  std::size_t journal = 0;
  std::size_t ops = 0;
  std::size_t wire_nodes = 0;
  StageNs<kSerializeStages.size()> serialize{};
  StageNs<kParseStages.size()> parse{};
  StageNs<kBuildStages.size()> build{};  // microseconds per protocol
};

template <std::size_t N>
double total(const StageNs<N>& stages) {
  double sum = 0;
  for (double ns : stages) sum += ns;
  return sum;
}

/// Accumulates the time since the previous mark into `slot`.
class StageClock {
 public:
  StageClock() : last_(Clock::now()) {}
  void mark(double& slot) {
    const auto now = Clock::now();
    slot += std::chrono::duration<double, std::nano>(now - last_).count();
    last_ = now;
  }

 private:
  Clock::time_point last_;
};

std::uint64_t msg_seed_of(std::size_t i) { return 0x5e55 + 0x9e37 * i; }

/// serialize_into's passes, one clock mark after each.
Status serialize_staged(const ObfuscatedProtocol& p,
                        const HolderTable& canon, const Inst& message,
                        std::uint64_t msg_seed, SessionArena& arena,
                        StageNs<kSerializeStages.size()>& ns) {
  DeriveScratch& derive = arena.derive();
  StageClock clock;
  InstPtr tree;
  if (Status s = canonical_copy(p.original(), canon, message, tree,
                                &arena.nodes(), derive);
      !s) {
    return s;
  }
  clock.mark(ns[0]);
  if (!p.identity()) {
    derive.streams.reset(msg_seed, p.journal().size());
    if (Status s = forward_program(tree, p.program(), p.journal(),
                                   derive.streams, &arena.nodes());
        !s) {
      return s;
    }
  }
  clock.mark(ns[1]);
  if (!p.identity()) {
    if (Status s = fix_holders(p.wire_graph(), p.journal(), p.holders(),
                               *tree, msg_seed, &arena.nodes(), &derive);
        !s) {
      return s;
    }
  }
  clock.mark(ns[2]);
  if (Status s = emit_into(p.wire_graph(), *tree, arena.wire()); !s) return s;
  clock.mark(ns[3]);
  return Status::success();
}

/// parse()'s passes: parse_wire, then finish_parse's, one clock mark after
/// each.
Expected<InstPtr> parse_staged(const ObfuscatedProtocol& p,
                               const HolderTable& canon,
                               BytesView wire, SessionArena& arena,
                               StageNs<kParseStages.size()>& ns) {
  StageClock clock;
  auto tree = parse_wire(p.wire_graph(), p.journal(), p.holders(), wire,
                         &arena.scratch(), &arena.nodes());
  clock.mark(ns[0]);
  if (!tree) return tree;
  if (Status s = inverse_program(*tree, p.program(), p.journal(),
                                 &arena.nodes());
      !s) {
    return Unexpected(s.error());
  }
  clock.mark(ns[1]);
  if (Status s = canonicalize_parsed(p.original(), canon, **tree,
                                     arena.derive());
      !s) {
    return Unexpected(s.error());
  }
  clock.mark(ns[2]);
  return tree;
}

/// Minimum over kBuildRuns of each protocol-build step, in microseconds.
bool measure_build(std::string_view spec, const ObfuscationConfig& config,
                   StageNs<kBuildStages.size()>& us) {
  us.fill(0);
  for (int run = 0; run < kBuildRuns; ++run) {
    StageNs<kBuildStages.size()> ns{};
    StageClock clock;
    auto graph = Framework::load_spec(spec);
    clock.mark(ns[0]);
    if (!graph) return false;
    auto protocol = Framework::generate(*graph, config);
    clock.mark(ns[1]);
    if (!protocol) return false;
    analysis::analyze(*protocol);
    clock.mark(ns[2]);
    for (std::size_t k = 0; k < us.size(); ++k) {
      const double value = ns[k] / 1000.0;
      us[k] = run == 0 ? value : std::min(us[k], value);
    }
  }
  return true;
}

template <std::size_t N>
void keep_best(StageNs<N>& best, const StageNs<N>& trial, std::size_t count,
               bool first) {
  for (std::size_t k = 0; k < N; ++k) {
    const double per_msg = trial[k] / static_cast<double>(count);
    best[k] = first ? per_msg : std::min(best[k], per_msg);
  }
}

/// Times one (workload, per_node) row. Returns false on any pipeline
/// failure or disagreement with the real serialize/parse path.
bool measure(const bench::Workload& workload, std::string_view spec,
             int per_node, std::size_t messages, Row& row) {
  const Graph& g = workload.graphs[0];
  ObfuscationConfig config;
  config.seed = 2018;
  config.per_node = per_node;
  auto protocol = Framework::generate(g, config);
  if (!protocol) {
    std::fprintf(stderr, "%s: %s\n", workload.name.c_str(),
                 protocol.error().message.c_str());
    return false;
  }
  const ObfuscatedProtocol& p = *protocol;
  const HolderTable canon =
      build_holder_table(p.original(), p.original(), {}).value();
  row.workload = workload.name;
  row.per_node = per_node;
  row.journal = p.journal().size();
  row.ops = p.program().ops.size();
  row.wire_nodes = p.wire_graph().size();

  Rng rng(7);
  std::vector<Message> msgs;
  std::vector<Bytes> wires;
  msgs.reserve(messages);
  wires.reserve(messages);
  SessionArena arena;
  for (std::size_t i = 0; i < messages; ++i) {
    msgs.push_back(workload.make(0, g, rng));
    auto wire = p.serialize(msgs[i].root(), msg_seed_of(i));
    if (!wire) {
      std::fprintf(stderr, "%s: serialize failed: %s\n",
                   workload.name.c_str(), wire.error().message.c_str());
      return false;
    }
    // The staged path must be the real path: same bytes, same tree.
    StageNs<kSerializeStages.size()> ser{};
    StageNs<kParseStages.size()> par{};
    auto reference = p.parse(*wire);
    if (!serialize_staged(p, canon, msgs[i].root(), msg_seed_of(i), arena,
                          ser) ||
        arena.wire() != *wire || !reference) {
      std::fprintf(stderr, "%s: staged serialize disagrees\n",
                   workload.name.c_str());
      return false;
    }
    auto staged = parse_staged(p, canon, *wire, arena, par);
    if (!staged || !ast::equal(**staged, **reference)) {
      std::fprintf(stderr, "%s: staged parse disagrees\n",
                   workload.name.c_str());
      return false;
    }
    wires.push_back(std::move(*wire));
  }

  for (int t = 0; t < kTrials; ++t) {
    StageNs<kSerializeStages.size()> ser{};
    StageNs<kParseStages.size()> par{};
    for (std::size_t i = 0; i < messages; ++i) {
      if (!serialize_staged(p, canon, msgs[i].root(), msg_seed_of(i), arena,
                            ser)) {
        return false;
      }
    }
    for (const Bytes& wire : wires) {
      if (!parse_staged(p, canon, wire, arena, par)) return false;
    }
    keep_best(row.serialize, ser, messages, t == 0);
    keep_best(row.parse, par, messages, t == 0);
  }
  if (!measure_build(spec, config, row.build)) {
    std::fprintf(stderr, "%s: protocol build failed\n",
                 workload.name.c_str());
    return false;
  }
  return true;
}

/// `decimals`: 0 for the ns/msg tables, 1 for the build table's us.
template <std::size_t N>
void print_row(const char* op, const Row& row, const StageNs<N>& stages,
               int decimals = 0) {
  std::printf("%-10s %-11s %2d %4zu %4zu %6zu", op, row.workload.c_str(),
              row.per_node, row.journal, row.ops, row.wire_nodes);
  for (double value : stages) std::printf(" %17.*f", decimals, value);
  std::printf(" %12.*f\n", decimals, total(stages));
}

template <std::size_t N>
void print_header(const char* op, const std::array<const char*, N>& names) {
  std::printf("%-10s %-11s %2s %4s %4s %6s", op, "workload", "pn", "J", "ops",
              "nodes");
  for (const char* name : names) std::printf(" %17s", name);
  std::printf(" %12s\n", "total");
}

template <std::size_t N>
void write_stages(std::FILE* f, const std::array<const char*, N>& names,
                  const StageNs<N>& stages) {
  std::fprintf(f, "{");
  for (std::size_t k = 0; k < N; ++k) {
    std::fprintf(f, "\"%s\": %.1f, ", names[k], stages[k]);
  }
  std::fprintf(f, "\"total\": %.1f}", total(stages));
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t messages =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 256;
  const char* json_path = argc > 2 ? argv[2] : "BENCH_pipeline.json";
  if (messages == 0) {
    std::fprintf(stderr, "usage: bench_pipeline [messages>0] [json_path]\n");
    return 2;
  }

  std::vector<Row> rows;
  for (const auto& [workload, spec] :
       {std::pair{bench::http_workload(), http::request_spec()},
        std::pair{bench::modbus_workload(), modbus::request_spec()}}) {
    for (const int per_node : {0, 2, 4}) {
      Row row;
      if (!measure(workload, spec, per_node, messages, row)) return 1;
      rows.push_back(std::move(row));
    }
  }

  std::printf("pipeline — ns/msg per stage, best of %d windows x %zu msgs, "
              "one SessionArena\n",
              kTrials, messages);
  print_header("serialize", kSerializeStages);
  for (const Row& row : rows) print_row("serialize", row, row.serialize);
  print_header("parse", kParseStages);
  for (const Row& row : rows) print_row("parse", row, row.parse);
  std::printf("build — us per protocol, min of %d\n", kBuildRuns);
  print_header("build", kBuildStages);
  for (const Row& row : rows) print_row("build", row, row.build, 1);

  const auto both = [](const Row& row) {
    return total(row.serialize) + total(row.parse);
  };
  double http_pn0 = 0, http_pn4 = 0;
  for (const Row& row : rows) {
    if (row.workload != "HTTP") continue;
    if (row.per_node == 0) http_pn0 = both(row);
    if (row.per_node == 4) http_pn4 = both(row);
  }
  const double ratio = http_pn0 > 0 ? http_pn4 / http_pn0 : 0;
  std::printf("HTTP pn4/pn0 serialize+parse: %.2fx\n", ratio);

  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"pipeline\",\n  \"messages\": %zu,\n"
                  "  \"trials\": %d,\n  \"unit\": \"ns/msg\",\n  \"rows\": [\n",
               messages, kTrials);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"per_node\": %d, "
                 "\"journal\": %zu, \"ops\": %zu, \"wire_nodes\": %zu,\n"
                 "     \"serialize\": ",
                 row.workload.c_str(), row.per_node, row.journal, row.ops,
                 row.wire_nodes);
    write_stages(f, kSerializeStages, row.serialize);
    std::fprintf(f, ",\n     \"parse\": ");
    write_stages(f, kParseStages, row.parse);
    std::fprintf(f, ",\n     \"build_us\": ");
    write_stages(f, kBuildStages, row.build);
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"http_pn4_over_pn0\": %.3f\n}\n", ratio);
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
  return 0;
}
