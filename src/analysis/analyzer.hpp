// Static analyzer over compiled wire graphs (`protoobf lint`).
//
// The framework's premise is that the wire syntax is *derived from a
// specification*, so the safety properties the fuzzer probes at runtime —
// unambiguous decode, bounded frames, sound truncation hints, holder chains
// that converge, no seed-invariant bytes for DPI to fingerprint — can be
// proved (or refuted) once, statically, from the graph G(n+1) and the
// journal. This module walks the compiled artifact bottom-up, computes
// per-region wire facts (min/max size, first-byte and interior byte
// domains, guaranteed constant prefixes) and emits structured diagnostics.
//
// It subsumes the scattered ad-hoc predicates: `stream_safe()` and the
// ROADMAP's `datagram_safe()` become named, located diagnostics, and the
// analyzer's own min-need computation is cross-checked against the
// runtime's independent `min_wire_size()` — a disagreement is itself a
// diagnostic (PO-E999).
//
// Severity contract: an Error means the artifact is wrong (some message
// cannot round-trip, or the runtime metadata is corrupt) and serving it is
// refused; a Warning means a hostile peer or unlucky payload can do
// something surprising (ambiguous decode, unbounded claim); a Note records
// a property worth knowing (DPI fingerprint of an identity graph, an
// app-level escaping contract). `Report::clean()` is "no errors".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/protocol.hpp"
#include "transform/journal.hpp"
#include "transform/lineage.hpp"

namespace protoobf::analysis {

enum class Severity : std::uint8_t { Note, Warning, Error };

const char* to_string(Severity severity);

/// One finding. `id` is the stable machine name ("PO-W101"), `name` the
/// human slug ("ambiguous-stop-marker"); `node`/`path` locate the finding
/// in the *wire* graph G(n+1).
struct Diagnostic {
  std::string id;
  std::string name;
  Severity severity = Severity::Note;
  NodeId node = kNoNode;
  std::string path;
  std::string message;
  std::string hint;
};

struct Options {
  /// PO-N201: a datagram-safe wire format fits one UDP payload (IPv4 max).
  std::size_t datagram_mtu = 65507;
  /// PO-W104: a counter whose worst-case claim exceeds this many bytes is
  /// flagged as a saturation-DoS surface (the fuzzer's 0xff skew arm).
  std::size_t counter_claim_limit = std::size_t{1} << 20;
};

struct Report {
  std::string protocol;
  std::vector<Diagnostic> diagnostics;

  /// Static lower bound on any message's wire size (== min_wire_size()).
  std::size_t min_need = 0;
  /// Static upper bound; nullopt = unbounded (only the reassembly cap
  /// bounds a frame — see PO-W103).
  std::optional<std::uint64_t> max_wire;
  bool is_stream_safe = false;    // mirrors runtime stream_safe()
  bool is_datagram_safe = false;  // max_wire bounded and <= datagram_mtu

  std::size_t errors() const;
  std::size_t warnings() const;
  std::size_t notes() const;

  /// No error-severity findings. Warnings and notes do not spoil it.
  bool clean() const { return errors() == 0; }

  /// First diagnostic with the given id ("PO-W101"), nullptr if none.
  const Diagnostic* find(std::string_view id) const;
  bool has(std::string_view id) const { return find(id) != nullptr; }
};

/// Analyzes a compiled protocol (wire graph + journal; the holder table is
/// rebuilt from them, exactly as the runtime does).
Report analyze(const ObfuscatedProtocol& protocol, const Options& options = {});

/// Analyzes a bare validated graph as its own wire syntax (the identity
/// compilation: empty journal, native holders only).
Report analyze_graph(const Graph& g1, const Options& options = {});

/// Fully explicit variant: lets tests and tools hand the analyzer a
/// *corrupt* artifact (a journal or holder table that no engine run would
/// produce) to exercise the artifact-integrity diagnostics.
Report analyze_parts(const Graph& original, const Graph& wire,
                     const Journal& journal, const HolderTable& holders,
                     const Options& options = {});

/// The ROADMAP's cousin of stream_safe(): true when every message of
/// `wire` is statically guaranteed to fit one datagram of `mtu` bytes, so
/// a one-message-per-packet transport needs no reassembly state.
bool datagram_safe(const Graph& wire, std::size_t mtu = 65507);

/// One-line verdict for log headers: "clean (0 errors, 2 warnings)" or
/// "2 errors (PO-E001 ...)".
std::string summary(const Report& report);

/// Human-readable rendering, one block per diagnostic.
std::string render_text(const Report& report);

/// Machine-readable rendering (a single JSON object).
std::string render_json(const Report& report);

namespace detail {

/// The PO-E999 self-check: compares the analyzer's computed min-need and
/// stream verdict against the runtime predicates and appends a diagnostic
/// on any disagreement. Split out so tests can prove the check fires.
void cross_check(Report& report, const Graph& wire, std::size_t computed_min,
                 bool computed_stream_ok);

}  // namespace detail

}  // namespace protoobf::analysis
