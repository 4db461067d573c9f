// G1 walk oracle: one walk per direction against the separate passes it
// replaced.
//
// Serialize checks, copies, canonicalizes and presence-checks the caller's
// tree in one walk (canonical_copy), and skips the wire passes for the
// identity protocol; parse fills constants, derives holders and checks the
// inverted tree in one walk (canonicalize_parsed). The references
// (reference_passes.hpp) are the passes as they ran before, one walk each,
// with forward and fix_holders run for every protocol. Over every registry
// spec plus HTTP, at per_node 0..4, several obfuscation seeds and random
// messages:
//
//   (a) serialize() and the reference emit byte-identical wires, or fail
//       with the same kind and message, also once every absent Optional
//       carries a stale child;
//   (b) the walk's canonical copy equals the reference's canonical tree;
//   (c) parse() and the reference agree on the wire and on copies with one
//       byte changed: equal trees, or the same kind and message.
//
// Then hand-broken G1 trees, one fault each: a Sequence with a child too
// few or too many, a child of another schema, a fixed terminal of the wrong
// size, a contradicted constant, an Optional whose presence contradicts its
// condition either way, and a Length region its one-byte holder cannot
// encode. Serialize and the parse walk in place must give the reference's
// verdict, kind and message.
//
// Reproduction: failures carry the campaign seed; rerun with
// PROTOOBF_FUZZ_SEED=<seed>.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/protoobf.hpp"
#include "fuzz/random_message.hpp"
#include "fuzz_support.hpp"
#include "protocols/http.hpp"
#include "reference_passes.hpp"

namespace protoobf {
namespace {

constexpr int kSeeds = 10;
constexpr int kDraws = 10;
constexpr int kMutations = 3;

struct Tally {
  std::size_t cases = 0;
  std::size_t failures = 0;  // cases both sides rejected
  std::size_t mismatches = 0;
  std::string first;

  void mismatch(const std::string& what) {
    if (mismatches == 0) first = what;
    ++mismatches;
  }
};

/// Same verdict; on failure the same kind and message.
bool same_error(const Status& walk, const Status& reference) {
  if (walk.ok() != reference.ok()) return false;
  return walk.ok() || (walk.error().kind == reference.error().kind &&
                       walk.error().message == reference.error().message);
}

std::string verdict(const Status& s) {
  return s.ok() ? std::string("ok") : "'" + s.error().message + "'";
}

template <typename T>
Status status_of(const Expected<T>& e) {
  return e ? Status::success() : Status(Unexpected(e.error()));
}

class Oracle {
 public:
  explicit Oracle(const ObfuscatedProtocol& p)
      : p_(p),
        canon_(build_holder_table(p.original(), p.original(), {}).value()) {}

  /// (a) and (b) for one G1 tree; returns the wire (empty when rejected).
  Bytes serialize(const Inst& message, std::uint64_t msg_seed,
                  const std::string& where, Tally& tally) {
    ++tally.cases;
    auto wire = p_.serialize(message, msg_seed);
    auto expected = reference::serialize(p_, canon_, message, msg_seed);
    if (!same_error(status_of(wire), status_of(expected))) {
      tally.mismatch(where + ": serialize " + verdict(status_of(wire)) +
                     ", reference " + verdict(status_of(expected)));
      return {};
    }
    InstPtr copy;
    DeriveScratch scratch;
    const Status walked = canonical_copy(p_.original(), canon_, message, copy,
                                         nullptr, scratch);
    auto reference_copy = reference::canonical_copy(p_.original(), canon_,
                                                    message);
    if (!same_error(walked, status_of(reference_copy))) {
      tally.mismatch(where + ": canonical_copy " + verdict(walked) +
                     ", reference " + verdict(status_of(reference_copy)));
      return {};
    }
    if (walked && !ast::equal(*copy, **reference_copy)) {
      tally.mismatch(where + ": canonical copies differ");
      return {};
    }
    if (!wire) {
      ++tally.failures;
      return {};
    }
    if (*wire != *expected) {
      tally.mismatch(where + ": wires differ " + to_hex(*wire) + " vs " +
                     to_hex(*expected));
      return {};
    }
    // The round trip closes on the canonical copy.
    auto back = p_.parse(*wire);
    if (!back || !ast::equal(**back, *copy)) {
      tally.mismatch(where + ": the wire does not parse back to the copy");
    }
    return std::move(*wire);
  }

  /// (c) for one wire.
  void parse(BytesView wire, const std::string& where, Tally& tally) {
    ++tally.cases;
    auto tree = p_.parse(wire);
    auto expected = reference::parse(p_, canon_, wire);
    if (!same_error(status_of(tree), status_of(expected))) {
      tally.mismatch(where + ": parse " + verdict(status_of(tree)) +
                     ", reference " + verdict(status_of(expected)));
    } else if (tree && !ast::equal(**tree, **expected)) {
      tally.mismatch(where + ": parsed trees differ");
    } else if (!tree) {
      ++tally.failures;
    }
  }

  /// The parse walk in place against the reference's three passes, on a
  /// G1 tree as inverse_program might hand it over.
  void parse_walk(const Inst& tree, const std::string& where, Tally& tally) {
    ++tally.cases;
    InstPtr walked = ast::clone(tree);
    InstPtr expected = ast::clone(tree);
    DeriveScratch scratch;
    const Status s =
        canonicalize_parsed(p_.original(), canon_, *walked, scratch);
    const Status r = reference::finish_parse(p_.original(), canon_, *expected);
    if (!same_error(s, r)) {
      tally.mismatch(where + ": parse walk " + verdict(s) + ", reference " +
                     verdict(r));
    } else if (s && !ast::equal(*walked, *expected)) {
      tally.mismatch(where + ": parse walk trees differ");
    } else if (!s) {
      ++tally.failures;
    }
  }

 private:
  const ObfuscatedProtocol& p_;
  const HolderTable canon_;
};

std::vector<std::pair<std::string, std::string_view>> specs() {
  // The sweep sets per_node itself, so registry entries that differ only
  // in their default depth are one spec here.
  std::vector<std::pair<std::string, std::string_view>> out;
  for (const fuzztest::SpecEntry& entry : fuzztest::spec_registry()) {
    const bool seen = std::any_of(out.begin(), out.end(), [&](auto& s) {
      return s.second == entry.spec;
    });
    if (!seen) out.emplace_back(std::string(entry.name), entry.spec);
  }
  out.emplace_back("http-request", http::request_spec());
  return out;
}

/// Gives every absent Optional of `inst` a random stale child; false when
/// there is none.
bool with_stale_children(const Graph& g, Inst& inst, Rng& rng) {
  const Node& n = g.node(inst.schema);
  if (n.type == NodeType::Optional && !inst.present) {
    const auto derived = fuzz::derived_nodes(g);
    std::unordered_map<NodeId, const Inst*> built;
    inst.children.clear();
    inst.children.push_back(
        fuzz::random_instance(g, n.children[0], rng, derived, built));
    return true;
  }
  bool any = false;
  for (InstPtr& child : inst.children) {
    any = with_stale_children(g, *child, rng) || any;
  }
  return any;
}

TEST(G1Walk, MatchesTheSeparatePasses) {
  const std::uint64_t seed = fuzztest::fuzz_seed(0x61A1C);
  SCOPED_TRACE(fuzztest::seed_note(seed));

  Rng rng(seed);
  Tally tally;
  std::size_t wires = 0;
  for (const auto& [name, text] : specs()) {
    auto graph = Framework::load_spec(text);
    ASSERT_TRUE(graph.ok()) << name << ": " << graph.error().message;
    for (int per_node = 0; per_node <= 4; ++per_node) {
      for (int s = 0; s < kSeeds; ++s) {
        ObfuscationConfig cfg;
        cfg.per_node = per_node;
        cfg.seed = rng.next_u64();
        auto protocol = Framework::generate(*graph, cfg);
        ASSERT_TRUE(protocol.ok()) << name << ": " << protocol.error().message;
        EXPECT_EQ(protocol->identity(), per_node == 0) << name;
        Oracle oracle(*protocol);
        const std::string label = name + " per_node " +
                                  std::to_string(per_node) + " seed " +
                                  std::to_string(cfg.seed);
        for (int draw = 0; draw < kDraws; ++draw) {
          const std::string where = label + " draw " + std::to_string(draw);
          const std::uint64_t msg_seed = rng.next_u64();
          InstPtr message = fuzz::random_message(*graph, rng);
          const Bytes wire = oracle.serialize(*message, msg_seed, where, tally);
          if (wire.empty()) continue;
          ++wires;
          // Stale children under absent Optionals change nothing: the walk
          // leaves them behind, the reference copies them along.
          if (with_stale_children(*graph, *message, rng) &&
              oracle.serialize(*message, msg_seed, where + " (stale)",
                               tally) != wire) {
            tally.mismatch(where + ": stale children changed the wire");
          }
          oracle.parse(wire, where, tally);
          for (int m = 0; m < kMutations; ++m) {
            Bytes mutated = wire;
            mutated[rng.below(mutated.size())] ^=
                static_cast<Byte>(1 + rng.below(255));
            oracle.parse(mutated, where + " mutation " + std::to_string(m),
                         tally);
          }
        }
      }
    }
  }

  std::printf("g1_walk: seed %llu, %zu cases, %zu wires, %zu rejected by "
              "both, %zu mismatches\n",
              static_cast<unsigned long long>(seed), tally.cases, wires,
              tally.failures, tally.mismatches);
  EXPECT_EQ(tally.mismatches, 0u) << "first: " << tally.first;
  EXPECT_GE(wires, specs().size() * 5 * kSeeds * kDraws / 2);
  EXPECT_GT(tally.failures, 0u);  // the mutated wires reach the errors
}

// --- hand-broken trees ------------------------------------------------------

/// Every instance of `root`'s present subtree, in pre-order.
void instances_of(Inst& inst, std::vector<Inst*>& out) {
  out.push_back(&inst);
  if (!inst.present) return;
  for (InstPtr& child : inst.children) instances_of(*child, out);
}

/// One kind of single fault: `apply` damages one instance of a clone of a
/// valid tree, or returns false when that instance does not qualify.
struct Breakage {
  const char* name;
  std::function<bool(const Graph&, Inst&, Rng&)> apply;
  std::size_t applied = 0;
  std::size_t rejected = 0;  // the reference serialize refused it
};

std::vector<Breakage> breakages() {
  return {
      {"child too few",
       [](const Graph& g, Inst& inst, Rng&) {
         if (g.node(inst.schema).type != NodeType::Sequence ||
             inst.children.empty()) {
           return false;
         }
         inst.children.pop_back();
         return true;
       }},
      {"child too many",
       [](const Graph& g, Inst& inst, Rng&) {
         if (g.node(inst.schema).type != NodeType::Sequence ||
             inst.children.empty()) {
           return false;
         }
         inst.children.push_back(ast::clone(*inst.children.back()));
         return true;
       }},
      {"child of another schema",
       [](const Graph& g, Inst& inst, Rng&) {
         if (g.node(inst.schema).type != NodeType::Sequence ||
             inst.children.size() < 2) {
           return false;
         }
         inst.children[0]->schema = inst.children[1]->schema;
         return true;
       }},
      {"wrong fixed size",  // constants and holders included
       [](const Graph& g, Inst& inst, Rng&) {
         const Node& n = g.node(inst.schema);
         if (n.type != NodeType::Terminal ||
             n.boundary != BoundaryKind::Fixed) {
           return false;
         }
         if (inst.value.empty()) inst.value = n.const_value;
         inst.value.push_back('w');
         return true;
       }},
      {"contradicted constant",
       [](const Graph& g, Inst& inst, Rng&) {
         const Node& n = g.node(inst.schema);
         if (!n.has_const || n.const_value.empty()) return false;
         inst.value = n.const_value;
         inst.value[0] ^= 0x5a;
         return true;
       }},
      {"present against its condition",
       [](const Graph& g, Inst& inst, Rng& rng) {
         const Node& n = g.node(inst.schema);
         if (n.type != NodeType::Optional || inst.present ||
             n.condition.kind == Condition::Kind::Always) {
           return false;
         }
         const auto derived = fuzz::derived_nodes(g);
         std::unordered_map<NodeId, const Inst*> built;
         inst.children.clear();
         inst.children.push_back(
             fuzz::random_instance(g, n.children[0], rng, derived, built));
         inst.present = true;
         return true;
       }},
      {"absent against its condition",
       [](const Graph& g, Inst& inst, Rng&) {
         const Node& n = g.node(inst.schema);
         if (n.type != NodeType::Optional || !inst.present ||
             n.condition.kind == Condition::Kind::Always) {
           return false;
         }
         inst.present = false;  // its children stay behind, stale
         return true;
       }},
      {"overflowing holder",
       [](const Graph& g, Inst& inst, Rng&) {
         const Node& n = g.node(inst.schema);
         if (n.type != NodeType::Terminal ||
             n.boundary != BoundaryKind::Length) {
           return false;
         }
         const Node& holder = g.node(n.ref);
         if (holder.encoding != Encoding::Binary ||
             holder.boundary != BoundaryKind::Fixed || holder.fixed_size != 1) {
           return false;
         }
         inst.value.assign(256, 'o');
         return true;
       }},
  };
}

/// A serializable random message of `p`, or null.
InstPtr valid_message(const ObfuscatedProtocol& p, Rng& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    InstPtr candidate = fuzz::random_message(p.original(), rng);
    if (p.serialize(*candidate, 1).ok()) return candidate;
  }
  return nullptr;
}

TEST(G1Walk, HandBrokenTreesFailAsTheSeparatePassesDid) {
  const std::uint64_t seed = fuzztest::fuzz_seed(0xB40C);
  SCOPED_TRACE(fuzztest::seed_note(seed));

  Rng rng(seed);
  Tally tally;
  std::vector<Breakage> kinds = breakages();
  for (const auto& [name, text] : specs()) {
    auto graph = Framework::load_spec(text);
    ASSERT_TRUE(graph.ok()) << name << ": " << graph.error().message;
    for (const int per_node : {0, 2}) {
      ObfuscationConfig cfg;
      cfg.per_node = per_node;
      cfg.seed = rng.next_u64();
      auto protocol = Framework::generate(*graph, cfg);
      ASSERT_TRUE(protocol.ok()) << name << ": " << protocol.error().message;
      const ObfuscatedProtocol& p = *protocol;
      Oracle oracle(p);
      const HolderTable canon =
          build_holder_table(p.original(), p.original(), {}).value();
      for (int draw = 0; draw < 6; ++draw) {
        InstPtr message = valid_message(p, rng);
        ASSERT_NE(message, nullptr) << name;
        std::vector<Inst*> sites;
        instances_of(*message, sites);
        for (Breakage& kind : kinds) {
          for (std::size_t k = 0; k < sites.size(); ++k) {
            InstPtr broken = ast::clone(*message);
            std::vector<Inst*> at;
            instances_of(*broken, at);
            if (!kind.apply(p.original(), *at[k], rng)) continue;
            ++kind.applied;
            const std::string where = name + " per_node " +
                                      std::to_string(per_node) + " draw " +
                                      std::to_string(draw) + " " + kind.name +
                                      " at instance " + std::to_string(k);
            const std::uint64_t msg_seed = rng.next_u64();
            if (!reference::serialize(p, canon, *broken, msg_seed)) {
              ++kind.rejected;
            }
            oracle.serialize(*broken, msg_seed, where, tally);
            oracle.parse_walk(*broken, where + " (parse walk)", tally);
          }
        }
      }
    }
  }

  std::printf("g1_walk broken trees: seed %llu, %zu cases, %zu rejected by "
              "both, %zu mismatches\n",
              static_cast<unsigned long long>(seed), tally.cases,
              tally.failures, tally.mismatches);
  for (const Breakage& kind : kinds) {
    std::printf("  %-30s %4zu trees, %4zu refused by serialize\n", kind.name,
                kind.applied, kind.rejected);
    EXPECT_GT(kind.rejected, 0u) << kind.name << " never broke a tree";
  }
  EXPECT_EQ(tally.mismatches, 0u) << "first: " << tally.first;
}

}  // namespace
}  // namespace protoobf
