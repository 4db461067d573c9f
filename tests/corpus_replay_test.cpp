// Regression corpus replay (ISSUE 6 satellite).
//
// Every input that ever violated a fuzz invariant — or that pins down a
// structurally nasty shape worth guarding forever — lives as a file in
// tests/corpus/crashers/ and is replayed here through the full
// FuzzRunner oracle set. This test is ordered BEFORE the randomized
// campaigns (ctest DEPENDS): a regression must fail deterministically on
// its pinned input, not rely on a lucky redraw of the day's RNG.
//
// Corpus entry format (line-oriented text, `key: value`):
//
//   spec: netdemo            # name in fuzz_support.hpp's registry
//   seed: 90125              # ObfuscationConfig::seed
//   per_node: 2              # ObfuscationConfig::per_node
//   note: what this input once broke
//   wire: face01...          # hex bytes of the input
//
// To add an entry: take the failing campaign's spec/seed/per_node and the
// hexdump from the assertion message, drop them in a new file.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/protoobf.hpp"
#include "fuzz/runner.hpp"
#include "fuzz_support.hpp"
#include "runtime/parse.hpp"
#include "util/rng.hpp"

#ifndef PROTOOBF_CORPUS_DIR
#define PROTOOBF_CORPUS_DIR "tests/corpus/crashers"
#endif

namespace protoobf {
namespace {

struct CorpusEntry {
  std::string file;
  std::string spec;
  std::uint64_t seed = 0;
  int per_node = 0;
  std::string note;
  Bytes wire;
};

Expected<CorpusEntry> load_entry(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return Unexpected("cannot open " + path.string());
  CorpusEntry entry;
  entry.file = path.filename().string();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return Unexpected(entry.file + ": malformed line '" + line + "'");
    }
    std::string key = line.substr(0, colon);
    std::string value = line.substr(colon + 1);
    value.erase(0, value.find_first_not_of(" \t"));
    if (key == "spec") {
      entry.spec = value;
    } else if (key == "seed") {
      entry.seed = std::strtoull(value.c_str(), nullptr, 0);
    } else if (key == "per_node") {
      entry.per_node = static_cast<int>(std::strtol(value.c_str(), nullptr, 0));
    } else if (key == "note") {
      entry.note = value;
    } else if (key == "wire") {
      auto bytes = from_hex(value);
      if (!bytes.has_value()) {
        return Unexpected(entry.file + ": bad hex in wire line");
      }
      entry.wire = std::move(*bytes);
    } else {
      return Unexpected(entry.file + ": unknown key '" + key + "'");
    }
  }
  if (entry.spec.empty()) return Unexpected(entry.file + ": missing spec");
  return entry;
}

TEST(CorpusReplay, EveryCheckedInCrasherHoldsAllInvariants) {
  const std::filesystem::path dir(PROTOOBF_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir))
      << "corpus directory missing: " << dir;

  std::vector<std::filesystem::path> files;
  for (const auto& it : std::filesystem::directory_iterator(dir)) {
    if (it.is_regular_file()) files.push_back(it.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "empty corpus: " << dir;

  // One compiled protocol + runner per (spec, seed, per_node), reused
  // across entries the way the fuzz campaign reuses its per-arm runner.
  struct ReplayArm {
    std::unique_ptr<ObfuscatedProtocol> protocol;
    std::unique_ptr<fuzz::FuzzRunner> runner;
  };
  std::map<std::string, ReplayArm> runners;

  for (const auto& path : files) {
    auto entry = load_entry(path);
    ASSERT_TRUE(entry.ok()) << entry.error().message;

    const fuzztest::SpecEntry* spec = fuzztest::find_spec(entry->spec);
    ASSERT_NE(spec, nullptr)
        << entry->file << ": spec '" << entry->spec << "' not in registry";

    const std::string key = entry->spec + "/" +
                            std::to_string(entry->seed) + "/" +
                            std::to_string(entry->per_node);
    auto found = runners.find(key);
    if (found == runners.end()) {
      auto graph = Framework::load_spec(spec->spec);
      ASSERT_TRUE(graph.ok()) << graph.error().message;
      ObfuscationConfig cfg;
      cfg.seed = entry->seed;
      cfg.per_node = entry->per_node;
      auto protocol = Framework::generate(*graph, cfg);
      ASSERT_TRUE(protocol.ok()) << entry->file << ": "
                                 << protocol.error().message;
      ReplayArm arm;
      arm.protocol = std::make_unique<ObfuscatedProtocol>(std::move(*protocol));
      fuzz::FuzzRunner::Config run_cfg;
      run_cfg.whole_message = !stream_safe(arm.protocol->wire_graph()).ok();
      arm.runner = std::make_unique<fuzz::FuzzRunner>(*arm.protocol, run_cfg);
      found = runners.emplace(key, std::move(arm)).first;
    }

    // The chunk RNG is pinned per entry (not per campaign): replays are
    // bit-for-bit deterministic regardless of corpus ordering.
    Rng chunks(entry->seed ^ 0xC0DE ^ entry->wire.size());
    const std::string violation =
        found->second.runner->check(entry->wire, chunks);
    EXPECT_EQ(violation, "")
        << entry->file << " (" << entry->note << ")\n"
        << hexdump(entry->wire);
  }
}

}  // namespace
}  // namespace protoobf
