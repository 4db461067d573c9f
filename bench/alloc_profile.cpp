// Allocation profile of the message hot path: heap allocations per message
// for serialize and parse, plain ObfuscatedProtocol calls vs. the pooled
// Session paths.
//
// The point of the InstPool/arena work is that a steady-state session
// performs O(1) heap allocations per message where the plain paths pay
// O(nodes): one Inst plus one Bytes per tree node, per message, per
// direction. This bench counts real allocations with a global operator-new
// hook, after a warm-up that grows every pool to its high-water mark, and
// writes BENCH_alloc.json so CI can archive the trajectory.
//
// Usage: bench_alloc_profile [messages] [repeats] [per_node] [json_path]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "ast/ast.hpp"
#include "harness.hpp"
#include "session/session.hpp"

// --- operator-new hook ------------------------------------------------------
// Counts every heap allocation in the process. Deletes are deliberately
// uncounted: the metric is allocation traffic, not live bytes.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace protoobf;

std::uint64_t msg_seed_of(std::size_t i) {
  return 0x5e55 + 11400714819323198485ull * i;
}

/// Allocations per message across `repeats` passes of `body` over
/// `messages` messages.
template <typename Body>
double allocs_per_msg(std::size_t messages, int repeats, Body&& body) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int r = 0; r < repeats; ++r) body();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) /
         static_cast<double>(messages * static_cast<std::size_t>(repeats));
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t messages =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 256;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 4;
  const int per_node = argc > 3 ? std::atoi(argv[3]) : 2;
  const char* json_path = argc > 4 ? argv[4] : "BENCH_alloc.json";
  if (messages == 0 || repeats <= 0 || per_node < 0) {
    std::fprintf(stderr,
                 "usage: bench_alloc_profile [messages>0] [repeats>0] "
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

  // One session: the hot loop a connection handler runs.
  Session session(entry);

  std::vector<Bytes> wires;
  wires.reserve(messages);
  double tree_nodes = 0;
  for (std::size_t i = 0; i < messages; ++i) {
    auto wire = protocol.serialize(msgs[i].root(), msg_seed_of(i));
    if (!wire) {
      std::fprintf(stderr, "serialize failed: %s\n",
                   wire.error().message.c_str());
      return 1;
    }
    wires.push_back(std::move(*wire));
    tree_nodes += static_cast<double>(ast::count(msgs[i].root()));
  }
  tree_nodes /= static_cast<double>(messages);

  // Warm-up: two full rounds grow the arena buffers, the node pool and the
  // Bytes capacities inside recycled nodes to their high-water marks.
  for (int r = 0; r < 2; ++r) {
    for (std::size_t i = 0; i < messages; ++i) {
      (void)session.serialize(msgs[i].root(), msg_seed_of(i));
      auto tree = session.parse(wires[i]);
      if (!tree) {
        std::fprintf(stderr, "parse failed: %s\n",
                     tree.error().message.c_str());
        return 1;
      }
    }
  }

  const double ser_plain = allocs_per_msg(messages, repeats, [&] {
    for (std::size_t i = 0; i < messages; ++i) {
      auto wire = protocol.serialize(msgs[i].root(), msg_seed_of(i));
      (void)wire;
    }
  });
  const double ser_session = allocs_per_msg(messages, repeats, [&] {
    for (std::size_t i = 0; i < messages; ++i) {
      (void)session.serialize(msgs[i].root(), msg_seed_of(i));
    }
  });
  const double parse_plain = allocs_per_msg(messages, repeats, [&] {
    for (const Bytes& wire : wires) {
      auto tree = protocol.parse(wire);
      (void)tree;
    }
  });
  const double parse_session = allocs_per_msg(messages, repeats, [&] {
    for (const Bytes& wire : wires) {
      auto tree = session.parse(wire);
      (void)tree;
    }
  });

  const InstPool::Stats pool = session.arena().nodes().stats();

  std::printf("alloc_profile — %s, per_node=%d, %zu msgs x %d repeats, "
              "%.1f logical nodes/msg\n",
              workload.name.c_str(), per_node, messages, repeats, tree_nodes);
  std::printf("  %-22s %10.2f allocs/msg\n", "serialize/plain", ser_plain);
  std::printf("  %-22s %10.2f allocs/msg\n", "serialize/session", ser_session);
  std::printf("  %-22s %10.2f allocs/msg\n", "parse/plain", parse_plain);
  std::printf("  %-22s %10.2f allocs/msg\n", "parse/session", parse_session);
  std::printf("  node pool: %zu hits, %zu misses, %zu slabs, %zu live\n",
              pool.hits, pool.misses, pool.slabs, pool.live);

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"alloc_profile\",\n"
                 "  \"workload\": \"%s\",\n"
                 "  \"per_node\": %d,\n"
                 "  \"messages\": %zu,\n"
                 "  \"repeats\": %d,\n"
                 "  \"logical_nodes_per_msg\": %.2f,\n"
                 "  \"serialize_plain_allocs_per_msg\": %.3f,\n"
                 "  \"serialize_session_allocs_per_msg\": %.3f,\n"
                 "  \"parse_plain_allocs_per_msg\": %.3f,\n"
                 "  \"parse_session_allocs_per_msg\": %.3f,\n"
                 "  \"pool_hits\": %zu,\n"
                 "  \"pool_misses\": %zu\n"
                 "}\n",
                 workload.name.c_str(), per_node, messages, repeats,
                 tree_nodes, ser_plain, ser_session, parse_plain,
                 parse_session, pool.hits, pool.misses);
    std::fclose(f);
    std::printf("  wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  return 0;
}
