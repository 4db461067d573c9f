// Pooled AST node allocator (the zero-allocation message hot path).
//
// Every message that crosses the runtime materializes an Inst tree — one
// node per graph instance, one Bytes per terminal. At traffic scale those
// per-node heap round-trips dominate parse/serialize cost, so sessions
// recycle whole trees through an InstPool: a slab-backed freelist whose
// nodes keep their `value` and `children` capacity between checkouts.
// Re-parsing a message of a similar shape therefore performs no heap
// allocation at all in steady state — node storage comes from the
// freelist, terminal payloads land in recycled Bytes capacity, and child
// vectors reuse their previous element storage.
//
// Ownership plumbing: InstPtr's deleter (ast.hpp) routes destruction by
// the node's back-pointer — pool nodes return to their pool's store, plain
// nodes are deleted. Pooled and heap nodes mix freely in one tree, so
// every existing InstPtr call site keeps working and pooling is opt-in
// per allocation site.
//
// Lifetime: a pool's slabs, freelist and stats live in a heap-held store,
// allocated on the first make(), and every pool node points to it. A
// destroyed pool frees its store at once when no node is live; otherwise
// the store stays until the last live node returns, and that release
// frees it. So a tree may outlive the pool it was drawn from.
//
// Not thread-safe: one pool per thread of control, like the workspace
// that owns it; trees drawn from it are dropped on that thread too.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "ast/ast.hpp"

namespace protoobf {

class InstPool {
 public:
  struct Stats {
    std::size_t misses = 0;  // nodes served by growing a slab (heap work)
    std::size_t hits = 0;    // nodes served from the freelist (no heap work)
    std::size_t live = 0;    // nodes currently checked out
    std::size_t slabs = 0;   // slab count (capacity = slabs * kSlabNodes)
  };

  // A slab stays under 1 KiB. glibc serves such blocks from its per-size
  // caches; a larger block takes its large-chunk path, which first merges
  // the freed small blocks waiting in its fast bins. Every plain call grows
  // a fresh pool, so larger slabs would pay that merge on every call.
  static constexpr std::size_t kSlabNodes = 1000 / sizeof(Inst);

  InstPool() = default;
  InstPool(const InstPool&) = delete;
  InstPool& operator=(const InstPool&) = delete;
  ~InstPool();

  /// A blank node (schema set, value/children empty but capacity-bearing).
  InstPtr make(NodeId schema);

  Stats stats() const;

  /// Drops all idle capacity. Only complete when no nodes are live; live
  /// nodes keep their slabs pinned until they return.
  void shrink();

 private:
  void grow();  // allocates the store on first use, then adds a slab

  InstStore* store_ = nullptr;
};

/// An InstPool's storage. Its nodes point here, so it outlives a destroyed
/// pool until the last of them returns.
struct InstStore {
  std::vector<std::unique_ptr<Inst[]>> slabs;
  std::vector<Inst*> free;
  InstPool::Stats stats;
  bool orphaned = false;  // the pool is gone: the last release frees this

  void grow();

  /// Returns a node to the freelist. Children are released first (through
  /// their own deleters; a live parent keeps `live` above 0 meanwhile), the
  /// value keeps its capacity for the next terminal checked out.
  void release(Inst* node);
};

// Inline: parse and serialize draw every node through it.
inline InstPtr InstPool::make(NodeId schema) {
  if (store_ == nullptr || store_->free.empty()) {
    grow();
  } else {
    ++store_->stats.hits;
  }
  Inst* node = store_->free.back();
  store_->free.pop_back();
  node->schema = schema;
  ++store_->stats.live;
  return InstPtr(node);
}

inline InstPool::Stats InstPool::stats() const {
  return store_ != nullptr ? store_->stats : Stats{};
}

namespace ast {

/// Pool-aware factories: draw from `pool` when given, from the heap when
/// null. The BytesView/copying variants assign into the recycled buffer so
/// a freelist hit copies payload bytes without allocating.
InstPtr make(InstPool* pool, NodeId schema);
InstPtr terminal(InstPool* pool, NodeId schema, BytesView value);
InstPtr terminal(InstPool* pool, NodeId schema, Bytes&& value);
InstPtr absent(InstPool* pool, NodeId schema);

/// Deep copy with every node drawn from `pool` (heap when null) and every
/// terminal payload copied into recycled capacity. (Serialize builds its
/// workspace copy with the G1 walk instead: runtime/derive.hpp's
/// canonical_copy.)
InstPtr copy(InstPool* pool, const Inst& inst);

}  // namespace ast
}  // namespace protoobf
