#include "ast/pool.hpp"

namespace protoobf {

void InstStore::grow() {
  auto slab = std::make_unique<Inst[]>(InstPool::kSlabNodes);
  free.reserve(free.size() + InstPool::kSlabNodes);
  for (std::size_t i = InstPool::kSlabNodes; i-- > 0;) {
    slab[i].store = this;
    free.push_back(&slab[i]);
  }
  slabs.push_back(std::move(slab));
  ++stats.slabs;
}

void InstStore::release(Inst* node) {
  node->children.clear();
  node->value.clear();
  node->present = true;
  node->schema = kNoNode;
  free.push_back(node);
  --stats.live;
  if (orphaned && stats.live == 0) delete this;  // must stay last
}

void InstDeleter::operator()(Inst* inst) const noexcept {
  if (inst == nullptr) return;
  if (inst->store == nullptr) {
    delete inst;
  } else {
    inst->store->release(inst);
  }
}

InstPool::~InstPool() {
  if (store_ == nullptr) return;
  if (store_->stats.live == 0) {
    delete store_;
  } else {
    store_->orphaned = true;
  }
}

void InstPool::grow() {
  if (store_ == nullptr) store_ = new InstStore;
  store_->grow();
  ++store_->stats.misses;
}

void InstPool::shrink() {
  if (store_ == nullptr || store_->stats.live != 0) return;
  store_->free.clear();
  store_->slabs.clear();
  store_->stats.slabs = 0;
}

namespace ast {

InstPtr make(InstPool* pool, NodeId schema) {
  if (pool != nullptr) return pool->make(schema);
  return InstPtr(new Inst(schema));
}

InstPtr terminal(InstPool* pool, NodeId schema, BytesView value) {
  InstPtr inst = make(pool, schema);
  inst->value.assign(value.begin(), value.end());
  return inst;
}

InstPtr terminal(InstPool* pool, NodeId schema, Bytes&& value) {
  InstPtr inst = make(pool, schema);
  inst->value = std::move(value);
  return inst;
}

InstPtr absent(InstPool* pool, NodeId schema) {
  InstPtr inst = make(pool, schema);
  inst->present = false;
  return inst;
}

InstPtr copy(InstPool* pool, const Inst& inst) {
  InstPtr out = make(pool, inst.schema);
  out->value.assign(inst.value.begin(), inst.value.end());
  out->present = inst.present;
  out->children.reserve(inst.children.size());
  for (const auto& child : inst.children) {
    out->children.push_back(copy(pool, *child));
  }
  return out;
}

}  // namespace ast
}  // namespace protoobf
