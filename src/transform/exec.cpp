#include "transform/exec.hpp"

#include <algorithm>
#include <span>

namespace protoobf {

namespace {

Unexpected exec_fail(const AppliedTransform& entry, const std::string& what) {
  return Unexpected(std::string(to_string(entry.kind)) + ": " + what);
}

// --- forward operations -----------------------------------------------------
//
// Replacement nodes come from the pool (recycled node + recycled payload
// capacity) and replaced nodes return to it, so steady-state journal replay
// touches the heap only while buffers are still growing toward their
// high-water capacity. Randomness is drawn in the same order either way,
// keeping pooled and heap wire images bit-identical.

Status forward_split(InstPtr& p, const AppliedTransform& e, Rng& rng,
                     InstPool* pool) {
  InstPtr first = ast::make(pool, e.created_a);
  InstPtr second = ast::make(pool, e.created_b);
  const Bytes& v = p->value;
  switch (e.kind) {
    case TransformKind::SplitAdd:
      rng.fill(first->value, v.size());
      add_mod256_into(second->value, v, first->value);
      break;
    case TransformKind::SplitSub:
      rng.fill(first->value, v.size());
      sub_mod256_into(second->value, v, first->value);
      break;
    case TransformKind::SplitXor:
      rng.fill(first->value, v.size());
      xor_bytes_into(second->value, v, first->value);
      break;
    case TransformKind::SplitCat: {
      if (v.size() < e.split_point) {
        return exec_fail(e, "value shorter than split point");
      }
      first->value.assign(
          v.begin(), v.begin() + static_cast<std::ptrdiff_t>(e.split_point));
      second->value.assign(
          v.begin() + static_cast<std::ptrdiff_t>(e.split_point), v.end());
      break;
    }
    default:
      return exec_fail(e, "not a split");
  }
  InstPtr seq = ast::make(pool, e.created_seq);
  seq->children.reserve(2);
  seq->children.push_back(std::move(first));
  seq->children.push_back(std::move(second));
  p = std::move(seq);
  return Status::success();
}

Status inverse_split(InstPtr& p, const AppliedTransform& e, InstPool* pool) {
  if (p->children.size() != 2) {
    return exec_fail(e, "split sequence without two halves");
  }
  const Bytes& a = p->children[0]->value;
  const Bytes& b = p->children[1]->value;
  if (e.kind != TransformKind::SplitCat && a.size() != b.size()) {
    return exec_fail(e, "split halves of unequal size");
  }
  InstPtr merged = ast::make(pool, e.target);
  switch (e.kind) {
    case TransformKind::SplitAdd: sub_mod256_into(merged->value, b, a); break;
    case TransformKind::SplitSub: add_mod256_into(merged->value, b, a); break;
    case TransformKind::SplitXor: xor_bytes_into(merged->value, b, a); break;
    case TransformKind::SplitCat:
      merged->value.assign(a.begin(), a.end());
      append(merged->value, b);
      break;
    default: return exec_fail(e, "not a split");
  }
  p = std::move(merged);
  return Status::success();
}

void forward_const(Inst& p, const AppliedTransform& e) {
  switch (e.kind) {
    case TransformKind::ConstAdd: add_key_in(p.value, e.key); break;
    case TransformKind::ConstSub: sub_key_in(p.value, e.key); break;
    case TransformKind::ConstXor: xor_key_in(p.value, e.key); break;
    default: break;
  }
}

void inverse_const(std::span<Byte> value, const AppliedTransform& e) {
  switch (e.kind) {
    case TransformKind::ConstAdd: sub_key_in(value, e.key); break;
    case TransformKind::ConstSub: add_key_in(value, e.key); break;
    case TransformKind::ConstXor: xor_key_in(value, e.key); break;
    default: break;
  }
}

Status forward_boundary_change(InstPtr& p, const AppliedTransform& e,
                               InstPool* pool) {
  // Width-correct placeholder; the real value is set by the holder pass
  // (runtime/derive) once the final wire size of the data child is known.
  InstPtr length = ast::make(pool, e.created_a);
  if (e.len_ascii) {
    ascii_dec_encode_into(length->value, 0, e.len_width);
  } else {
    length->value.assign(e.len_width, 0);
  }
  InstPtr seq = ast::make(pool, e.created_seq);
  seq->children.reserve(2);
  seq->children.push_back(std::move(length));
  seq->children.push_back(std::move(p));
  p = std::move(seq);
  return Status::success();
}

Status inverse_boundary_change(InstPtr& p, const AppliedTransform& e) {
  if (p->children.size() != 2 || p->children[1]->schema != e.target) {
    return exec_fail(e, "unexpected boundary-change shape");
  }
  p = std::move(p->children[1]);
  return Status::success();
}

Status forward_pad(Inst& p, const AppliedTransform& e, Rng& rng,
                   InstPool* pool) {
  if (e.pad_index > p.children.size()) {
    return exec_fail(e, "pad index out of range");
  }
  InstPtr pad = ast::make(pool, e.created_a);
  rng.fill(pad->value, e.pad_size);
  p.children.insert(
      p.children.begin() + static_cast<std::ptrdiff_t>(e.pad_index),
      std::move(pad));
  return Status::success();
}

Status inverse_pad(Inst& p, const AppliedTransform& e) {
  if (e.pad_index >= p.children.size() ||
      p.children[e.pad_index]->schema != e.created_a) {
    return exec_fail(e, "pad not found at recorded index");
  }
  p.children.erase(p.children.begin() +
                   static_cast<std::ptrdiff_t>(e.pad_index));
  return Status::success();
}

Status forward_group_split(InstPtr& p, const AppliedTransform& e,
                           NodeId cnt_node, NodeId t1_node, NodeId t2_node,
                           NodeId rest_node, InstPool* pool) {
  std::vector<InstPtr> elements = std::move(p->children);
  InstPtr firsts = ast::make(pool, t1_node);
  InstPtr seconds = ast::make(pool, t2_node);
  firsts->children.reserve(elements.size());
  seconds->children.reserve(elements.size());
  for (InstPtr& element : elements) {
    if (element->children.size() < 2) {
      return exec_fail(e, "element with fewer than two children");
    }
    if (rest_node == kNoNode && element->children.size() != 2) {
      return exec_fail(e, "element of more than two children and no rest");
    }
    firsts->children.push_back(std::move(element->children[0]));
    if (rest_node == kNoNode) {
      seconds->children.push_back(std::move(element->children[1]));
    } else {
      InstPtr rest = ast::make(pool, rest_node);
      rest->children.reserve(element->children.size() - 1);
      for (std::size_t i = 1; i < element->children.size(); ++i) {
        rest->children.push_back(std::move(element->children[i]));
      }
      seconds->children.push_back(std::move(rest));
    }
  }
  const std::size_t m = firsts->children.size();
  InstPtr seq = ast::make(pool, e.created_seq);
  seq->children.reserve(cnt_node != kNoNode ? 3 : 2);
  if (cnt_node != kNoNode) {
    InstPtr cnt = ast::make(pool, cnt_node);
    be_encode_into(cnt->value, static_cast<std::uint64_t>(m), 2);
    seq->children.push_back(std::move(cnt));
  }
  seq->children.push_back(std::move(firsts));
  seq->children.push_back(std::move(seconds));
  p = std::move(seq);
  return Status::success();
}

Status inverse_group_split(InstPtr& p, const AppliedTransform& e, bool has_cnt,
                           NodeId rest_node, InstPool* pool) {
  const std::size_t expected = has_cnt ? 3 : 2;
  if (p->children.size() != expected) {
    return exec_fail(e, "unexpected group-split shape");
  }
  Inst& t1 = *p->children[expected - 2];
  Inst& t2 = *p->children[expected - 1];
  if (t1.children.size() != t2.children.size()) {
    return exec_fail(e, "tabular halves with different element counts");
  }
  InstPtr merged = ast::make(pool, e.target);
  merged->children.reserve(t1.children.size());
  for (std::size_t k = 0; k < t1.children.size(); ++k) {
    InstPtr element = ast::make(pool, e.element);
    element->children.reserve(rest_node == kNoNode
                                  ? 2
                                  : 1 + t2.children[k]->children.size());
    element->children.push_back(std::move(t1.children[k]));
    if (rest_node == kNoNode) {
      element->children.push_back(std::move(t2.children[k]));
    } else {
      Inst& rest = *t2.children[k];
      for (auto& sub : rest.children) {
        element->children.push_back(std::move(sub));
      }
    }
    merged->children.push_back(std::move(element));
  }
  p = std::move(merged);
  return Status::success();
}

Status forward_child_move(Inst& p, const AppliedTransform& e) {
  const auto i = static_cast<std::size_t>(e.child_i);
  const auto j = static_cast<std::size_t>(e.child_j);
  if (i >= p.children.size() || j >= p.children.size()) {
    return exec_fail(e, "swap index out of range");
  }
  std::swap(p.children[i], p.children[j]);
  return Status::success();
}

// --- one dispatch -----------------------------------------------------------
//
// Both executors apply an entry at one matched instance through these: the
// sequential one after a for_each_match walk, the compiled one at the end
// of an op's resolved path.

Status apply_forward(InstPtr& p, const AppliedTransform& e, Rng& rng,
                     InstPool* pool) {
  switch (e.kind) {
    case TransformKind::SplitAdd:
    case TransformKind::SplitSub:
    case TransformKind::SplitXor:
    case TransformKind::SplitCat:
      return forward_split(p, e, rng, pool);
    case TransformKind::ConstAdd:
    case TransformKind::ConstSub:
    case TransformKind::ConstXor:
      forward_const(*p, e);
      return Status::success();
    case TransformKind::BoundaryChange:
      return forward_boundary_change(p, e, pool);
    case TransformKind::PadInsert:
      return forward_pad(*p, e, rng, pool);
    case TransformKind::ReadFromEnd:
      return Status::success();  // handled at emission/parse time
    case TransformKind::TabSplit:
      return forward_group_split(p, e, kNoNode, e.created_a, e.created_b,
                                 e.created_c, pool);
    case TransformKind::RepSplit:
      return forward_group_split(p, e, e.created_a, e.created_b, e.created_c,
                                 e.created_d, pool);
    case TransformKind::ChildMove:
      return forward_child_move(*p, e);
  }
  return Status::success();
}

Status apply_inverse(InstPtr& p, const AppliedTransform& e, InstPool* pool) {
  switch (e.kind) {
    case TransformKind::SplitAdd:
    case TransformKind::SplitSub:
    case TransformKind::SplitXor:
    case TransformKind::SplitCat:
      return inverse_split(p, e, pool);
    case TransformKind::ConstAdd:
    case TransformKind::ConstSub:
    case TransformKind::ConstXor:
      inverse_const(p->value, e);
      return Status::success();
    case TransformKind::BoundaryChange:
      return inverse_boundary_change(p, e);
    case TransformKind::PadInsert:
      return inverse_pad(*p, e);
    case TransformKind::ReadFromEnd:
      return Status::success();
    case TransformKind::TabSplit:
      return inverse_group_split(p, e, /*has_cnt=*/false, e.created_c, pool);
    case TransformKind::RepSplit:
      return inverse_group_split(p, e, /*has_cnt=*/true, e.created_d, pool);
    case TransformKind::ChildMove:
      return forward_child_move(*p, e);  // swap is its own inverse
  }
  return Status::success();
}

/// Applies `op` at each instance whose schema equals `match`, bottom-first
/// is not needed: an instance of `match` can never nest inside another one.
template <typename Op>
Status for_each_match(InstPtr& p, NodeId match, Op&& op) {
  if (p->schema == match) return op(p);
  if (!p->present) return Status::success();
  for (InstPtr& child : p->children) {
    if (Status s = for_each_match(child, match, op); !s) return s;
  }
  return Status::success();
}

// --- compiled passes --------------------------------------------------------

/// Applies `op` at every instance `path` leads to from `p`: a child index
/// steps into that child, kEach into every element. Descending through an
/// absent node reaches nothing, as in for_each_match; the node reached must
/// be `site`, or the op fails naming journal entry `entry`.
template <typename Op>
Status along(InstPtr* p, std::span<const std::uint32_t> path, NodeId site,
             std::uint32_t entry, const Op& op) {
  for (; !path.empty(); path = path.subspan(1)) {
    Inst& node = **p;
    if (!node.present) return Status::success();
    if (path[0] == JournalProgram::kEach) {
      for (InstPtr& element : node.children) {
        if (Status s = along(&element, path.subspan(1), site, entry, op); !s) {
          return s;
        }
      }
      return Status::success();
    }
    if (path[0] >= node.children.size()) break;
    p = &node.children[path[0]];
  }
  if (!path.empty() || (*p)->schema != site) {
    return Unexpected("journal entry " + std::to_string(entry) +
                      ": no node " + std::to_string(site) +
                      " at its resolved path");
  }
  return op(*p);
}

/// Post-order: the children's ops run first, so a TabSplit/RepSplit at
/// this node finds its elements already transformed.
Status forward_node(InstPtr& slot, const JournalProgram& program,
                    const Journal& journal, EntryStreams& streams,
                    InstPool* pool) {
  if (slot->present) {
    for (InstPtr& child : slot->children) {
      if (Status s = forward_node(child, program, journal, streams, pool); !s) {
        return s;
      }
    }
  }
  for (const JournalProgram::Op& op : program.ops_of(slot->schema)) {
    const AppliedTransform& e = journal[op.entry];
    Rng& rng = streams[op.entry];
    if (Status s = along(&slot, program.path(op.forward), e.target, op.entry,
                         [&](InstPtr& p) {
                           return apply_forward(p, e, rng, pool);
                         });
        !s) {
      return s;
    }
  }
  return Status::success();
}

/// Top-down: the slot's owner region collapses back to the owner's
/// instance first, whose children are then the tops of their own regions.
Status inverse_node(InstPtr& slot, const JournalProgram& program,
                    const Journal& journal, InstPool* pool) {
  const auto ops = program.ops_of(program.owner_of(slot->schema));
  for (auto op = ops.rbegin(); op != ops.rend(); ++op) {
    const AppliedTransform& e = journal[op->entry];
    if (Status s = along(&slot, program.path(op->inverse), inverse_site(e),
                         op->entry,
                         [&](InstPtr& p) { return apply_inverse(p, e, pool); });
        !s) {
      return s;
    }
  }
  if (!slot->present) return Status::success();
  for (InstPtr& child : slot->children) {
    if (Status s = inverse_node(child, program, journal, pool); !s) return s;
  }
  return Status::success();
}

// --- read plans -------------------------------------------------------------

/// The terminal a leaf step reads below `top`; null when it is not where
/// the lineage puts it.
const Inst* leaf_of(const ReadPlan::Step& step, const Inst& top) {
  const Inst* leaf = &top;
  for (const std::uint32_t k : step.path) {
    if (k >= leaf->children.size()) break;
    leaf = leaf->children[k].get();
  }
  if (leaf->schema != step.node || !leaf->children.empty()) return nullptr;
  return leaf;
}

/// Evaluates step `s` of `plan` and appends its bytes to `registers`,
/// returning where they start: a leaf loads its terminal, a split step
/// combines its halves' bytes as inverse_split does; either then undoes
/// the step's Const* entries, latest first.
Expected<std::size_t> eval_step(const ReadPlan& plan, std::size_t s,
                                const Inst& top, const Journal& journal,
                                Bytes& registers) {
  const ReadPlan::Step& step = plan.steps[s];
  std::size_t out = registers.size();
  if (step.split == ReadPlan::kLeaf) {
    const Inst* leaf = leaf_of(step, top);
    if (leaf == nullptr) {
      return Unexpected("no terminal " + std::to_string(step.node) +
                        " where the lineage puts it");
    }
    registers.insert(registers.end(), leaf->value.begin(), leaf->value.end());
  } else {
    auto a = eval_step(plan, step.halves, top, journal, registers);
    if (!a) return a;
    const std::size_t a_size = registers.size() - *a;
    auto b = eval_step(plan, step.halves + 1, top, journal, registers);
    if (!b) return b;
    const std::size_t b_size = registers.size() - *b;
    const TransformKind kind = journal[step.split].kind;
    out = registers.size();
    if (kind == TransformKind::SplitCat) {
      registers.resize(out + a_size + b_size);
      std::copy_n(registers.begin() + *a, a_size, registers.begin() + out);
      std::copy_n(registers.begin() + *b, b_size,
                  registers.begin() + out + a_size);
    } else if (a_size != b_size) {
      return Unexpected("journal entry " + std::to_string(step.split) + " (" +
                        to_string(kind) + "): split halves of unequal size");
    } else {
      registers.resize(out + a_size);
      for (std::size_t i = 0; i < a_size; ++i) {
        const Byte x = registers[*a + i];
        const Byte y = registers[*b + i];
        registers[out + i] =
            static_cast<Byte>(kind == TransformKind::SplitAdd   ? y - x
                              : kind == TransformKind::SplitSub ? y + x
                                                                : y ^ x);
      }
    }
  }
  for (auto it = step.consts.rbegin(); it != step.consts.rend(); ++it) {
    inverse_const(std::span(registers).subspan(out), journal[*it]);
  }
  return out;
}

}  // namespace

void EntryStreams::reset(std::uint64_t msg_seed, std::size_t entries) {
  streams_.clear();
  streams_.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    // One SplitMix64 round over a distinct input per (message, entry)
    // seeds each stream, so the streams are independent of each other
    // and of the per-holder streams of the holder pass.
    Rng key(msg_seed ^ (0xd1b54a32d192ed03ull * (i + 1)));
    streams_.emplace_back(key.next_u64());
  }
}

Status forward_entry(InstPtr& root, const AppliedTransform& entry, Rng& rng,
                     InstPool* pool) {
  if (entry.kind == TransformKind::ReadFromEnd) return Status::success();
  return for_each_match(root, entry.target, [&](InstPtr& p) {
    return apply_forward(p, entry, rng, pool);
  });
}

Status inverse_entry(InstPtr& root, const AppliedTransform& entry,
                     InstPool* pool) {
  if (entry.kind == TransformKind::ReadFromEnd) return Status::success();
  return for_each_match(root, inverse_site(entry), [&](InstPtr& p) {
    return apply_inverse(p, entry, pool);
  });
}

Status forward_all(InstPtr& root, const Journal& journal,
                   std::uint64_t msg_seed, InstPool* pool) {
  EntryStreams streams;
  streams.reset(msg_seed, journal.size());
  for (std::size_t i = 0; i < journal.size(); ++i) {
    if (Status s = forward_entry(root, journal[i], streams[i], pool); !s) {
      return s;
    }
  }
  return Status::success();
}

Status inverse_all(InstPtr& root, const Journal& journal, InstPool* pool) {
  for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
    if (Status s = inverse_entry(root, *it, pool); !s) return s;
  }
  return Status::success();
}

Status forward_program(InstPtr& root, const JournalProgram& program,
                       const Journal& journal, EntryStreams& streams,
                       InstPool* pool) {
  if (program.empty()) return Status::success();
  return forward_node(root, program, journal, streams, pool);
}

Status inverse_program(InstPtr& root, const JournalProgram& program,
                       const Journal& journal, InstPool* pool) {
  if (program.empty()) return Status::success();
  return inverse_node(root, program, journal, pool);
}

Expected<BytesView> read_value(const ReadPlan& plan, const Inst& top,
                               const Journal& journal, Bytes& registers) {
  if (plan.direct()) {
    if (const Inst* leaf = leaf_of(plan.steps[0], top)) {
      return BytesView(leaf->value);
    }
  }
  registers.clear();
  if (plan.steps.empty()) return Unexpected("holder without a read plan");
  auto value = eval_step(plan, 0, top, journal, registers);
  if (!value) return Unexpected(value.error());
  return BytesView(registers).subspan(*value);
}

Expected<InstPtr> invert_chain(const Inst& wire_subtree, const Journal& journal,
                               const std::vector<std::size_t>& chain,
                               InstPool* pool) {
  InstPtr copy = ast::copy(pool, wire_subtree);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (Status s = inverse_entry(copy, journal[*it], pool); !s) {
      return Unexpected(s.error());
    }
  }
  return copy;
}

Expected<InstPtr> rerun_chain(NodeId origin, BytesView logical_value,
                              const Journal& journal,
                              const std::vector<std::size_t>& chain, Rng& rng,
                              InstPool* pool) {
  InstPtr p = ast::terminal(pool, origin, logical_value);
  for (std::size_t idx : chain) {
    if (Status s = forward_entry(p, journal[idx], rng, pool); !s) {
      return Unexpected(s.error());
    }
  }
  return p;
}

}  // namespace protoobf
