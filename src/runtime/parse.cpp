#include "runtime/parse.hpp"

#include <algorithm>
#include <optional>

#include "runtime/scope.hpp"
#include "transform/exec.hpp"

namespace protoobf {

namespace {

struct Reader {
  BytesView data;
  std::size_t pos = 0;
  std::size_t end = 0;
  // A soft end is the end of the *input*, not of an enclosed region: more
  // bytes appended to the stream would extend it. Running short against a
  // soft end is a truncation; against a hard region it is a malformation.
  bool soft = false;

  std::size_t remaining() const { return end - pos; }
  BytesView window() const { return data.subspan(pos, end - pos); }
};

class WireParser {
 public:
  WireParser(const Graph& wire, const Journal& journal,
             const HolderTable& table, Workspace& ws, bool prefix = false,
             ParseResume* resume = nullptr)
      : wire_(wire),
        journal_(journal),
        table_(table),
        ws_(ws),
        prefix_(prefix),
        resume_(resume) {}

  Expected<InstPtr> parse(BytesView data, std::size_t* consumed = nullptr) {
    resuming_ = false;
    depth_ = 0;
    if (resume_ != nullptr) {
      ++resume_->mutable_stats().attempts;
      if (resume_->active() && data.size() < resume_->suspended_size()) {
        // The buffer front shrank below the suspended attempt's window:
        // the checkpoint describes bytes that no longer exist. Start over.
        resume_->invalidate();
      }
      if (resume_->active()) {
        resuming_ = true;
        ++resume_->mutable_stats().resumed;
      } else {
        resume_->discard();
      }
    }
    Reader reader{data, 0, data.size(), /*soft=*/true};
    auto root = parse_node(wire_.root(), reader, nullptr);
    if (resume_ != nullptr) {
      if (root.ok()) {
        resume_->discard();  // checkpoint consumed by the completed parse
      } else if (root.error().truncated()) {
        resume_->suspend(data.size());
      } else {
        resume_->invalidate();  // a malformed front can never continue
      }
    }
    if (!root) return root;
    if (prefix_) {
      if (consumed != nullptr) *consumed = reader.pos;
    } else if (reader.pos != reader.end) {
      return fail(reader, "trailing bytes after message");
    }
    return root;
  }

 private:
  Unexpected fail(const Reader& r, const std::string& what) const {
    return Unexpected(what, r.pos);
  }

  /// Ran out of bytes: a truncation when the shortage is against the end of
  /// the input itself, a malformation when against an enclosing region.
  Unexpected fail_short(const Reader& r, const std::string& what,
                        std::size_t need) const {
    if (r.soft) return Unexpected::truncated(what, r.pos, need);
    return Unexpected(what, r.pos);
  }

  /// Resolves `ref` from the dependant's parent `up` along its route, runs
  /// its read plan over the parsed subtree, and hands the logical bytes to
  /// `use`. A direct plan reads the leaf in place; any other runs in the
  /// workspace's registers, which `use` is done with before the next read.
  template <typename T, typename Use>
  Expected<T> read_reference(NodeId ref, const Ancestor* up, const Reader& r,
                             Use&& use) const {
    const HolderInfo* info = table_.find_reference(ref);
    if (info == nullptr) {
      return fail(r, "reference target '" + wire_.node(ref).name +
                         "' has no lineage");
    }
    const Inst* target = resolve(info->route, up);
    if (target == nullptr) {
      return fail(r, "reference target '" + wire_.node(ref).name +
                         "' not yet parsed");
    }
    auto bytes = read_value(info->plan, *target, journal_, ws_.registers);
    if (!bytes) {
      return fail(r, "reference target '" + wire_.node(ref).name +
                         "' does not invert: " + bytes.error().message);
    }
    return use(*bytes, *info);
  }

  /// Logical scalar of a holder (length or count), decoded with the origin
  /// terminal's encoding.
  Expected<std::uint64_t> scalar(NodeId ref, const Ancestor* up,
                                 const Reader& r) const {
    return read_reference<std::uint64_t>(
        ref, up, r,
        [&](BytesView bytes,
            const HolderInfo& info) -> Expected<std::uint64_t> {
          if (wire_.node(info.origin).encoding == Encoding::AsciiDec) {
            auto value = ascii_dec_decode(bytes);
            if (!value) return fail(r, "holder is not a decimal number");
            return *value;
          }
          if (bytes.size() > 8) return fail(r, "holder wider than 8 bytes");
          return be_decode(bytes);
        });
  }

  /// Truncated unwind through a checkpointed node: park the partially
  /// built instance in its frame (committed children included) so the
  /// retry continues from it. Other errors pass through untouched — a
  /// malformed parse drops the whole checkpoint at the top level.
  Expected<InstPtr> stash(InstPtr inst, ResumeFrame* frame,
                          Expected<InstPtr>& err) {
    if (frame != nullptr && err.error().truncated()) {
      frame->partial = std::move(inst);
    }
    return std::move(err);
  }

  Unexpected stash_short(InstPtr inst, ResumeFrame* frame, Unexpected err) {
    if (frame != nullptr && err.error.truncated()) {
      frame->partial = std::move(inst);
    }
    return err;
  }

  /// `up` is the entry of the instance being parsed around this node (null
  /// at the root): references resolve from it.
  Expected<InstPtr> parse_node(NodeId id, Reader& r, const Ancestor* up) {
    if (resume_ == nullptr || !r.soft) {
      // Hard regions are carved out of bytes already in the buffer, so
      // they complete or fail for good within one attempt — only the
      // stream-open (soft) spine ever needs a checkpoint.
      return parse_node_impl(id, r, /*ignore_mirror=*/false, nullptr, up);
    }
    auto& spine = resume_->spine();
    const std::size_t slot = depth_;
    ++depth_;
    if (resuming_ && slot < spine.size()) {
      // Resume descent: this call must re-enter the very node the
      // checkpoint recorded at this depth — the walk is deterministic
      // over the committed bytes, so a mismatch means the resume contract
      // was broken. Fail hard; the top level drops the checkpoint.
      ResumeFrame& frame = spine[slot];
      if (frame.node != id) {
        --depth_;
        return fail(r, "resume checkpoint does not match the parse path");
      }
      if (slot + 1 == spine.size()) resuming_ = false;  // leaf: go live here
      r.pos = frame.partial != nullptr ? frame.pos : frame.start;
      auto result =
          parse_node_impl(id, r, /*ignore_mirror=*/false, &frame, up);
      --depth_;
      if (result.ok()) spine.pop_back();  // children of a completed node
                                          // already popped theirs
      return result;
    }
    // A node freshly entering the open spine. The deque keeps frame
    // references stable while deeper calls push their own.
    spine.emplace_back();
    ResumeFrame& frame = spine.back();
    frame.node = id;
    frame.start = r.pos;
    frame.pos = r.pos;
    auto result = parse_node_impl(id, r, /*ignore_mirror=*/false, &frame, up);
    --depth_;
    if (result.ok()) spine.pop_back();
    return result;
  }

  Expected<InstPtr> parse_node_impl(NodeId id, Reader& r, bool ignore_mirror,
                                    ResumeFrame* frame, const Ancestor* up) {
    const Node& n = wire_.node(id);

    // Region determination ---------------------------------------------------
    std::optional<std::size_t> region_end;
    const bool stop_marker_rep = n.type == NodeType::Repetition &&
                                 n.boundary == BoundaryKind::Delimited;
    if (ignore_mirror) {
      // Re-entry on the reversed copy of a mirrored region: the buffer *is*
      // the region, whatever the declared boundary says.
      region_end = r.end;
      return parse_in_region(n, id, r, region_end, stop_marker_rep, nullptr,
                             up);
    }
    if (frame != nullptr && frame->partial != nullptr) {
      // Restored mid-children composite. Only region-less nodes (open-End
      // sequences, Delegated/Counter composites, stop-marker repetitions)
      // can suspend with a partial — everything with an intrinsic region
      // completes or fails hard once the region is carved — so re-entry
      // skips region determination and rejoins the child walk.
      return parse_in_region(n, id, r, std::nullopt, stop_marker_rep, frame,
                             up);
    }
    switch (n.boundary) {
      case BoundaryKind::Fixed:
        if (r.remaining() < n.fixed_size) {
          return fail_short(r, "truncated input in '" + n.name + "'",
                            n.fixed_size - r.remaining());
        }
        region_end = r.pos + n.fixed_size;
        break;
      case BoundaryKind::Half: {
        if (prefix_ && r.soft) {
          return fail(r, "split half '" + n.name +
                             "' is not self-delimiting in a stream");
        }
        if (r.remaining() % 2 != 0) {
          return fail(r, "odd region for split halves in '" + n.name + "'");
        }
        region_end = r.pos + r.remaining() / 2;
        break;
      }
      case BoundaryKind::Length: {
        auto length = scalar(n.ref, up, r);
        if (!length) return Unexpected(length.error());
        if (*length > r.remaining()) {
          return fail_short(r, "length of '" + n.name + "' exceeds region",
                            *length - r.remaining());
        }
        region_end = r.pos + *length;
        break;
      }
      case BoundaryKind::End:
        // In prefix mode a region that runs "to the end of the input" is
        // meaningless — the input end is wherever the stream happens to
        // pause. A sequence copes (its children delimit themselves, so the
        // region stays undetermined); anything else is not self-delimiting.
        if (prefix_ && r.soft) {
          if (n.type != NodeType::Sequence || n.mirrored) {
            return fail(r, "'" + n.name +
                               "' extends to the end of the input and is "
                               "not self-delimiting in a stream");
          }
          break;
        }
        region_end = r.end;
        break;
      case BoundaryKind::Delimited: {
        if (!stop_marker_rep) {
          // Resume mid-scan: bytes a previous attempt already rejected are
          // never re-read — the degenerate O(frame²) delimiter search under
          // trickled delivery becomes O(frame) total.
          std::size_t from = r.pos;
          if (frame != nullptr && frame->scanning) {
            from = std::max(from, frame->scan_from);
          }
          const auto found = find(r.data.first(r.end), n.delimiter, from);
          if (resume_ != nullptr) {
            const std::size_t upto =
                found ? *found + n.delimiter.size() : r.end;
            resume_->mutable_stats().scanned_bytes +=
                upto > from ? upto - from : 0;
          }
          if (!found) {
            if (frame != nullptr) {
              // Starts up to end-delim are ruled out for good; a later
              // occurrence can only begin inside the last delim-1 bytes
              // (a partial match may straddle the append point).
              const std::size_t delim = n.delimiter.size();
              frame->scanning = true;
              frame->scan_from = std::max(
                  r.pos, r.end >= delim - 1 ? r.end - (delim - 1) : r.pos);
            }
            return fail_short(r, "delimiter of '" + n.name + "' not found",
                              1);
          }
          region_end = *found;
        }
        break;
      }
      case BoundaryKind::Delegated:
      case BoundaryKind::Counter:
        break;
    }

    // Mirrored subtree: reverse the region, parse it as a fresh buffer. The
    // reversed copy comes from the workspace's buffers, so a kept workspace
    // reuses its capacity instead of reallocating; mirrored regions nest.
    if (n.mirrored && !ignore_mirror) {
      if (!region_end) {
        return fail(r, "mirrored node '" + n.name + "' without a region");
      }
      Bytes temp = ws_.buffers.acquire();
      assign_reversed(temp, r.data.subspan(r.pos, *region_end - r.pos));
      // The reversed copy is a complete region: its end is hard.
      Reader mirror_reader{temp, 0, temp.size(), /*soft=*/false};
      auto inst = parse_node_impl(id, mirror_reader, /*ignore_mirror=*/true,
                                  nullptr, up);
      const bool consumed = mirror_reader.pos == mirror_reader.end;
      ws_.buffers.release(std::move(temp));
      if (!inst) return inst;
      if (!consumed) {
        return fail(r, "mirrored region of '" + n.name +
                           "' not fully consumed");
      }
      r.pos = *region_end;
      return inst;
    }

    return parse_in_region(n, id, r, region_end, stop_marker_rep, frame, up);
  }

  Expected<InstPtr> parse_in_region(const Node& n, NodeId id, Reader& r,
                                    std::optional<std::size_t> region_end,
                                    bool stop_marker_rep, ResumeFrame* frame,
                                    const Ancestor* up) {
    // Regions carved out of the input by an intrinsic boundary (fixed size,
    // length holder, delimiter scan) are hard: running short inside them is
    // a malformation. Only an `end` region inherits the reader's softness —
    // it reaches to wherever the input currently stops.
    const bool sub_soft = r.soft && n.boundary == BoundaryKind::End;
    // A restored composite rejoins its own child walk: the committed
    // children stay parsed, the loop continues at the saved cursor.
    const bool restored = frame != nullptr && frame->partial != nullptr;
    InstPtr inst;
    if (restored) inst = std::move(frame->partial);
    switch (n.type) {
      case NodeType::Terminal: {
        inst = ast::terminal(&ws_.nodes, id,
                             r.data.subspan(r.pos, *region_end - r.pos));
        r.pos = *region_end;
        break;
      }
      case NodeType::Sequence: {
        if (!restored) inst = ws_.nodes.make(id);
        const Ancestor here(inst.get(), up);
        if (region_end) {
          Reader sub{r.data, r.pos, *region_end, sub_soft};
          for (NodeId child : n.children) {
            auto parsed = parse_node(child, sub, &here);
            if (!parsed) return parsed;
            inst->children.push_back(std::move(*parsed));
          }
          if (sub.pos != sub.end) {
            return fail(sub, "trailing bytes in region of '" + n.name + "'");
          }
          r.pos = *region_end;
        } else {
          for (std::size_t ci = restored ? frame->next_child : 0;
               ci < n.children.size(); ++ci) {
            if (frame != nullptr) {
              frame->next_child = ci;
              frame->pos = r.pos;
            }
            auto parsed = parse_node(n.children[ci], r, &here);
            if (!parsed) return stash(std::move(inst), frame, parsed);
            inst->children.push_back(std::move(*parsed));
          }
        }
        break;
      }
      case NodeType::Optional: {
        // A restored frame implies the condition already evaluated true and
        // the child was in flight; absent optionals complete in one attempt.
        bool present = true;
        if (!restored && n.condition.kind != Condition::Kind::Always) {
          auto holds = read_reference<bool>(
              n.condition.ref, up, r,
              [&](BytesView bytes, const HolderInfo&) -> Expected<bool> {
                return n.condition.evaluate(bytes);
              });
          if (!holds) return Unexpected(holds.error());
          present = *holds;
        }
        if (present) {
          if (!restored) inst = ws_.nodes.make(id);
          if (frame != nullptr) frame->pos = r.pos;
          const Ancestor here(inst.get(), up);
          auto child = parse_node(n.children[0], r, &here);
          if (!child) return stash(std::move(inst), frame, child);
          inst->children.push_back(std::move(*child));
        } else {
          inst = ast::absent(&ws_.nodes, id);
        }
        break;
      }
      case NodeType::Repetition: {
        if (!restored) inst = ws_.nodes.make(id);
        const Ancestor here(inst.get(), up);
        if (stop_marker_rep) {
          while (true) {
            if (frame != nullptr) {
              frame->next_child = inst->children.size();
              frame->pos = r.pos;
            }
            const BytesView w = r.window();
            if (resume_ != nullptr) {
              resume_->mutable_stats().scanned_bytes +=
                  std::min(w.size(), n.delimiter.size());
            }
            if (starts_with(w, n.delimiter)) {
              r.pos += n.delimiter.size();
              break;
            }
            if (r.soft && w.size() < n.delimiter.size() &&
                std::equal(w.begin(), w.end(), n.delimiter.begin())) {
              // Undecided against the stream end: the input stops inside
              // what may be the stop marker. Parsing an element here could
              // commit bytes a completed marker would claim, so wait for
              // the decision — the need hint is exact. (Against a hard
              // region end the marker can never complete, so the element
              // parse proceeds as before.)
              return stash_short(
                  std::move(inst), frame,
                  fail_short(r, "unterminated repetition '" + n.name + "'",
                             n.delimiter.size() - w.size()));
            }
            if (r.pos >= r.end) {
              return stash_short(
                  std::move(inst), frame,
                  fail_short(r, "unterminated repetition '" + n.name + "'",
                             n.delimiter.size()));
            }
            auto element = parse_element(n.children[0], r, true, &here);
            if (!element) return stash(std::move(inst), frame, element);
            inst->children.push_back(std::move(*element));
          }
        } else {
          Reader sub{r.data, r.pos, *region_end, sub_soft};
          while (sub.pos < sub.end) {
            auto element = parse_element(n.children[0], sub, true, &here);
            if (!element) return element;
            inst->children.push_back(std::move(*element));
          }
          r.pos = *region_end;
        }
        break;
      }
      case NodeType::Tabular: {
        std::uint64_t count = 0;
        if (frame != nullptr && frame->counted) {
          count = frame->total;
        } else {
          auto scalar_count = scalar(n.ref, up, r);
          if (!scalar_count) return Unexpected(scalar_count.error());
          count = *scalar_count;
          if (frame != nullptr) {
            frame->total = count;
            frame->counted = true;
          }
        }
        if (!restored) inst = ws_.nodes.make(id);
        const Ancestor here(inst.get(), up);
        for (std::uint64_t k = restored ? inst->children.size() : 0;
             k < count; ++k) {
          if (frame != nullptr) {
            frame->next_child = static_cast<std::size_t>(k);
            frame->pos = r.pos;
          }
          // Tabular elements may be legitimately empty: the count, not
          // progress, terminates the loop.
          auto element = parse_element(n.children[0], r, false, &here);
          if (!element) return stash(std::move(inst), frame, element);
          inst->children.push_back(std::move(*element));
        }
        break;
      }
    }

    // Consume the delimiter of scanned (non-repetition) nodes.
    if (n.boundary == BoundaryKind::Delimited && !stop_marker_rep) {
      if (r.pos != *region_end) {
        return fail(r, "region of '" + n.name + "' not fully consumed");
      }
      r.pos = *region_end + n.delimiter.size();
    }
    return inst;
  }

  Expected<InstPtr> parse_element(NodeId element, Reader& r,
                                  bool require_progress, const Ancestor* up) {
    const std::size_t before = r.pos;
    auto parsed = parse_node(element, r, up);
    if (!parsed) return parsed;
    if (require_progress && r.pos == before) {
      return fail(r, "repetition element consumed no input");
    }
    return parsed;
  }

  const Graph& wire_;
  const Journal& journal_;
  const HolderTable& table_;
  Workspace& ws_;
  bool prefix_ = false;
  ParseResume* resume_ = nullptr;  // suspend/resume and stats; prefix only
  bool resuming_ = false;          // descending into a saved spine
  std::size_t depth_ = 0;          // current open-spine depth
};

}  // namespace

Expected<InstPtr> parse_wire(const Graph& wire, const Journal& journal,
                             const HolderTable& table, BytesView data,
                             Workspace& ws) {
  return WireParser(wire, journal, table, ws).parse(data);
}

Expected<InstPtr> parse_wire_prefix(const Graph& wire, const Journal& journal,
                                    const HolderTable& table, BytesView data,
                                    std::size_t& consumed, Workspace& ws,
                                    ParseResume* resume) {
  return WireParser(wire, journal, table, ws, /*prefix=*/true, resume)
      .parse(data, &consumed);
}

namespace {

/// `open` mirrors the parser's soft flag: true while the node's region
/// would reach to wherever the stream happens to pause.
Status check_stream_safe(const Graph& g, NodeId id, bool open) {
  const Node& n = g.node(id);
  bool child_open = false;
  if (open) {
    switch (n.boundary) {
      case BoundaryKind::End:
        if (n.type != NodeType::Sequence || n.mirrored) {
          return Unexpected("node '" + n.name +
                            "' extends to the end of the input and cannot "
                            "delimit itself in a stream");
        }
        child_open = true;
        break;
      case BoundaryKind::Half:
        return Unexpected("split half '" + n.name +
                          "' cannot delimit itself in a stream");
      case BoundaryKind::Fixed:
      case BoundaryKind::Length:
        child_open = false;
        break;
      case BoundaryKind::Delimited:
        // The scanned region is hard; a stop-marker repetition's elements
        // parse in the open reader until the marker shows up.
        child_open = n.type == NodeType::Repetition;
        break;
      case BoundaryKind::Delegated:
      case BoundaryKind::Counter:
        child_open = true;
        break;
    }
    if (n.mirrored && n.boundary != BoundaryKind::Fixed &&
        n.boundary != BoundaryKind::Length &&
        n.boundary != BoundaryKind::Delimited) {
      return Unexpected("mirrored node '" + n.name +
                        "' has no intrinsic region in a stream");
    }
  }
  for (const NodeId child : n.children) {
    if (Status s = check_stream_safe(g, child, child_open); !s) return s;
  }
  return Status::success();
}

}  // namespace

Status stream_safe(const Graph& wire) {
  return check_stream_safe(wire, wire.root(), /*open=*/true);
}

namespace {

std::size_t min_node_size(const Graph& g, NodeId id) {
  const Node& n = g.node(id);
  // Mandatory content: optionals may be absent, repetitions/tabulars may be
  // empty, so only Sequence children (and a Terminal's own region) count.
  std::size_t content = 0;
  switch (n.type) {
    case NodeType::Terminal:
      if (n.has_const) content = n.const_value.size();
      else if (n.boundary == BoundaryKind::Fixed) content = n.fixed_size;
      break;
    case NodeType::Sequence:
      for (const NodeId child : n.children) {
        content += min_node_size(g, child);
      }
      break;
    case NodeType::Optional:
    case NodeType::Repetition:
    case NodeType::Tabular:
      break;
  }
  // The region itself may add bytes beyond the content: a fixed region is
  // its declared size no matter how little sits inside, a scanned region
  // ends with its delimiter, a stop-marker repetition with its marker.
  if (n.boundary == BoundaryKind::Fixed && n.fixed_size > content) {
    content = n.fixed_size;
  }
  if (n.boundary == BoundaryKind::Delimited) {
    content += n.delimiter.size();
  }
  return content;  // mirroring permutes the region; it never resizes it
}

}  // namespace

std::size_t min_wire_size(const Graph& wire) {
  return min_node_size(wire, wire.root());
}

}  // namespace protoobf
