// Framing layer of the streaming API.
//
// On TCP the receiver sees an unbounded byte stream and must recover
// message boundaries before the obfuscated parser can run. A Framer owns
// that boundary: encode() wraps one serialized message into a wire frame,
// decode() examines the front of a reassembly buffer and yields either a
// complete frame, an explicit need-more-bytes signal, or a framing error.
// Returning "need more" instead of a parse failure is the contract that
// makes incremental delivery work — a merely-truncated buffer is never an
// error (util/result.hpp's ErrorKind::Truncated carries the distinction up
// from the wire parser).
//
// Two implementations: LengthPrefixFramer is the classic transparent
// length+body frame; ObfuscatedFramer routes the framing itself through a
// compiled ObfuscatedProtocol, so the boundary — the most fingerprintable
// part of a tunnel, per ScrambleSuit — is as opaque as the payload.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>

#include "ast/pool.hpp"
#include "runtime/protocol.hpp"
#include "runtime/resume.hpp"
#include "runtime/scope.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace protoobf {

/// Outcome of Framer::decode() on the front of a reassembly buffer.
struct FrameDecode {
  enum class Kind : std::uint8_t {
    Frame,     // a complete frame was recovered
    NeedMore,  // the buffer holds only a frame prefix; `need` more bytes
    Error,     // the buffer front cannot be a frame (see StreamReader::resync)
  };

  Kind kind = Kind::NeedMore;
  BytesView payload;         // Frame: the de-framed payload
  std::size_t consumed = 0;  // Frame: bytes the frame occupied in the buffer
  std::size_t need = 1;      // NeedMore: minimum additional bytes required
  Error error;               // Error: what is wrong with the buffer front

  static FrameDecode frame(BytesView payload, std::size_t consumed) {
    FrameDecode d;
    d.kind = Kind::Frame;
    d.payload = payload;
    d.consumed = consumed;
    return d;
  }
  static FrameDecode need_more(std::size_t n) {
    // A zero need is always a framer bug — the reader would re-attempt the
    // decode on the very same bytes and spin. Loudly in debug builds; the
    // release clamp below keeps old behaviour as a backstop.
    assert(n > 0 && "framer computed need_more(0)");
    FrameDecode d;
    d.kind = Kind::NeedMore;
    d.need = n > 0 ? n : 1;
    return d;
  }
  static FrameDecode fail(Error e) {
    FrameDecode d;
    d.kind = Kind::Error;
    d.error = std::move(e);
    return d;
  }
};

/// Pluggable frame codec. Stateless with respect to the stream position:
/// decode() is always called on the front of the unconsumed buffer and may
/// be retried on the same front with more bytes appended.
class Framer {
 public:
  virtual ~Framer() = default;

  /// Replaces `out` with the framed payload, reusing its capacity — callers
  /// route every frame of a connection through one buffer (session arena).
  virtual Status encode(BytesView payload, Bytes& out) = 0;

  /// Examines the front of `buffer`. A returned payload view aliases
  /// `buffer` itself when payload_aliases_buffer() is true (valid as long
  /// as those buffer bytes stay put), otherwise framer-owned scratch that
  /// the next decode() call reuses.
  virtual FrameDecode decode(BytesView buffer) = 0;

  /// Whether decode() payloads point into the caller's buffer (zero-copy)
  /// or into framer scratch (valid only until the next decode()).
  virtual bool payload_aliases_buffer() const = 0;

  /// Static floor on the bytes any frame occupies: decode() can never
  /// recover a frame from fewer, so readers skip decode attempts (and
  /// framers skip prefix parses) until this many bytes arrived. 1 — the
  /// conservative "anything might be a frame" answer — is always safe;
  /// length-driven framers report their exact header size instead.
  virtual std::size_t min_need() const { return 1; }

  /// The reader's notification that the buffer front moved for a reason
  /// other than "this frame was decoded" or "bytes were appended" —
  /// resync() byte skips and reset(). Framers holding incremental decode
  /// state across NeedMore retries (ObfuscatedFramer's resumable prefix
  /// parse) must drop it here; stateless framers ignore it.
  virtual void invalidate_decode_state() {}
};

/// Transparent `width`-byte payload-length prefix, big- or little-endian.
class LengthPrefixFramer final : public Framer {
 public:
  static constexpr std::size_t kDefaultMaxFrame = 16 * 1024 * 1024;

  struct Config {
    std::size_t width = 4;     // prefix bytes, 1..8
    bool little_endian = false;
    // Decode rejects frames whose payload exceeds this (a garbage or
    // hostile prefix must not stall the stream waiting for gigabytes);
    // encode refuses to produce them. 0 disables the guard.
    std::size_t max_frame_size = kDefaultMaxFrame;
  };

  LengthPrefixFramer() : LengthPrefixFramer(Config()) {}
  explicit LengthPrefixFramer(Config config);

  Status encode(BytesView payload, Bytes& out) override;
  FrameDecode decode(BytesView buffer) override;
  bool payload_aliases_buffer() const override { return true; }
  std::size_t min_need() const override { return config_.width; }

  const Config& config() const { return config_; }

 private:
  Config config_;
};

/// Frames payloads through a compiled ObfuscatedProtocol: the frame spec
/// (e.g. a length+body ProtoSpec) is obfuscated like any other protocol, so
/// message boundaries carry no plaintext structure. Decoding prefix-parses
/// the frame protocol off the buffer front; ErrorKind::Truncated becomes
/// the need-more signal.
class ObfuscatedFramer final : public Framer {
 public:
  struct Config {
    // Dotted path (ast::find_path syntax) of the payload terminal in the
    // frame spec; empty auto-detects the unique non-constant, non-holder
    // terminal.
    std::string payload_path;
    // Seeds the per-frame randomness of encode() (split halves, pads).
    std::uint64_t frame_seed = 1;
    // Whole-frame (header + payload + trailer) size cap; 0 disables. Also
    // enforced on the *accumulated* buffer while a frame keeps reporting
    // NeedMore, so a hostile trickle that never completes a frame cannot
    // grow the reassembly buffer without bound.
    std::size_t max_frame_size = LengthPrefixFramer::kDefaultMaxFrame;
  };

  /// Fails when the frame protocol's wire format is not stream-safe (see
  /// stream_safe(): a boundary reaching "to the end of the input" cannot
  /// delimit itself — e.g. the obfuscator mirrored the frame root) or when
  /// the payload terminal cannot be identified.
  static Expected<std::unique_ptr<ObfuscatedFramer>> create(
      std::shared_ptr<const ObfuscatedProtocol> framing, Config config);
  static Expected<std::unique_ptr<ObfuscatedFramer>> create(
      std::shared_ptr<const ObfuscatedProtocol> framing) {
    return create(std::move(framing), Config());
  }

  Status encode(BytesView payload, Bytes& out) override;
  FrameDecode decode(BytesView buffer) override;
  bool payload_aliases_buffer() const override { return false; }

  /// Static minimum wire size of the frame protocol (min_wire_size of its
  /// wire graph, floored at 1): for a length-driven frame spec this is the
  /// exact header size, so readers deliver that many bytes before the
  /// first prefix-parse attempt instead of re-parsing per byte.
  std::size_t min_need() const override { return min_need_; }

  /// Drops the suspended prefix parse (if any). StreamReader calls this on
  /// resync()/reset(); anyone decoding by hand must call it whenever the
  /// next decode() will not see the previous buffer front with bytes
  /// appended. (A shrunken buffer is additionally caught by the parser
  /// itself, so monotone test loops need no manual calls.)
  void invalidate_decode_state() override { resume_.invalidate(); }

  /// Incremental-decode accounting: attempts vs resumed attempts, bytes
  /// examined by delimiter/stop-marker scans, checkpoints dropped. The
  /// bench's decodes-per-frame / bytes-rescanned-per-frame counters and
  /// the O(frame) CI guard read these.
  const ParseResume::Stats& resume_stats() const { return resume_.stats(); }

  /// Whether a partially decoded frame is currently suspended.
  bool decode_suspended() const { return resume_.active(); }

  const ObfuscatedProtocol& framing() const { return *framing_; }

 private:
  ObfuscatedFramer(std::shared_ptr<const ObfuscatedProtocol> framing,
                   Config config, InstPtr skeleton, Inst* payload_slot,
                   NodeId payload_node, std::size_t min_need);

  std::shared_ptr<const ObfuscatedProtocol> framing_;
  Config config_;
  Rng rng_;                // per-frame encode seeds
  InstPtr skeleton_;       // reusable logical frame; payload mutated per encode
  Inst* payload_slot_;     // the payload terminal inside skeleton_
  NodeId payload_node_;    // its schema in the original frame graph
  std::size_t min_need_;   // static floor on any frame's wire size
  BufferPool scratch_;     // mirrored-region buffers
  DeriveScratch derive_;   // derive-pass work vectors
  InstPool nodes_;         // recycles frame trees across encodes/decodes
  ParseResume resume_;     // suspended prefix parse between NeedMore retries
                           // (declared after nodes_: partial trees must drop
                           // back into the pool before the pool goes away)
  Bytes payload_copy_;     // backs decode() payload views
};

}  // namespace protoobf
