// Channel: the duplex streaming endpoint of the framework.
//
// A Channel binds a Session (compiled protocol + arena) to a Framer
// (boundary codec) and exposes the two operations a TCP server actually
// performs: send one logical message as framed bytes, and turn an
// arbitrary received chunk into zero or more parsed messages. It is the
// streaming counterpart of Session — same "byte-identical to the plain
// protocol calls" contract, message boundaries handled for you.
//
//   Channel ch(session, framer);
//   write(fd, ch.send(msg.root(), seed).value());   // framed, arena-backed
//   ...
//   ch.on_bytes(chunk);                             // any chunking
//   while (auto m = ch.receive()) consume(**m);
//
// Buffer lifetime rules (also in README "Streaming over TCP"): the view
// send() returns aliases the session arena's frame buffer and is valid
// until the next send() on any channel sharing that session; trees from
// receive() are owned by the caller but recycle into the session's node
// pool when dropped — drop them on the session's thread, before the
// session goes away.
#pragma once

#include <optional>

#include "session/session.hpp"
#include "stream/framer.hpp"
#include "stream/stream_reader.hpp"

namespace protoobf {

class Channel {
 public:
  /// Both are borrowed and must outlive the channel. One channel per
  /// session thread of control; the framer must not be shared across
  /// channels (it owns decode scratch).
  Channel(Session& session, Framer& framer)
      : session_(session), framer_(framer), reader_(framer) {}

  /// Serializes `message` through the session arena and frames it. The
  /// returned view aliases the arena's frame buffer — valid until the next
  /// send(); callers that queue frames copy them.
  Expected<BytesView> send(const Inst& message, std::uint64_t msg_seed);

  /// Feeds bytes received from the transport into the reassembly buffer.
  void on_bytes(BytesView chunk);

  /// Parses the next complete buffered frame. nullopt when no complete
  /// frame is available — more bytes are needed (need_bytes()) or the
  /// stream is corrupt (failed()/resync()). A present-but-error result is a
  /// per-message parse failure; the stream itself continues past it.
  std::optional<Expected<InstPtr>> receive();

  /// Minimum bytes on_bytes() must deliver before receive() can progress.
  std::size_t need_bytes() const { return reader_.need_bytes(); }

  /// Static per-frame floor (Framer::min_need): the exact frame-header
  /// size for length-driven framers, 1 for delimiter-bounded ones.
  /// Transports size their first read of a frame from it.
  std::size_t min_need() const { return reader_.min_need(); }

  bool failed() const { return reader_.failed(); }
  const Error& error() const { return reader_.error(); }

  /// Skips one byte of garbage at the failure position (see
  /// StreamReader::resync()). Also drops the framer's suspended decode
  /// state — a checkpoint of the old front cannot survive the skip.
  void resync() { reader_.resync(); }

  Session& session() { return session_; }
  StreamReader& reader() { return reader_; }
  Framer& framer() { return framer_; }
  const Framer& framer() const { return framer_; }

 private:
  Session& session_;
  Framer& framer_;
  StreamReader reader_;
};

}  // namespace protoobf
