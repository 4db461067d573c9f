#include "stream/channel.hpp"

namespace protoobf {

Expected<BytesView> Channel::send(const Inst& message, std::uint64_t msg_seed) {
  auto wire = session_.serialize(message, msg_seed);
  if (!wire) return Unexpected(wire.error());
  Bytes& frame = session_.arena().frame();
  if (Status s = framer_.encode(*wire, frame); !s) {
    return Unexpected(s.error());
  }
  return BytesView(frame);
}

void Channel::on_bytes(BytesView chunk) { reader_.feed(chunk); }

std::optional<Expected<InstPtr>> Channel::receive() {
  auto payload = reader_.next_frame();
  if (!payload.has_value()) return std::nullopt;
  auto message = session_.parse(*payload);
  // The frame is consumed: the parse copied what it needed into the pooled
  // tree, so the reader may compact/reallocate its buffer again.
  reader_.release_payloads();
  return message;
}

}  // namespace protoobf
