#include "net/capture.hpp"

namespace protoobf::net {

void TrafficCapture::record_in(BytesView chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  in_.emplace_back(chunk.begin(), chunk.end());
}

Expected<std::vector<Bytes>> TrafficCapture::deframe_in(Framer& framer) const {
  Bytes stream;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Bytes& chunk : in_) append(stream, chunk);
  }
  std::vector<Bytes> payloads;
  std::size_t off = 0;
  while (off < stream.size()) {
    FrameDecode d = framer.decode(BytesView(stream).subspan(off));
    switch (d.kind) {
      case FrameDecode::Kind::Frame:
        payloads.emplace_back(d.payload.begin(), d.payload.end());
        off += d.consumed;
        break;
      case FrameDecode::Kind::NeedMore:
        return Unexpected::truncated(
            "captured stream ends mid-frame at offset " + std::to_string(off),
            off, d.need);
      case FrameDecode::Kind::Error:
        return Unexpected(d.error);
    }
  }
  return payloads;
}

}  // namespace protoobf::net
