// Streaming exchange: obfuscated messages over a byte-stream transport.
//
// On TCP the receiver must find message boundaries before it can parse —
// and an obfuscated protocol makes in-band delimitation intentionally hard.
// The streaming API (src/stream) answers with a pluggable framing layer:
// a Channel binds a Session to a Framer and turns arbitrary received
// chunks back into parsed messages.
//
// Two exchanges over an in-memory "socket":
//   1. LengthPrefixFramer — a transparent 4-byte length + body frame;
//   2. ObfuscatedFramer   — the frame spec itself compiled as an
//      ObfuscatedProtocol, so even the message boundary is opaque to an
//      observer (the framing layer is part of the obfuscation surface).
#include <iostream>
#include <memory>

#include "protocols/modbus.hpp"
#include "stream/channel.hpp"

namespace {

using namespace protoobf;

/// A plain length+body frame spec; compiled with per_node > 0 it becomes an
/// opaque boundary.
constexpr std::string_view kFrameSpec = R"(
protocol Frame
frame: seq end {
  flen: terminal fixed(4)
  fbody: terminal length(flen)
}
)";

/// Sends three obfuscated Modbus requests through `client`, delivers the
/// concatenated bytes to `server` in awkward 1..8-byte chunks, and parses
/// them back. Returns the number recovered.
int exchange(const Graph& modbus_graph, Channel& client, Channel& server,
             std::uint64_t chop_seed) {
  Bytes stream;
  const std::uint16_t addrs[] = {0x0010, 0x0400, 0x006b};
  for (int i = 0; i < 3; ++i) {
    Message request = modbus::make_read_holding(
        modbus_graph, static_cast<std::uint16_t>(i + 1), 0x11, addrs[i], 2);
    auto framed = client.send(request.root(), 100u + i);
    if (!framed.ok()) {
      std::cerr << "send failed: " << framed.error().message << "\n";
      return 0;
    }
    append(stream, *framed);  // the view aliases the arena; copy to queue
  }
  std::cout << "  client sent " << stream.size()
            << " bytes carrying 3 obfuscated requests\n";

  int received = 0;
  Rng chop(chop_seed);
  std::size_t offset = 0;
  while (offset < stream.size()) {
    const std::size_t n =
        std::min<std::size_t>(chop.between(1, 8), stream.size() - offset);
    server.on_bytes(BytesView(stream).subspan(offset, n));
    offset += n;
    while (auto message = server.receive()) {
      if (!message->ok()) {
        std::cerr << "parse failed: " << (*message).error().message << "\n";
        return received;
      }
      const Inst& request = ***message;
      const Inst* tx =
          ast::find_path(modbus_graph, request, "adu.transaction");
      const Inst* addr = ast::find_path(
          modbus_graph, request, "adu.tail.read_holding.rh_body.rh_addr");
      std::cout << "  server got request tx=" << be_decode(tx->value)
                << " addr=0x" << to_hex(addr->value) << "\n";
      ++received;
    }
  }
  return received;
}

}  // namespace

int main() {
  // Inner protocol: obfuscated Modbus requests, shared by both exchanges.
  ObfuscationConfig obf;
  obf.per_node = 2;
  obf.seed = 2024;
  auto modbus_graph = Framework::load_spec(modbus::request_spec()).value();
  auto compiled = Framework::generate(modbus_graph, obf);
  if (!compiled.ok()) {
    std::cerr << "obfuscation failed: " << compiled.error().message << "\n";
    return 1;
  }
  auto inner =
      std::make_shared<const ObfuscatedProtocol>(std::move(*compiled));

  // --- exchange 1: transparent length-prefix framing ----------------------
  std::cout << "[length-prefix framing]\n";
  LengthPrefixFramer client_framer;
  LengthPrefixFramer server_framer;
  Session client_session(inner);
  Session server_session(inner);
  Channel client(client_session, client_framer);
  Channel server(server_session, server_framer);
  const int plain = exchange(modbus_graph, client, server, 7);

  // --- exchange 2: the boundary itself is obfuscated ----------------------
  // The same frame spec, compiled with transformations: length field split
  // and xored, pad bytes inserted — an observer cannot even tell where one
  // message ends and the next begins. Not every compilation is usable on a
  // stream (a seed that mirrors the frame root would make the boundary
  // depend on where the input ends), so rotate seeds until
  // ObfuscatedFramer::create accepts one — the same loop a server's version
  // rotation runs.
  std::cout << "[obfuscated framing]\n";
  std::unique_ptr<ObfuscatedFramer> obf_client_framer;
  std::unique_ptr<ObfuscatedFramer> obf_server_framer;
  const Graph frame_graph = Framework::load_spec(kFrameSpec).value();
  for (std::uint64_t seed = 11; seed < 11 + 32; ++seed) {
    ObfuscationConfig frame_obf;
    frame_obf.per_node = 2;
    frame_obf.seed = seed;
    auto compiled = Framework::generate(frame_graph, frame_obf);
    if (!compiled.ok()) continue;
    auto framing =
        std::make_shared<const ObfuscatedProtocol>(std::move(*compiled));
    ObfuscatedFramer::Config fc;
    fc.frame_seed = 99;
    auto client_try = ObfuscatedFramer::create(framing, fc);
    if (!client_try.ok()) {
      std::cout << "  seed " << seed << " rejected ("
                << client_try.error().message << "), rotating\n";
      continue;
    }
    obf_client_framer = std::move(*client_try);
    obf_server_framer = ObfuscatedFramer::create(framing, fc).value();
    std::cout << "  frame spec compiled stream-safe with seed " << seed
              << " (" << framing->journal().size()
              << " transformations)\n";
    break;
  }
  if (obf_client_framer == nullptr) {
    std::cerr << "no stream-safe frame compilation found\n";
    return 1;
  }
  Session obf_client_session(inner);
  Session obf_server_session(inner);
  Channel obf_client(obf_client_session, *obf_client_framer);
  Channel obf_server(obf_server_session, *obf_server_framer);
  const int opaque = exchange(modbus_graph, obf_client, obf_server, 13);

  const bool ok = plain == 3 && opaque == 3;
  std::cout << (ok ? "all requests recovered from both streams\n"
                   : "FRAMING FAILED\n");
  return ok ? 0 : 1;
}
