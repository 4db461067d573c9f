// Streaming API tests: framers, reassembly, the Channel endpoint, and the
// truncated-vs-malformed error taxonomy underneath them.
//
// The load-bearing property (ISSUE 2 acceptance): for random messages,
// seeds, and random chunk partitions of a concatenated wire stream, every
// message parses back equal to its canonical form through both framers —
// and a merely-truncated buffer is *never* reported as a parse error, only
// as need-more-bytes.
#include <gtest/gtest.h>

#include <memory>

#include "protocols/http.hpp"
#include "protocols/modbus.hpp"
#include "runtime/parse.hpp"
#include "stream/channel.hpp"

namespace protoobf {
namespace {

constexpr std::string_view kFrameSpec = R"(
protocol Frame
frame: seq end {
  flen: terminal fixed(4)
  fbody: terminal length(flen)
}
)";

// Delimiter-bounded frame format: no length field at all, so the decode
// cost under trickled delivery is carried entirely by the resumable prefix
// parse (ISSUE 5) — these tests pin its accounting.
constexpr std::string_view kDelimFrameSpec = R"(
protocol DelimFrame
frame: seq end {
  fbody: terminal delimited("\r\n") ascii
}
)";

ObfuscationConfig config_of(std::uint64_t seed, int per_node) {
  ObfuscationConfig cfg;
  cfg.seed = seed;
  cfg.per_node = per_node;
  return cfg;
}

std::shared_ptr<const ObfuscatedProtocol> compile(std::string_view spec,
                                                  std::uint64_t seed,
                                                  int per_node) {
  return std::make_shared<const ObfuscatedProtocol>(
      Framework::generate(Framework::load_spec(spec).value(),
                          config_of(seed, per_node))
          .value());
}

/// First frame-spec compilation at or after `seed` that ObfuscatedFramer
/// accepts (not every seed yields a stream-safe wire format).
std::shared_ptr<const ObfuscatedProtocol> stream_safe_framing(
    std::uint64_t seed, int per_node) {
  const Graph frame_graph = Framework::load_spec(kFrameSpec).value();
  for (std::uint64_t s = seed; s < seed + 64; ++s) {
    auto compiled = Framework::generate(frame_graph, config_of(s, per_node));
    if (!compiled.ok()) continue;
    if (stream_safe(compiled->wire_graph()).ok()) {
      return std::make_shared<const ObfuscatedProtocol>(std::move(*compiled));
    }
  }
  ADD_FAILURE() << "no stream-safe frame compilation in 64 seeds";
  return nullptr;
}

// --- error taxonomy ---------------------------------------------------------

TEST(ParseTaxonomy, TruncatedInputIsClassifiedTruncated) {
  // Classification is guaranteed for stream-safe wire layouts — the class
  // ObfuscatedFramer admits. (On a layout that reads "to the end of the
  // input" a truncation is indistinguishable from a short message, which is
  // exactly why stream_safe() gates the framer.)
  auto protocol = stream_safe_framing(20, 2);
  ASSERT_NE(protocol, nullptr);
  auto g = Framework::load_spec(kFrameSpec).value();
  Message frame(g);
  frame.set("fbody", to_bytes("a realistic sized frame payload"));
  const Bytes wire = protocol->serialize(frame.root(), 7).value();

  // Every proper prefix is merely truncated: more bytes could complete it.
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    auto parsed = protocol->parse_prefix(BytesView(wire).first(keep), nullptr);
    ASSERT_FALSE(parsed.ok()) << "prefix of " << keep << " parsed";
    EXPECT_TRUE(parsed.error().truncated())
        << "prefix " << keep << "/" << wire.size() << " reported malformed: "
        << parsed.error().message;
    EXPECT_GE(parsed.error().need, 1u);
  }
}

TEST(ParseTaxonomy, WholeMessageParseAlsoClassifiesTruncation) {
  auto protocol = stream_safe_framing(50, 2);
  ASSERT_NE(protocol, nullptr);
  auto g = Framework::load_spec(kFrameSpec).value();
  Message frame(g);
  frame.set("fbody", to_bytes("whole message classification"));
  const Bytes wire = protocol->serialize(frame.root(), 8).value();

  auto parsed = protocol->parse(BytesView(wire).first(wire.size() / 2));
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.error().truncated()) << parsed.error().message;

  // Trailing garbage after a complete message is malformed, not truncated.
  Bytes extended = wire;
  extended.push_back(0xee);
  auto trailing = protocol->parse(extended);
  ASSERT_FALSE(trailing.ok());
  EXPECT_FALSE(trailing.error().truncated()) << trailing.error().message;
}

TEST(ParseTaxonomy, PrefixParseReportsConsumedAndToleratesTrailing) {
  auto protocol = compile(kFrameSpec, 1, 0);  // identity framing
  auto g = Framework::load_spec(kFrameSpec).value();
  Message frame(g);
  frame.set("fbody", to_bytes("payload"));
  const Bytes wire = protocol->serialize(frame.root(), 1).value();

  Bytes stream = wire;
  append(stream, to_bytes("NEXTFRAME..."));
  std::size_t consumed = 0;
  auto parsed = protocol->parse_prefix(stream, &consumed);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(consumed, wire.size());
  auto whole = protocol->parse(wire);
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(ast::equal(**parsed, **whole));
}

TEST(ParseTaxonomy, StreamSafeRejectsEndBoundedPayload) {
  // A frame whose payload runs "to the end" cannot delimit itself.
  constexpr std::string_view kGreedy = R"(
protocol Greedy
frame: seq end {
  tag: terminal fixed(1)
  rest: terminal end
}
)";
  auto protocol = compile(kGreedy, 1, 0);
  EXPECT_FALSE(stream_safe(protocol->wire_graph()).ok());
  auto framer = ObfuscatedFramer::create(protocol);
  ASSERT_FALSE(framer.ok());
  EXPECT_NE(framer.error().message.find("not stream-safe"),
            std::string::npos);
}

// --- LengthPrefixFramer -----------------------------------------------------

TEST(LengthPrefixFramer, RoundTripsAcrossWidthsAndEndianness) {
  for (const std::size_t width : {1u, 2u, 4u, 8u}) {
    for (const bool little : {false, true}) {
      LengthPrefixFramer::Config cfg;
      cfg.width = width;
      cfg.little_endian = little;
      LengthPrefixFramer framer(cfg);
      const Bytes payload = to_bytes("sixteen byte msg");
      Bytes framed;
      ASSERT_TRUE(framer.encode(payload, framed).ok());
      ASSERT_EQ(framed.size(), width + payload.size());
      const FrameDecode d = framer.decode(framed);
      ASSERT_EQ(d.kind, FrameDecode::Kind::Frame);
      EXPECT_EQ(d.consumed, framed.size());
      EXPECT_EQ(Bytes(d.payload.begin(), d.payload.end()), payload);
    }
  }
}

TEST(LengthPrefixFramer, NeedMoreAtEverySplitIncludingThePrefix) {
  LengthPrefixFramer framer;
  const Bytes payload = to_bytes("hello stream");
  Bytes framed;
  ASSERT_TRUE(framer.encode(payload, framed).ok());
  // Every proper prefix — including cuts *inside* the 4-byte length field —
  // must answer NeedMore with an exact byte count, never an error.
  for (std::size_t cut = 0; cut < framed.size(); ++cut) {
    const FrameDecode d = framer.decode(BytesView(framed).first(cut));
    ASSERT_EQ(d.kind, FrameDecode::Kind::NeedMore) << "cut " << cut;
    EXPECT_EQ(d.need, cut < 4 ? 4 - cut : framed.size() - cut)
        << "cut " << cut;
  }
}

TEST(LengthPrefixFramer, RejectsOversizedLength) {
  LengthPrefixFramer::Config cfg;
  cfg.width = 4;
  cfg.max_frame_size = 1024;
  LengthPrefixFramer framer(cfg);

  Bytes big(5000, 0x61);
  Bytes framed;
  EXPECT_FALSE(framer.encode(big, framed).ok());

  const Bytes hostile = {0x7f, 0xff, 0xff, 0xff, 0x00};
  const FrameDecode d = framer.decode(hostile);
  ASSERT_EQ(d.kind, FrameDecode::Kind::Error);
  EXPECT_NE(d.error.message.find("max_frame_size"), std::string::npos);
}

TEST(LengthPrefixFramer, HostilePrefixWithGuardDisabledDoesNotOverflow) {
  // width 8, guard off, prefix 0xff..ff: `width + length` would wrap to a
  // tiny in-bounds total and read out of bounds. Must answer NeedMore.
  LengthPrefixFramer::Config cfg;
  cfg.width = 8;
  cfg.max_frame_size = 0;  // guard explicitly disabled
  LengthPrefixFramer framer(cfg);
  Bytes hostile(16, 0xff);
  const FrameDecode d = framer.decode(hostile);
  ASSERT_EQ(d.kind, FrameDecode::Kind::NeedMore);
  EXPECT_GE(d.need, 1u);
}

TEST(StreamReader, OneByteDeliveryAndPrefixSplitBoundaries) {
  LengthPrefixFramer framer;
  StreamReader reader(framer);
  const Bytes a = to_bytes("alpha");
  const Bytes b = to_bytes("bee");
  Bytes stream;
  Bytes framed;
  ASSERT_TRUE(framer.encode(a, framed).ok());
  append(stream, framed);
  ASSERT_TRUE(framer.encode(b, framed).ok());
  append(stream, framed);

  std::vector<Bytes> got;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    reader.feed(BytesView(stream).subspan(i, 1));
    while (auto frame = reader.next_frame()) {
      got.emplace_back(frame->begin(), frame->end());
    }
    ASSERT_FALSE(reader.failed()) << "byte " << i;
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], a);
  EXPECT_EQ(got[1], b);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(StreamReader, SplitExactlyAtTheLengthPrefix) {
  LengthPrefixFramer framer;
  StreamReader reader(framer);
  const Bytes payload = to_bytes("boundary");
  Bytes framed;
  ASSERT_TRUE(framer.encode(payload, framed).ok());

  // Deliver exactly the prefix, then exactly the body.
  reader.feed(BytesView(framed).first(4));
  EXPECT_FALSE(reader.next_frame().has_value());
  EXPECT_EQ(reader.need_bytes(), payload.size());
  reader.feed(BytesView(framed).subspan(4));
  auto frame = reader.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(Bytes(frame->begin(), frame->end()), payload);
}

TEST(StreamReader, GarbagePrefixResyncsToTheNextFrame) {
  LengthPrefixFramer::Config cfg;
  cfg.max_frame_size = 4096;
  LengthPrefixFramer framer(cfg);
  StreamReader reader(framer);

  // Six bytes of 0xff decode as an over-limit length no matter where the
  // scan starts, so each resync() skips exactly one garbage byte.
  Bytes stream(6, 0xff);
  const Bytes payload = to_bytes("found me");
  Bytes framed;
  ASSERT_TRUE(framer.encode(payload, framed).ok());
  append(stream, framed);
  reader.feed(stream);

  int resyncs = 0;
  std::optional<BytesView> frame;
  while (!(frame = reader.next_frame()).has_value()) {
    ASSERT_TRUE(reader.failed());
    reader.resync();
    ASSERT_LT(++resyncs, 32);
  }
  EXPECT_EQ(resyncs, 6);
  EXPECT_EQ(Bytes(frame->begin(), frame->end()), payload);
}

// --- ObfuscatedFramer -------------------------------------------------------

TEST(ObfuscatedFramer, RoundTripsAndNeverErrorsOnTruncation) {
  auto framing = stream_safe_framing(20, 2);
  ASSERT_NE(framing, nullptr);
  auto framer = ObfuscatedFramer::create(framing).value();

  const Bytes payload = to_bytes("opaque boundary payload");
  Bytes framed;
  ASSERT_TRUE(framer->encode(payload, framed).ok());

  // Acceptance: merely-truncated buffers answer NeedMore, never Error.
  for (std::size_t cut = 0; cut < framed.size(); ++cut) {
    const FrameDecode d = framer->decode(BytesView(framed).first(cut));
    ASSERT_EQ(d.kind, FrameDecode::Kind::NeedMore)
        << "cut " << cut << "/" << framed.size() << ": "
        << (d.kind == FrameDecode::Kind::Error ? d.error.message : "");
    EXPECT_GE(d.need, 1u);
  }
  const FrameDecode d = framer->decode(framed);
  ASSERT_EQ(d.kind, FrameDecode::Kind::Frame);
  EXPECT_EQ(d.consumed, framed.size());
  EXPECT_EQ(Bytes(d.payload.begin(), d.payload.end()), payload);
}

TEST(ObfuscatedFramer, EnforcesMaxFrameSizeBeforeStalling) {
  auto framing = stream_safe_framing(20, 2);
  ASSERT_NE(framing, nullptr);
  ObfuscatedFramer::Config cfg;
  cfg.max_frame_size = 256;
  auto framer = ObfuscatedFramer::create(framing, cfg).value();

  Bytes big(1024, 0x42);
  Bytes framed;
  EXPECT_FALSE(framer->encode(big, framed).ok());

  // A frame that legitimately fits must still round-trip under the cap.
  const Bytes small(64, 0x42);
  ASSERT_TRUE(framer->encode(small, framed).ok());
  const FrameDecode d = framer->decode(framed);
  ASSERT_EQ(d.kind, FrameDecode::Kind::Frame);
  EXPECT_EQ(Bytes(d.payload.begin(), d.payload.end()), small);
}

// --- min-need floor ---------------------------------------------------------

/// Pass-through decorator counting decode() attempts, to pin how often the
/// reader actually consults the framer under fine-grained delivery.
/// `restart` drops the inner framer's checkpoint before each attempt: the
/// restart-from-zero baseline of a resumable decode.
class CountingFramer final : public Framer {
 public:
  explicit CountingFramer(Framer& inner, bool restart = false)
      : inner_(inner), restart_(restart) {}
  Status encode(BytesView payload, Bytes& out) override {
    return inner_.encode(payload, out);
  }
  FrameDecode decode(BytesView buffer) override {
    ++decodes;
    if (restart_) inner_.invalidate_decode_state();
    return inner_.decode(buffer);
  }
  bool payload_aliases_buffer() const override {
    return inner_.payload_aliases_buffer();
  }
  std::size_t min_need() const override { return inner_.min_need(); }
  void invalidate_decode_state() override {
    inner_.invalidate_decode_state();
  }

  Framer& inner_;
  bool restart_;
  int decodes = 0;
};

TEST(MinNeed, LengthPrefixReaderDecodesTwicePerFrameUnderByteDelivery) {
  LengthPrefixFramer framer;
  EXPECT_EQ(framer.min_need(), 4u);
  CountingFramer counting(framer);
  StreamReader reader(counting);
  EXPECT_EQ(reader.min_need(), 4u);

  const Bytes payload = to_bytes("one decode at the prefix, one at the end");
  Bytes framed;
  ASSERT_TRUE(framer.encode(payload, framed).ok());

  std::size_t frames = 0;
  for (std::size_t i = 0; i < framed.size(); ++i) {
    reader.feed(BytesView(framed).subspan(i, 1));
    while (reader.next_frame()) ++frames;
  }
  EXPECT_EQ(frames, 1u);
  // Exactly one attempt once the prefix is complete (yielding the exact
  // body need) and one once the body is: the min-need floor plus exact
  // hints mean byte-at-a-time delivery never triggers per-byte decodes.
  EXPECT_EQ(counting.decodes, 2);
}

TEST(MinNeed, ObfuscatedFramerFloorsAtTheFrameHeaderSize) {
  auto framing = stream_safe_framing(20, 2);
  ASSERT_NE(framing, nullptr);
  auto framer = ObfuscatedFramer::create(framing).value();

  // The static floor is the mandatory wire size of the frame protocol —
  // a length-driven frame spec always has a multi-byte header.
  const std::size_t floor = min_wire_size(framing->wire_graph());
  EXPECT_EQ(framer->min_need(), std::max<std::size_t>(1, floor));
  EXPECT_GT(framer->min_need(), 1u);

  // Below the floor the framer answers the exact shortfall without a
  // prefix-parse attempt.
  const FrameDecode empty = framer->decode(BytesView());
  ASSERT_EQ(empty.kind, FrameDecode::Kind::NeedMore);
  EXPECT_EQ(empty.need, framer->min_need());

  CountingFramer counting(*framer);
  StreamReader reader(counting);

  const Bytes payload = to_bytes("the header is length-driven");
  Bytes framed;
  ASSERT_TRUE(framer->encode(payload, framed).ok());

  std::size_t frames = 0;
  for (std::size_t i = 0; i < framed.size(); ++i) {
    reader.feed(BytesView(framed).subspan(i, 1));
    while (auto f = reader.next_frame()) {
      EXPECT_EQ(Bytes(f->begin(), f->end()), payload);
      ++frames;
    }
    ASSERT_FALSE(reader.failed()) << reader.error().message;
  }
  EXPECT_EQ(frames, 1u);
  // One decode attempt per sequentially discovered region of the frame
  // header, not one per delivered byte: far below the frame size.
  EXPECT_LE(counting.decodes, 8);
  EXPECT_LT(static_cast<std::size_t>(counting.decodes), framed.size() / 2);
}

// --- resumable decode (delimiter-bounded frame specs) -----------------------

std::unique_ptr<ObfuscatedFramer> delim_framer(
    std::shared_ptr<const ObfuscatedProtocol> framing) {
  ObfuscatedFramer::Config cfg;
  cfg.payload_path = "fbody";
  auto framer = ObfuscatedFramer::create(std::move(framing), cfg);
  EXPECT_TRUE(framer.ok()) << framer.error().message;
  return std::move(*framer);
}

TEST(ResumableDecode, DelimiterFramerTrickleIsLinearNotQuadratic) {
  auto framing = compile(kDelimFrameSpec, 1, 0);
  auto framer = delim_framer(framing);
  CountingFramer counting(*framer);
  StreamReader reader(counting);

  const Bytes payload = to_bytes(std::string(600, 'x'));
  Bytes framed;
  ASSERT_TRUE(framer->encode(payload, framed).ok());

  std::size_t frames = 0;
  for (std::size_t i = 0; i < framed.size(); ++i) {
    reader.feed(BytesView(framed).subspan(i, 1));
    while (auto f = reader.next_frame()) {
      EXPECT_EQ(Bytes(f->begin(), f->end()), payload);
      ++frames;
    }
    ASSERT_FALSE(reader.failed()) << reader.error().message;
  }
  ASSERT_EQ(frames, 1u);

  const ParseResume::Stats& stats = framer->resume_stats();
  // A delimiter spec can only hint "one more byte", so there is roughly
  // one decode attempt per delivered byte — the point is that each one is
  // amortized O(1): nearly every attempt resumes a suspended parse…
  EXPECT_GE(stats.resumed + 8, stats.attempts);
  EXPECT_GT(stats.resumed, framed.size() / 2);
  // …and the delimiter scan never re-reads rejected bytes: total scanned
  // work stays O(frame), where restart-from-zero is O(frame²) (pinned
  // against the restart baseline below).
  EXPECT_LE(stats.scanned_bytes, 4 * framed.size());

  auto baseline = delim_framer(framing);
  CountingFramer restarting(*baseline, /*restart=*/true);
  StreamReader base_reader(restarting);
  frames = 0;
  for (std::size_t i = 0; i < framed.size(); ++i) {
    base_reader.feed(BytesView(framed).subspan(i, 1));
    while (auto f = base_reader.next_frame()) {
      EXPECT_EQ(Bytes(f->begin(), f->end()), payload);
      ++frames;
    }
  }
  ASSERT_EQ(frames, 1u);
  EXPECT_GT(baseline->resume_stats().scanned_bytes, 16 * framed.size())
      << "restart-from-zero baseline unexpectedly cheap";
  EXPECT_EQ(baseline->resume_stats().resumed, 0u);
}

TEST(ResumableDecode, MultiFrameTrickleStaysByteIdenticalAndConsumesState) {
  auto framing = compile(kDelimFrameSpec, 1, 0);
  auto framer = delim_framer(framing);
  StreamReader reader(*framer);

  std::vector<Bytes> payloads;
  Bytes stream;
  for (int i = 0; i < 5; ++i) {
    payloads.push_back(
        to_bytes("frame " + std::to_string(i) + " " +
                 std::string(17 * (i + 1), static_cast<char>('a' + i))));
    Bytes framed;
    ASSERT_TRUE(framer->encode(payloads.back(), framed).ok());
    append(stream, framed);
  }

  Rng rng(77);
  std::vector<Bytes> got;
  std::size_t offset = 0;
  while (offset < stream.size()) {
    const std::size_t n =
        std::min<std::size_t>(rng.between(1, 5), stream.size() - offset);
    reader.feed(BytesView(stream).subspan(offset, n));
    offset += n;
    while (auto f = reader.next_frame()) {
      got.emplace_back(f->begin(), f->end());
    }
    ASSERT_FALSE(reader.failed()) << reader.error().message;
  }
  ASSERT_EQ(got.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(got[i], payloads[i]) << "frame " << i;
  }
  // Every checkpoint was consumed by its completed frame.
  EXPECT_FALSE(framer->decode_suspended());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(ResumableDecode, EncodeInterleavesWithASuspendedDecode) {
  // One framer instance serves both directions of a connection: an
  // encode() while a decode sits suspended must not disturb the
  // checkpoint (they share the node pool but not the resume state).
  auto framing = compile(kDelimFrameSpec, 1, 0);
  auto framer = delim_framer(framing);
  StreamReader reader(*framer);

  const Bytes payload = to_bytes("suspended mid-frame, encode interleaved");
  Bytes framed;
  ASSERT_TRUE(framer->encode(payload, framed).ok());

  reader.feed(BytesView(framed).first(framed.size() / 2));
  EXPECT_FALSE(reader.next_frame().has_value());
  EXPECT_TRUE(framer->decode_suspended());

  Bytes other;
  ASSERT_TRUE(framer->encode(to_bytes("outbound while suspended"), other)
                  .ok());
  EXPECT_TRUE(framer->decode_suspended());

  reader.feed(BytesView(framed).subspan(framed.size() / 2));
  auto f = reader.next_frame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(Bytes(f->begin(), f->end()), payload);
  EXPECT_FALSE(framer->decode_suspended());
}

TEST(ResumableDecode, ResyncAndResetInvalidateTheSuspendedParse) {
  auto framing = compile(kDelimFrameSpec, 1, 0);
  auto framer = delim_framer(framing);
  StreamReader reader(*framer);

  const Bytes payload = to_bytes("checkpoint to be dropped");
  Bytes framed;
  ASSERT_TRUE(framer->encode(payload, framed).ok());

  // Suspend, then resync: the front moved one byte, so the checkpoint
  // describes bytes that are no longer there.
  reader.feed(BytesView(framed).first(framed.size() - 1));
  EXPECT_FALSE(reader.next_frame().has_value());
  ASSERT_TRUE(framer->decode_suspended());
  reader.resync();
  EXPECT_FALSE(framer->decode_suspended());

  // Same for reset(); afterwards a clean replay still decodes.
  reader.reset();
  reader.feed(framed);
  reader.feed(BytesView(framed).first(framed.size() / 2));
  auto f = reader.next_frame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(Bytes(f->begin(), f->end()), payload);
  EXPECT_FALSE(reader.next_frame().has_value());  // half a second frame…
  ASSERT_TRUE(framer->decode_suspended());        // …suspends mid-flight
  reader.reset();
  EXPECT_FALSE(framer->decode_suspended());
  reader.feed(framed);
  f = reader.next_frame();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(Bytes(f->begin(), f->end()), payload);
}

TEST(ResumableDecode, HostileStreamWithoutDelimiterHitsMaxFrameSize) {
  // ISSUE 5 satellite: a stream that keeps a frame Truncated forever must
  // not grow the reassembly buffer without bound — the accumulated-buffer
  // guard converts the stall into Malformed at the cap.
  auto framing = compile(kDelimFrameSpec, 1, 0);
  ObfuscatedFramer::Config cfg;
  cfg.payload_path = "fbody";
  cfg.max_frame_size = 256;
  auto framer = ObfuscatedFramer::create(framing, cfg).value();
  StreamReader reader(*framer);

  const Bytes drip(16, 0x41);  // 'A' forever: the "\r\n" never arrives
  for (int i = 0; i < 64 && !reader.failed(); ++i) {
    reader.feed(drip);
    reader.next_frame();
  }
  ASSERT_TRUE(reader.failed()) << "unbounded reassembly growth";
  EXPECT_NE(reader.error().message.find("max_frame_size"), std::string::npos)
      << reader.error().message;
  // The buffer stopped growing at the cap (plus one undelivered chunk).
  EXPECT_LE(reader.reassembly_size(), cfg.max_frame_size + 2 * drip.size());
  // A Malformed outcome — the cap guard included — drops the checkpoint:
  // nothing stale may survive into whatever front follows recovery.
  EXPECT_FALSE(framer->decode_suspended());
}

TEST(StreamReader, PayloadViewsSurviveFeedUntilReleased) {
  // ISSUE 5 satellite: with a buffer-aliasing framer, feed() used to
  // compact (erase) or reallocate buffer_ while a caller still held the
  // payload view from next_frame() — a use-after-free under ASan. Views
  // now pin the buffer until release_payloads().
  LengthPrefixFramer framer;
  StreamReader reader(framer);
  ASSERT_TRUE(framer.payload_aliases_buffer());

  const Bytes first = to_bytes("first frame payload");
  Bytes framed;
  ASSERT_TRUE(framer.encode(first, framed).ok());
  reader.feed(framed);
  auto held = reader.next_frame();
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(reader.outstanding_payloads(), 1u);

  // Compaction trigger: the whole buffer is consumed (head_ == size), so
  // the next feed would have erased the prefix the view aliases…
  const Bytes big(8192, 0x42);
  Bytes framed2;
  ASSERT_TRUE(framer.encode(big, framed2).ok());
  reader.feed(BytesView(framed2).first(3));
  // …and growth trigger: appending far beyond capacity would have
  // reallocated and freed the storage outright.
  reader.feed(BytesView(framed2).subspan(3));

  // The held view still reads the first payload, byte for byte.
  EXPECT_EQ(Bytes(held->begin(), held->end()), first);

  reader.release_payloads();
  EXPECT_EQ(reader.outstanding_payloads(), 0u);
  auto second = reader.next_frame();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(Bytes(second->begin(), second->end()), big);
  reader.release_payloads();
}

TEST(StreamReader, CompactionResumesAfterReleaseKeepingMemoryBounded) {
  LengthPrefixFramer framer;
  StreamReader reader(framer);
  const Bytes payload = to_bytes("steady state frame");
  Bytes framed;
  ASSERT_TRUE(framer.encode(payload, framed).ok());

  std::size_t high_water = 0;
  for (int i = 0; i < 256; ++i) {
    reader.feed(framed);
    auto f = reader.next_frame();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(Bytes(f->begin(), f->end()), payload);
    reader.release_payloads();
    high_water = std::max(high_water, reader.reassembly_size());
  }
  // Released frames let compaction reclaim the consumed prefix: the
  // buffer never accumulates more than a few frames.
  EXPECT_LE(high_water, 4 * framed.size());
}

TEST(MinNeed, ChannelExposesTheFramerFloor) {
  auto framing = stream_safe_framing(20, 2);
  ASSERT_NE(framing, nullptr);
  auto framer = ObfuscatedFramer::create(framing).value();
  Session session(compile(kFrameSpec, 1, 0));
  Channel channel(session, *framer);
  EXPECT_EQ(channel.min_need(), framer->min_need());
}

// --- Channel property test --------------------------------------------------

struct ChannelCase {
  bool http;           // inner protocol: http request vs modbus request
  bool obf_framing;    // ObfuscatedFramer vs LengthPrefixFramer
  int per_node;        // inner obfuscation level
};

class ChannelRoundTrip : public ::testing::TestWithParam<ChannelCase> {};

TEST_P(ChannelRoundTrip, RandomChunkingsReassembleByteIdentically) {
  const ChannelCase& c = GetParam();
  const std::string_view spec =
      c.http ? http::request_spec() : modbus::request_spec();
  auto protocol = compile(spec, 40 + c.per_node, c.per_node);
  auto g = Framework::load_spec(spec).value();

  // Sender and receiver ends: independent sessions and framers over the
  // same compiled artifacts, as two processes would hold.
  LengthPrefixFramer send_plain, recv_plain;
  std::unique_ptr<ObfuscatedFramer> send_obf, recv_obf;
  if (c.obf_framing) {
    auto framing = stream_safe_framing(30, 2);
    ASSERT_NE(framing, nullptr);
    send_obf = ObfuscatedFramer::create(framing).value();
    recv_obf = ObfuscatedFramer::create(framing).value();
  }
  Framer& send_framer =
      c.obf_framing ? static_cast<Framer&>(*send_obf) : send_plain;
  Framer& recv_framer =
      c.obf_framing ? static_cast<Framer&>(*recv_obf) : recv_plain;

  Session sender(protocol);
  Session receiver(protocol);
  Channel out(sender, send_framer);
  Channel in(receiver, recv_framer);

  Rng rng(1234 + c.per_node + (c.http ? 1 : 0) + (c.obf_framing ? 2 : 0));
  constexpr std::size_t kMessages = 10;
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    // Build the canonical expectation with the *plain* protocol calls, then
    // stream the same messages through the channel pair.
    std::vector<Message> msgs;
    std::vector<Bytes> plain_wires;
    Bytes stream;
    for (std::size_t i = 0; i < kMessages; ++i) {
      msgs.push_back(c.http ? http::random_request(g, rng)
                            : modbus::random_request(g, rng));
      const std::uint64_t msg_seed = round * 1000 + i;
      plain_wires.push_back(
          protocol->serialize(msgs.back().root(), msg_seed).value());
      auto framed = out.send(msgs.back().root(), msg_seed);
      ASSERT_TRUE(framed.ok()) << framed.error().message;
      append(stream, *framed);
    }

    // Deliver under a random partition; odd rounds drain incrementally,
    // even rounds only once the whole stream is buffered.
    const bool incremental = round % 2 == 1;
    std::vector<Expected<InstPtr>> got;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const std::size_t n = std::min<std::size_t>(
          rng.between(1, 48), stream.size() - offset);
      in.on_bytes(BytesView(stream).subspan(offset, n));
      offset += n;
      if (incremental) {
        while (auto message = in.receive()) got.push_back(std::move(*message));
      }
      ASSERT_FALSE(in.failed()) << in.error().message;
    }
    if (!incremental) {
      while (auto message = in.receive()) got.push_back(std::move(*message));
    }

    ASSERT_EQ(got.size(), kMessages) << "round " << round;
    EXPECT_EQ(in.reader().buffered(), 0u);
    for (std::size_t i = 0; i < kMessages; ++i) {
      ASSERT_TRUE(got[i].ok()) << got[i].error().message;
      auto expected = protocol->parse(plain_wires[i]);
      ASSERT_TRUE(expected.ok());
      EXPECT_TRUE(ast::equal(**got[i], **expected))
          << "round " << round << " message " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ChannelRoundTrip,
    ::testing::Values(ChannelCase{false, false, 0},
                      ChannelCase{false, false, 2},
                      ChannelCase{false, true, 2},
                      ChannelCase{true, false, 2},
                      ChannelCase{true, true, 1},
                      ChannelCase{true, true, 3}),
    [](const ::testing::TestParamInfo<ChannelCase>& info) {
      return std::string(info.param.http ? "Http" : "Modbus") +
             (info.param.obf_framing ? "ObfFrame" : "LenFrame") + "_o" +
             std::to_string(info.param.per_node);
    });

TEST(Channel, PerMessageParseErrorsDoNotKillTheStream) {
  auto protocol = compile(modbus::request_spec(), 44, 2);
  auto g = Framework::load_spec(modbus::request_spec()).value();
  LengthPrefixFramer framer;
  Session session(protocol);
  Channel channel(session, framer);

  Rng rng(9);
  Message good = modbus::random_request(g, rng);
  const Bytes good_wire = protocol->serialize(good.root(), 1).value();

  // Frame a corrupt payload between two good ones: framing stays intact, so
  // the middle message fails alone and the stream continues.
  LengthPrefixFramer encoder;
  Bytes stream, framed;
  ASSERT_TRUE(encoder.encode(good_wire, framed).ok());
  append(stream, framed);
  Bytes corrupt = good_wire;
  corrupt[corrupt.size() / 2] ^= 0x5a;
  ASSERT_TRUE(encoder.encode(corrupt, framed).ok());
  append(stream, framed);
  ASSERT_TRUE(encoder.encode(good_wire, framed).ok());
  append(stream, framed);

  channel.on_bytes(stream);
  auto first = channel.receive();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->ok());
  auto second = channel.receive();
  ASSERT_TRUE(second.has_value());
  auto third = channel.receive();
  ASSERT_TRUE(third.has_value());
  EXPECT_TRUE(third->ok());
  EXPECT_FALSE(channel.receive().has_value());
  EXPECT_FALSE(channel.failed());
}

}  // namespace
}  // namespace protoobf
