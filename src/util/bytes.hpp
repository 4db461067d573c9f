// Byte-buffer primitives shared by every module.
//
// A protocol message on the wire is a flat sequence of bytes; everything the
// framework manipulates (terminal values, delimiters, constants, serialized
// buffers) is expressed with the `Bytes` / `BytesView` pair defined here.
// The byte-wise modular arithmetic helpers implement the value combination
// semantics of the Split*/Const* transformations (DESIGN.md §5): operating
// byte-wise mod 256 keeps every operation length-preserving and invertible
// regardless of the terminal's width or encoding.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace protoobf {

using Byte = std::uint8_t;
using Bytes = std::vector<Byte>;
using BytesView = std::span<const Byte>;

/// Builds a byte buffer from raw text (no escape processing).
Bytes to_bytes(std::string_view text);

/// Interprets a buffer as text (bytes copied verbatim).
std::string to_text(BytesView data);

/// Lower-case hex rendering, e.g. {0xde, 0xad} -> "dead".
std::string to_hex(BytesView data);

/// Parses a hex string ("dead" or "DEAD"); std::nullopt on bad input.
std::optional<Bytes> from_hex(std::string_view hex);

/// Classic 16-bytes-per-row hex dump with an ASCII gutter, for examples/docs.
std::string hexdump(BytesView data);

void append(Bytes& dst, BytesView src);
Bytes reversed(BytesView data);

/// Replaces `dst`'s contents with `src` reversed, reusing `dst`'s capacity.
void assign_reversed(Bytes& dst, BytesView src);

/// Recycles byte buffers so hot paths (per-message serialization, mirrored
/// region parsing) stop paying a heap allocation per call. Buffers returned
/// by acquire() keep whatever capacity they accumulated in earlier rounds;
/// release() hands them back for the next acquire(). Not thread-safe: each
/// session/worker owns its own pool.
class BufferPool {
 public:
  /// A cleared buffer, reusing a retired one's capacity when available.
  Bytes acquire();

  /// Returns a buffer to the pool for later reuse.
  void release(Bytes buffer);

  /// Number of idle buffers currently held.
  std::size_t idle() const { return free_.size(); }

  /// Drops all idle buffers (and their capacity).
  void shrink() { free_.clear(); }

 private:
  std::vector<Bytes> free_;
};

bool starts_with(BytesView data, BytesView prefix);

/// First position of `needle` in `data` at or after `from`.
std::optional<std::size_t> find(BytesView data, BytesView needle,
                                std::size_t from = 0);

/// Byte-wise (a[i] + b[i]) mod 256, (a[i] - b[i]) mod 256 and a[i] ^ b[i]
/// into `dst`, replacing its contents while reusing its capacity — the form
/// the pooled transform executor uses, where `dst` is a recycled terminal
/// payload buffer. Requires equal sizes; `dst` must not alias a or b.
void add_mod256_into(Bytes& dst, BytesView a, BytesView b);
void sub_mod256_into(Bytes& dst, BytesView a, BytesView b);
void xor_bytes_into(Bytes& dst, BytesView a, BytesView b);

/// Byte-wise (data[i] + key[i % key.size()]) mod 256 (and the sub/xor
/// forms) on `data` itself, with no allocation at all; key must be
/// non-empty.
void add_key_in(std::span<Byte> data, BytesView key);
void sub_key_in(std::span<Byte> data, BytesView key);
void xor_key_in(std::span<Byte> data, BytesView key);

/// Big-endian encoding of `value` into exactly `width` bytes (width <= 8).
/// Values wider than the field wrap (mod 2^(8*width)).
Bytes be_encode(std::uint64_t value, std::size_t width);

/// Capacity-reusing variant of be_encode.
void be_encode_into(Bytes& dst, std::uint64_t value, std::size_t width);

/// Big-endian decode of up to 8 bytes.
std::uint64_t be_decode(BytesView data);

/// ASCII decimal encoding, optionally zero-padded to `min_width` digits.
Bytes ascii_dec_encode(std::uint64_t value, std::size_t min_width = 0);

/// Capacity-reusing variant of ascii_dec_encode.
void ascii_dec_encode_into(Bytes& dst, std::uint64_t value,
                           std::size_t min_width = 0);

/// Parses ASCII decimal digits; nullopt if empty, non-digit, or > uint64 max.
std::optional<std::uint64_t> ascii_dec_decode(BytesView data);

}  // namespace protoobf
