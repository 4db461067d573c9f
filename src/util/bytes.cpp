#include "util/bytes.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>

namespace protoobf {

Bytes to_bytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

std::string to_text(BytesView data) {
  return std::string(data.begin(), data.end());
}

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string to_hex(BytesView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (Byte b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

std::optional<Bytes> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<Byte>((hi << 4) | lo));
  }
  return out;
}

std::string hexdump(BytesView data) {
  std::string out;
  for (std::size_t row = 0; row < data.size(); row += 16) {
    char offset[24];
    std::snprintf(offset, sizeof offset, "%08zx  ", row);
    out += offset;
    for (std::size_t i = 0; i < 16; ++i) {
      if (row + i < data.size()) {
        out.push_back(kHexDigits[data[row + i] >> 4]);
        out.push_back(kHexDigits[data[row + i] & 0x0f]);
        out.push_back(' ');
      } else {
        out += "   ";
      }
      if (i == 7) out.push_back(' ');
    }
    out += " |";
    for (std::size_t i = 0; i < 16 && row + i < data.size(); ++i) {
      const Byte b = data[row + i];
      out.push_back(std::isprint(b) ? static_cast<char>(b) : '.');
    }
    out += "|\n";
  }
  return out;
}

void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

Bytes reversed(BytesView data) {
  Bytes out;
  assign_reversed(out, data);
  return out;
}

void assign_reversed(Bytes& dst, BytesView src) {
  dst.assign(src.rbegin(), src.rend());
}

Bytes BufferPool::acquire() {
  if (free_.empty()) return Bytes();
  Bytes buffer = std::move(free_.back());
  free_.pop_back();
  buffer.clear();
  return buffer;
}

void BufferPool::release(Bytes buffer) {
  free_.push_back(std::move(buffer));
}

bool starts_with(BytesView data, BytesView prefix) {
  return data.size() >= prefix.size() &&
         std::equal(prefix.begin(), prefix.end(), data.begin());
}

std::optional<std::size_t> find(BytesView data, BytesView needle,
                                std::size_t from) {
  if (needle.empty() || from > data.size()) return std::nullopt;
  if (needle.size() > data.size()) return std::nullopt;
  const auto it = std::search(data.begin() + static_cast<std::ptrdiff_t>(from),
                              data.end(), needle.begin(), needle.end());
  if (it == data.end()) return std::nullopt;
  return static_cast<std::size_t>(it - data.begin());
}

namespace {
template <typename Op>
void zip_bytes_into(Bytes& dst, BytesView a, BytesView b, Op op) {
  assert(a.size() == b.size());
  dst.resize(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    dst[i] = static_cast<Byte>(op(a[i], b[i]));
  }
}

template <typename Op>
void zip_key_in(std::span<Byte> data, BytesView key, Op op) {
  assert(!key.empty());
  // A wrapping key index instead of i % key.size(): no division per byte.
  std::size_t k = 0;
  for (Byte& byte : data) {
    byte = static_cast<Byte>(op(byte, key[k]));
    if (++k == key.size()) k = 0;
  }
}
}  // namespace

void add_mod256_into(Bytes& dst, BytesView a, BytesView b) {
  zip_bytes_into(dst, a, b, [](unsigned x, unsigned y) { return x + y; });
}

void sub_mod256_into(Bytes& dst, BytesView a, BytesView b) {
  zip_bytes_into(dst, a, b, [](unsigned x, unsigned y) { return x - y; });
}

void xor_bytes_into(Bytes& dst, BytesView a, BytesView b) {
  zip_bytes_into(dst, a, b, [](unsigned x, unsigned y) { return x ^ y; });
}

void add_key_in(std::span<Byte> data, BytesView key) {
  zip_key_in(data, key, [](unsigned x, unsigned y) { return x + y; });
}

void sub_key_in(std::span<Byte> data, BytesView key) {
  zip_key_in(data, key, [](unsigned x, unsigned y) { return x - y; });
}

void xor_key_in(std::span<Byte> data, BytesView key) {
  zip_key_in(data, key, [](unsigned x, unsigned y) { return x ^ y; });
}

Bytes be_encode(std::uint64_t value, std::size_t width) {
  Bytes out;
  be_encode_into(out, value, width);
  return out;
}

void be_encode_into(Bytes& dst, std::uint64_t value, std::size_t width) {
  assert(width <= 8);
  dst.resize(width);
  for (std::size_t i = 0; i < width; ++i) {
    dst[width - 1 - i] = static_cast<Byte>(value >> (8 * i));
  }
}

std::uint64_t be_decode(BytesView data) {
  assert(data.size() <= 8);
  std::uint64_t value = 0;
  for (Byte b : data) value = (value << 8) | b;
  return value;
}

Bytes ascii_dec_encode(std::uint64_t value, std::size_t min_width) {
  Bytes out;
  ascii_dec_encode_into(out, value, min_width);
  return out;
}

void ascii_dec_encode_into(Bytes& dst, std::uint64_t value,
                           std::size_t min_width) {
  char digits[20];  // 2^64 has 20 decimal digits
  std::size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  const std::size_t width = n < min_width ? min_width : n;
  dst.assign(width, Byte{'0'});
  for (std::size_t i = 0; i < n; ++i) {
    dst[width - 1 - i] = static_cast<Byte>(digits[i]);
  }
}

std::optional<std::uint64_t> ascii_dec_decode(BytesView data) {
  if (data.empty() || data.size() > 20) return std::nullopt;
  std::uint64_t value = 0;
  for (Byte b : data) {
    if (b < '0' || b > '9') return std::nullopt;
    const std::uint64_t next = value * 10 + (b - '0');
    if (next < value) return std::nullopt;  // overflow
    value = next;
  }
  return value;
}

}  // namespace protoobf
