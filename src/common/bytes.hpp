// Byte-buffer utilities shared by every Revelio module.
//
// All binary data in the code base flows through `Bytes` (an owning buffer)
// and `ByteView` (a non-owning view). Helpers here cover concatenation,
// constant-time comparison, and big-endian integer packing — the small
// vocabulary needed by the crypto, storage and protocol layers.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace revelio {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Builds an owning buffer from a view.
inline Bytes to_bytes(ByteView v) { return Bytes(v.begin(), v.end()); }

/// Builds an owning buffer from the raw bytes of a string.
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Interprets a byte buffer as text (caller asserts it is printable).
inline std::string to_string(ByteView v) {
  return std::string(v.begin(), v.end());
}

/// Appends `src` to `dst`.
inline void append(Bytes& dst, ByteView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

inline void append(Bytes& dst, std::string_view src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

inline void append_u8(Bytes& dst, std::uint8_t v) { dst.push_back(v); }

/// Appends a 32-bit integer big-endian.
inline void append_u32be(Bytes& dst, std::uint32_t v) {
  dst.push_back(static_cast<std::uint8_t>(v >> 24));
  dst.push_back(static_cast<std::uint8_t>(v >> 16));
  dst.push_back(static_cast<std::uint8_t>(v >> 8));
  dst.push_back(static_cast<std::uint8_t>(v));
}

/// Appends a 64-bit integer big-endian.
inline void append_u64be(Bytes& dst, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    dst.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

/// Reads a 32-bit big-endian integer at `off` (caller checks bounds).
inline std::uint32_t read_u32be(ByteView v, std::size_t off) {
  return (static_cast<std::uint32_t>(v[off]) << 24) |
         (static_cast<std::uint32_t>(v[off + 1]) << 16) |
         (static_cast<std::uint32_t>(v[off + 2]) << 8) |
         static_cast<std::uint32_t>(v[off + 3]);
}

/// Reads a 64-bit big-endian integer at `off` (caller checks bounds).
inline std::uint64_t read_u64be(ByteView v, std::size_t off) {
  std::uint64_t r = 0;
  for (std::size_t i = 0; i < 8; ++i) r = (r << 8) | v[off + i];
  return r;
}

/// Appends `v` behind its u32be length: the field framing shared by the
/// wire formats here (HTTP frames, certificates, boot blobs, provisioning).
inline void append_field(Bytes& dst, ByteView v) {
  append_u32be(dst, static_cast<std::uint32_t>(v.size()));
  append(dst, v);
}

inline void append_field(Bytes& dst, std::string_view v) {
  append_u32be(dst, static_cast<std::uint32_t>(v.size()));
  append(dst, v);
}

/// Reads back big-endian integers and append_field() fields. A read past
/// the end sets `failed` and yields 0 or empty, as does a field read once
/// `failed` is set; callers check `failed` after their last read.
struct FieldReader {
  ByteView data;
  std::size_t off = 0;
  bool failed = false;

  /// Claims the next `n` bytes, or fails if they are not there.
  bool take(std::size_t n) {
    if (off > data.size() || n > data.size() - off) {
      failed = true;
      return false;
    }
    off += n;
    return true;
  }
  std::uint8_t u8() { return take(1) ? data[off - 1] : 0; }
  std::uint32_t u32() { return take(4) ? read_u32be(data, off - 4) : 0; }
  std::uint64_t u64() { return take(8) ? read_u64be(data, off - 8) : 0; }
  ByteView field() {
    const std::uint32_t len = u32();
    if (failed || !take(len)) return {};
    return data.subspan(off - len, len);
  }
  Bytes bytes() { return to_bytes(field()); }
  std::string str() { return to_string(field()); }
  Bytes rest() {
    const ByteView tail = off < data.size() ? data.subspan(off) : ByteView{};
    off = data.size();
    return to_bytes(tail);
  }
};

/// Concatenates any number of views into one buffer.
template <typename... Views>
Bytes concat(const Views&... views) {
  Bytes out;
  (append(out, views), ...);
  return out;
}

/// Constant-time equality; the comparison cost does not depend on where the
/// buffers first differ. Used for MAC and measurement comparisons.
inline bool ct_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

/// XORs `b` into `a` elementwise over the common prefix.
inline void xor_into(std::span<std::uint8_t> a, ByteView b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) a[i] ^= b[i];
}

/// Fixed-size byte array with value semantics; used for digests and keys.
template <std::size_t N>
struct FixedBytes {
  std::array<std::uint8_t, N> data{};

  static constexpr std::size_t size() { return N; }
  std::uint8_t* begin() { return data.data(); }
  std::uint8_t* end() { return data.data() + N; }
  const std::uint8_t* begin() const { return data.data(); }
  const std::uint8_t* end() const { return data.data() + N; }
  std::uint8_t& operator[](std::size_t i) { return data[i]; }
  const std::uint8_t& operator[](std::size_t i) const { return data[i]; }

  ByteView view() const { return ByteView(data.data(), N); }
  operator ByteView() const { return view(); }
  Bytes bytes() const { return Bytes(data.begin(), data.end()); }

  static FixedBytes from(ByteView v) {
    FixedBytes out;
    const std::size_t n = std::min(N, v.size());
    std::copy_n(v.begin(), n, out.data.begin());
    return out;
  }

  friend bool operator==(const FixedBytes& a, const FixedBytes& b) {
    return ct_equal(a.view(), b.view());
  }
  friend bool operator!=(const FixedBytes& a, const FixedBytes& b) {
    return !(a == b);
  }
  friend auto operator<=>(const FixedBytes& a, const FixedBytes& b) {
    return a.data <=> b.data;
  }
};

}  // namespace revelio
