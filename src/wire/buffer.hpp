#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

/// \file buffer.hpp
/// Endian-stable primitives for the wire format.
///
/// All multi-byte integers are encoded little-endian byte by byte, so the
/// encoding is identical on every host regardless of native endianness or
/// struct layout. The reader is bounds-checked and *sticky-failing*: any
/// out-of-range read sets the fail flag and returns zero values, so decoders
/// can parse optimistically and check `ok()` once — truncated or corrupt
/// frames can never read out of bounds (the property the fuzz tests pin).

namespace ecfd::wire {

/// Appends little-endian primitives to a byte vector.
class WireWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }

  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }

  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }

  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// Length-prefixed (u16) byte string; truncates past 65535 bytes.
  void str(const std::string& s) {
    const auto len = static_cast<std::uint16_t>(
        s.size() > 0xffff ? 0xffff : s.size());
    u16(len);
    out_.insert(out_.end(), s.begin(), s.begin() + len);
  }

  void bytes(const std::uint8_t* p, std::size_t len) {
    out_.insert(out_.end(), p, p + len);
  }

  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

  /// Patches a previously written u32 in place (for back-filled lengths).
  void patch_u32(std::size_t at, std::uint32_t v) {
    out_[at] = static_cast<std::uint8_t>(v);
    out_[at + 1] = static_cast<std::uint8_t>(v >> 8);
    out_[at + 2] = static_cast<std::uint8_t>(v >> 16);
    out_[at + 3] = static_cast<std::uint8_t>(v >> 24);
  }

 private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian reader over a borrowed byte range.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return len_ - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == len_; }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data_[pos_++];
  }

  std::uint16_t u16() {
    if (!need(2)) return 0;
    const std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                            static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 8;
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::string str() {
    const std::uint16_t len = u16();
    if (!need(len)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  /// Advances past \p k bytes without interpreting them (bounds-checked,
  /// sticky-failing like every other read).
  void skip(std::size_t k) {
    if (!need(k)) return;
    pos_ += k;
  }

  /// Splits off the next \p k bytes as a reader of their own and advances
  /// past them. Bounds-checked and sticky-failing: when fewer than \p k
  /// bytes remain, both readers fail.
  WireReader sub(std::size_t k) {
    WireReader out(data_ + pos_, need(k) ? k : 0);
    if (ok_) {
      pos_ += k;
    } else {
      out.fail();
    }
    return out;
  }

  /// Declares failure from the decoder (semantic error, e.g. a bad tag).
  void fail() { ok_ = false; }

 private:
  bool need(std::size_t k) {
    if (!ok_ || len_ - pos_ < k) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_{0};
  bool ok_{true};
};

}  // namespace ecfd::wire
