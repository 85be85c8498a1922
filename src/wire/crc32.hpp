#pragma once

#include <cstddef>
#include <cstdint>

/// \file crc32.hpp
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
///
/// The frame codec appends this checksum so a frame corrupted in flight
/// (bit flips, truncation at a byte boundary that still parses) is rejected
/// deterministically instead of being delivered to a protocol.
///
/// Slicing-by-8 folds eight input bytes per step through eight 256-entry
/// tables (table k advances a byte's contribution by k further bytes), and
/// finishes the last len % 8 bytes one at a time with table 0; the value is
/// the one the classic byte-at-a-time loop computes. The eight bytes of a
/// step are read as two little-endian 32-bit words assembled byte by byte,
/// which is the order the reflected CRC consumes them in, so the result does
/// not depend on the host's byte order or on the buffer's alignment.

namespace ecfd::wire {

/// CRC of \p len bytes at \p data, with an optional running seed for
/// incremental computation (pass a previous result to continue).
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                                  std::uint32_t seed = 0);

}  // namespace ecfd::wire
