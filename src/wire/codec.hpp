#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/message.hpp"

/// \file codec.hpp
/// Versioned, endian-stable binary framing for Message — the wire format of
/// the real-network transport (transport/socket_env.hpp).
///
/// Design:
///  * one datagram = one frame; every multi-byte integer is little-endian
///    byte-by-byte (buffer.hpp), so frames are identical across hosts;
///  * a frame starts with magic + version, ends with a CRC-32 of everything
///    before it; decode rejects bad magic, unknown versions, truncation,
///    trailing garbage, length mismatches and checksum failures — it never
///    crashes or reads out of bounds on corrupt input (fuzzed in
///    tests/test_wire_codec.cpp);
///  * the payload is tagged with the PayloadKind the message already
///    carries (net/message.hpp), the one registry of body types. Every kind
///    encodes: one writer and one reader walk the field list each body
///    states (net/message.hpp), so a body's layout and bounds are written
///    once, and a nested body fills exactly the length it states;
///  * frames carry no label: the sender counts by label in process, so a
///    decoded message's label is empty.
///
/// Layout of version 2 (v1 also carried a u16-length label after `type`;
/// the two versions do not interoperate, and a v1 frame fails to decode):
///
///   u16 magic | u8 version | u8 flags | [u64 causal seq] |
///   i32 src | i32 dst | i32 protocol | i32 type |
///   u16 kind | u32 payload length | payload | u32 CRC-32

namespace ecfd::wire {

/// Frame-format constants (bump kVersion on any layout change).
inline constexpr std::uint16_t kMagic = 0xECFD;
inline constexpr std::uint8_t kVersion = 2;

/// Frame flag bits (byte 3 of the header). A set bit changes the layout
/// right after the flags byte, so unknown bits are rejected — a decoder
/// without this table cannot skip fields it does not know the width of.
/// kFlagCausalSeq inserts a u64 per-sender send sequence number used by
/// ecfd_trace to stitch true happens-before send->deliver edges across
/// process traces; transports only set it while a recorder is attached, so
/// untraced runs emit byte-identical legacy frames.
inline constexpr std::uint8_t kFlagCausalSeq = 0x01;
inline constexpr std::uint8_t kKnownFlags = kFlagCausalSeq;

/// Hard bounds enforced by decode: anything larger is rejected, so a
/// corrupt length field can never cause a huge allocation.
inline constexpr std::size_t kMaxFrameBytes = 64 * 1024;
inline constexpr std::uint32_t kMaxElements = 1u << 16;  ///< vector/set caps
inline constexpr int kMaxUniverse = 1 << 16;             ///< max ProcessSet n

/// Encodes \p m into a self-contained frame. Returns false (and sets
/// \p error when non-null) for a payload kind outside PayloadKind, or a
/// frame over kMaxFrameBytes.
/// \p causal_seq, when nonzero, sets kFlagCausalSeq and embeds the
/// sender's send sequence number (sequences start at 1; 0 = untagged).
bool encode_message(const Message& m, std::vector<std::uint8_t>* out,
                    std::string* error = nullptr,
                    std::uint64_t causal_seq = 0);

/// Decodes one frame. Returns std::nullopt (and sets \p error when
/// non-null) on any malformed input; never throws, never reads out of
/// bounds, never allocates more than the bounds above allow. When
/// \p causal_seq is non-null it receives the frame's embedded causal
/// sequence number, or 0 if the frame carries none.
std::optional<Message> decode_message(const std::uint8_t* data,
                                      std::size_t len,
                                      std::string* error = nullptr,
                                      std::uint64_t* causal_seq = nullptr);

inline std::optional<Message> decode_message(
    const std::vector<std::uint8_t>& frame, std::string* error = nullptr,
    std::uint64_t* causal_seq = nullptr) {
  return decode_message(frame.data(), frame.size(), error, causal_seq);
}

/// True when every per-process field of \p m's body (kPerProcess in its
/// field list, nested bodies included) fits a universe of \p n processes.
/// Env::dispatch drops a body that does not.
bool fits_universe(const Message& m, int n);

}  // namespace ecfd::wire
