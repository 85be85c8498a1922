// Fuzz/property suite for the wire batch envelope (src/wire/envelope.*):
// every mutation of a valid envelope — truncation at every byte, a bit
// flip in every byte, count and length lies, splits across datagram
// boundaries — must be REJECTED, never crash, and never mis-deliver.
// Deterministic: fixed seeds, exhaustive loops over small inputs. The
// Coalescer cases at the end pin the queue that builds these envelopes
// (src/transport/coalescer.*): its caps, its raw pass-through and its
// per-peer FIFO order.
#include "wire/envelope.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "net/protocol_ids.hpp"
#include "transport/coalescer.hpp"
#include "wire/codec.hpp"

namespace ecfd::wire {
namespace {

std::vector<std::uint8_t> frame_of(std::int64_t v) {
  std::vector<std::uint8_t> f;
  std::string error;
  Message m = Message::make<std::int64_t>(protocol_ids::kTesting, 1, "t.env", v);
  m.src = 0;
  m.dst = 1;
  EXPECT_TRUE(encode_message(m, &f, &error)) << error;
  return f;
}

std::vector<std::vector<std::uint8_t>> sample_frames(int k) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < k; ++i) frames.push_back(frame_of(1000 + i));
  return frames;
}

std::vector<std::uint8_t> sample_envelope(int k) {
  std::vector<std::uint8_t> env;
  std::string error;
  EXPECT_TRUE(encode_envelope(sample_frames(k), &env, &error)) << error;
  return env;
}

TEST(Envelope, RoundTripsEveryFrameIntact) {
  for (int k : {1, 2, 3, 7, 64}) {
    const auto frames = sample_frames(k);
    std::vector<std::uint8_t> env;
    std::string error;
    ASSERT_TRUE(encode_envelope(frames, &env, &error)) << error;
    ASSERT_TRUE(is_envelope(env.data(), env.size()));

    const auto views = decode_envelope(env.data(), env.size(), &error);
    ASSERT_TRUE(views.has_value()) << error;
    ASSERT_EQ(views->size(), static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      const auto m = decode_message((*views)[static_cast<std::size_t>(i)].data,
                                    (*views)[static_cast<std::size_t>(i)].len);
      ASSERT_TRUE(m.has_value());
      ASSERT_NE(m->as<std::int64_t>(), nullptr);
      EXPECT_EQ(*m->as<std::int64_t>(), 1000 + i);
    }
  }
}

TEST(Envelope, MagicIsDisjointFromSingleFrameMagic) {
  // The receive path dispatches on the first two bytes; a single frame
  // must never look like an envelope and vice versa.
  const auto frame = frame_of(7);
  const auto env = sample_envelope(2);
  EXPECT_FALSE(is_envelope(frame.data(), frame.size()));
  EXPECT_TRUE(is_envelope(env.data(), env.size()));
  EXPECT_FALSE(decode_message(env.data(), env.size()).has_value());
}

TEST(Envelope, RejectsEmptyAndOversizedBatches) {
  std::vector<std::uint8_t> out;
  std::string error;
  EXPECT_FALSE(encode_envelope({}, &out, &error));

  std::vector<std::vector<std::uint8_t>> too_many;
  for (std::size_t i = 0; i <= kMaxFramesPerEnvelope; ++i) {
    too_many.push_back(frame_of(static_cast<std::int64_t>(i)));
  }
  EXPECT_FALSE(encode_envelope(too_many, &out, &error));

  // A batch whose bytes exceed kMaxFrameBytes must refuse to pack (the
  // coalescer degrades to singles instead of emitting an unsendable blob).
  std::vector<std::vector<std::uint8_t>> too_big;
  std::vector<std::uint8_t> fat(kMaxFrameBytes / 2, 0xAB);
  too_big.push_back(fat);
  too_big.push_back(fat);
  too_big.push_back(fat);
  EXPECT_FALSE(encode_envelope(too_big, &out, &error));
}

TEST(EnvelopeFuzz, TruncationAtEveryByteRejects) {
  const auto env = sample_envelope(5);
  for (std::size_t len = 0; len < env.size(); ++len) {
    const auto views = decode_envelope(env.data(), len);
    EXPECT_FALSE(views.has_value()) << "accepted truncation to " << len;
  }
}

TEST(EnvelopeFuzz, BitFlipInEveryByteRejectsOrDropsOnlyInnerFrames) {
  // The envelope CRC catches framing corruption; a flip inside an inner
  // frame's bytes may still decode as a valid envelope (framing intact)
  // but the inner frame's own CRC must then reject it in decode_message.
  // Either way: no crash, and no frame decodes to a wrong payload.
  const auto env = sample_envelope(3);
  for (std::size_t i = 0; i < env.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = env;
      bad[i] ^= static_cast<std::uint8_t>(1u << bit);
      const auto views = decode_envelope(bad.data(), bad.size());
      if (!views.has_value()) continue;  // rejected at the framing layer
      for (const auto& v : *views) {
        const auto m = decode_message(v.data, v.len);
        if (!m.has_value()) continue;  // rejected at the frame layer
        ASSERT_NE(m->as<std::int64_t>(), nullptr);
        const std::int64_t payload = *m->as<std::int64_t>();
        EXPECT_TRUE(payload >= 1000 && payload <= 1002)
            << "byte " << i << " bit " << bit
            << " delivered corrupted payload " << payload;
      }
    }
  }
}

TEST(EnvelopeFuzz, CountLiesReject) {
  auto env = sample_envelope(4);
  // count lives at offset 4 (magic u16, version u8, flags u8, count u16).
  for (std::uint32_t lie : {0u, 1u, 3u, 5u, 255u, 65535u}) {
    auto bad = env;
    bad[4] = static_cast<std::uint8_t>(lie & 0xFF);
    bad[5] = static_cast<std::uint8_t>(lie >> 8);
    EXPECT_FALSE(decode_envelope(bad.data(), bad.size()).has_value())
        << "accepted count lie " << lie;
  }
}

TEST(EnvelopeFuzz, LengthLiesReject) {
  const auto env = sample_envelope(3);
  // The first inner length prefix sits right after the 8-byte header.
  for (std::uint32_t lie :
       {0u, 1u, 1u << 16, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
    auto bad = env;
    bad[8] = static_cast<std::uint8_t>(lie & 0xFF);
    bad[9] = static_cast<std::uint8_t>((lie >> 8) & 0xFF);
    bad[10] = static_cast<std::uint8_t>((lie >> 16) & 0xFF);
    bad[11] = static_cast<std::uint8_t>(lie >> 24);
    EXPECT_FALSE(decode_envelope(bad.data(), bad.size()).has_value())
        << "accepted length lie " << lie;
  }
}

TEST(EnvelopeFuzz, SplitAcrossTwoDatagramsRejectsBothHalves) {
  // UDP never fragments an envelope for us, but a buggy sender might; each
  // half alone must be rejected (the head is truncated, the tail has no
  // magic), and gluing the halves in the WRONG order must be rejected too.
  const auto env = sample_envelope(6);
  for (std::size_t cut : {std::size_t{3}, std::size_t{8}, env.size() / 2,
                          env.size() - 2}) {
    std::vector<std::uint8_t> head(env.begin(),
                                   env.begin() + static_cast<std::ptrdiff_t>(cut));
    std::vector<std::uint8_t> tail(env.begin() + static_cast<std::ptrdiff_t>(cut),
                                   env.end());
    EXPECT_FALSE(decode_envelope(head.data(), head.size()).has_value());
    EXPECT_FALSE(decode_envelope(tail.data(), tail.size()).has_value());
    std::vector<std::uint8_t> swapped = tail;
    swapped.insert(swapped.end(), head.begin(), head.end());
    EXPECT_FALSE(decode_envelope(swapped.data(), swapped.size()).has_value());
  }
}

TEST(EnvelopeFuzz, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(20260808);
  std::vector<std::uint8_t> buf;
  for (int round = 0; round < 2000; ++round) {
    buf.resize(rng() % 512);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    // Bias some rounds toward the magic so the parser gets past dispatch.
    if (round % 3 == 0 && buf.size() >= 2) {
      buf[0] = 0xBA;
      buf[1] = 0xEC;
    }
    const auto views = decode_envelope(buf.data(), buf.size());
    if (views.has_value()) {
      for (const auto& v : *views) decode_message(v.data, v.len);
    }
  }
}

TEST(EnvelopeFuzz, NestedEnvelopeFramesAreRejectedByInnerDecode) {
  // An envelope whose "inner frame" is itself an envelope passes the outer
  // framing (lengths and CRC are consistent) but must fail decode_message,
  // so nesting can never smuggle frames past the depth-one design.
  const auto inner_env = sample_envelope(2);
  std::vector<std::uint8_t> outer;
  std::string error;
  ASSERT_TRUE(encode_envelope({inner_env}, &outer, &error)) << error;
  const auto views = decode_envelope(outer.data(), outer.size(), &error);
  ASSERT_TRUE(views.has_value()) << error;
  ASSERT_EQ(views->size(), 1u);
  EXPECT_FALSE(decode_message((*views)[0].data, (*views)[0].len).has_value());
}

// --- Coalescer ---------------------------------------------------------

using transport::Coalescer;
using Frames = std::vector<std::vector<std::uint8_t>>;

/// The frames one packed datagram carries, in order (a raw frame is one).
Frames unpack(const Coalescer::Packed& p) {
  if (!is_envelope(p.bytes.data(), p.bytes.size())) return {p.bytes};
  std::string error;
  const auto views = decode_envelope(p.bytes.data(), p.bytes.size(), &error);
  EXPECT_TRUE(views.has_value()) << error;
  Frames out;
  if (!views) return out;
  for (const auto& v : *views) out.emplace_back(v.data, v.data + v.len);
  EXPECT_EQ(out.size(), p.frames);
  return out;
}

/// A frame of \p len bytes tagged with \p tag, for order checks.
std::vector<std::uint8_t> sized_frame(std::size_t len, std::uint8_t tag) {
  return std::vector<std::uint8_t>(len, tag);
}

TEST(Coalescer, LoneFrameLeavesRaw) {
  Coalescer c(3, true);
  std::vector<Coalescer::Packed> out;
  const auto f = frame_of(7);
  c.add(1, f, &out);
  EXPECT_TRUE(out.empty()) << "a lone frame waits for the flush";
  c.flush(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, 1);
  EXPECT_EQ(out[0].frames, 1u);
  EXPECT_EQ(out[0].bytes, f);
  EXPECT_FALSE(is_envelope(out[0].bytes.data(), out[0].bytes.size()));
  out.clear();
  c.flush(&out);
  EXPECT_TRUE(out.empty()) << "a flush empties every queue";
}

TEST(Coalescer, FramesToOnePeerLeaveAsOneEnvelopeInOrder) {
  Coalescer c(3, true);
  std::vector<Coalescer::Packed> out;
  const auto frames = sample_frames(5);
  for (const auto& f : frames) c.add(2, f, &out);
  EXPECT_TRUE(out.empty());
  c.flush(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, 2);
  EXPECT_EQ(out[0].frames, 5u);
  ASSERT_TRUE(is_envelope(out[0].bytes.data(), out[0].bytes.size()));
  EXPECT_EQ(unpack(out[0]), frames);
}

TEST(Coalescer, FrameAndByteCapsPackAtOnceAndKeepPerPeerFifo) {
  Coalescer c(3, true);
  std::vector<Coalescer::Packed> out;
  // kMaxFrames small frames: the last one packs the batch immediately.
  for (std::size_t i = 0; i + 1 < Coalescer::kMaxFrames; ++i) {
    c.add(1, sized_frame(8, static_cast<std::uint8_t>(i)), &out);
  }
  EXPECT_TRUE(out.empty());
  c.add(1, sized_frame(8, 0xEE), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].frames, Coalescer::kMaxFrames);
  const Frames full = unpack(out[0]);
  ASSERT_EQ(full.size(), Coalescer::kMaxFrames);
  for (std::size_t i = 0; i + 1 < full.size(); ++i) {
    EXPECT_EQ(full[i].front(), static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(full.back().front(), 0xEE);

  // The byte cap: a frame that would push a peer's queue past kMaxBytes
  // packs the queue first. Peer 2's traffic interleaves and must not
  // disturb peer 1's order.
  out.clear();
  const std::size_t quarter = Coalescer::kMaxBytes / 4;
  for (std::uint8_t tag = 1; tag <= 4; ++tag) {
    c.add(1, sized_frame(quarter, tag), &out);
    c.add(2, sized_frame(16, static_cast<std::uint8_t>(100 + tag)), &out);
  }
  EXPECT_TRUE(out.empty()) << "exactly kMaxBytes still fits";
  c.add(1, sized_frame(1, 5), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, 1);
  EXPECT_EQ(unpack(out[0]).size(), 4u);
  c.flush(&out);
  ASSERT_EQ(out.size(), 3u);
  // Flush order is peer order; within a peer, arrival order.
  EXPECT_EQ(out[1].dst, 1);
  EXPECT_EQ(out[2].dst, 2);
  std::vector<std::uint8_t> tags1;
  std::vector<std::uint8_t> tags2;
  for (const auto& p : out) {
    for (const auto& f : unpack(p)) {
      (p.dst == 1 ? tags1 : tags2).push_back(f.front());
    }
  }
  EXPECT_EQ(tags1, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(tags2, (std::vector<std::uint8_t>{101, 102, 103, 104}));
}

TEST(Coalescer, OversizedFrameFlushesItsQueueThenLeavesRaw) {
  Coalescer c(2, true);
  std::vector<Coalescer::Packed> out;
  const auto small = sample_frames(2);
  for (const auto& f : small) c.add(1, f, &out);
  const auto big = sized_frame(Coalescer::kMaxBytes + 1, 0xB1);
  c.add(1, big, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].frames, 2u);
  EXPECT_EQ(unpack(out[0]), small);
  EXPECT_EQ(out[1].frames, 1u);
  EXPECT_EQ(out[1].bytes, big);
  out.clear();
  c.flush(&out);
  EXPECT_TRUE(out.empty());
}

TEST(Coalescer, DisabledPassesEveryFrameRaw) {
  Coalescer c(3, false);
  std::vector<Coalescer::Packed> out;
  const auto frames = sample_frames(4);
  for (const auto& f : frames) c.add(2, f, &out);
  ASSERT_EQ(out.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(out[i].dst, 2);
    EXPECT_EQ(out[i].frames, 1u);
    EXPECT_EQ(out[i].bytes, frames[i]);
  }
  out.clear();
  c.flush(&out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace ecfd::wire
