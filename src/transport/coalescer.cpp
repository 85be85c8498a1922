#include "transport/coalescer.hpp"

#include <cassert>
#include <utility>

#include "wire/codec.hpp"
#include "wire/envelope.hpp"

namespace ecfd::transport {

static_assert(Coalescer::kMaxFrames >= 2 &&
                  Coalescer::kMaxFrames <= wire::kMaxFramesPerEnvelope,
              "an envelope holds 2..kMaxFramesPerEnvelope frames");
// The envelope (header, per-frame length prefixes, CRC) must itself fit
// one datagram.
static_assert(Coalescer::kMaxBytes + wire::kEnvelopeOverheadBytes +
                      Coalescer::kMaxFrames *
                          wire::kEnvelopeFrameOverheadBytes <=
                  wire::kMaxFrameBytes,
              "a full envelope must fit one frame");

Coalescer::Coalescer(int n, bool enabled)
    : queues_(static_cast<std::size_t>(n)), enabled_(enabled) {}

void Coalescer::pack(PeerQueue& q, ProcessId dst, std::vector<Packed>* out) {
  if (q.frames.empty()) return;
  Packed p{dst, q.frames.size(), {}};
  if (q.frames.size() == 1) {
    p.bytes = std::move(q.frames.front());
    out->push_back(std::move(p));
  } else if (wire::encode_envelope(q.frames, &p.bytes, nullptr)) {
    out->push_back(std::move(p));
  } else {
    // The caps above rule out every failure but an empty frame; degrade
    // to singles rather than drop traffic if one ever arrives.
    for (auto& f : q.frames) out->push_back(Packed{dst, 1, std::move(f)});
  }
  q.frames.clear();
  q.bytes = 0;
  --pending_;
}

void Coalescer::add(ProcessId dst, std::vector<std::uint8_t> frame,
                    std::vector<Packed>* ready) {
  assert(dst >= 0 && static_cast<std::size_t>(dst) < queues_.size());
  if (!enabled_) {
    ready->push_back(Packed{dst, 1, std::move(frame)});
    return;
  }
  PeerQueue& q = queues_[static_cast<std::size_t>(dst)];
  // An oversized frame never fits an envelope: flush the queue and pass
  // it through raw, preserving per-peer FIFO order.
  if (frame.size() > kMaxBytes) {
    pack(q, dst, ready);
    ready->push_back(Packed{dst, 1, std::move(frame)});
    return;
  }
  if (q.bytes + frame.size() > kMaxBytes) pack(q, dst, ready);
  if (q.frames.empty()) ++pending_;
  q.bytes += frame.size();
  q.frames.push_back(std::move(frame));
  if (q.frames.size() >= kMaxFrames) pack(q, dst, ready);
}

void Coalescer::flush(std::vector<Packed>* out) {
  for (std::size_t p = 0; p < queues_.size() && pending_ > 0; ++p) {
    pack(queues_[p], static_cast<ProcessId>(p), out);
  }
}

}  // namespace ecfd::transport
