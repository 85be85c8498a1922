#include "wire/codec.hpp"

#include <memory>
#include <type_traits>
#include <vector>

#include "broadcast/reliable_broadcast.hpp"
#include "consensus/bodies.hpp"
#include "fd/hier_c.hpp"
#include "fd/ring_fd.hpp"
#include "fd/swim.hpp"
#include "kv/command.hpp"
#include "net/process_set.hpp"
#include "wire/buffer.hpp"
#include "wire/crc32.hpp"

namespace ecfd::wire {

namespace {

/// Bodies nest at most this deep below a frame's payload (RbEnvelope
/// payloads nest one level deep).
constexpr int kMaxNesting = 4;

bool set_error(std::string* error, const char* reason) {
  if (error) *error = reason;
  return false;
}

/// Every body with a wire encoding: one type per PayloadKind but kNone.
template <class... T>
struct BodyList {
  /// Calls f(std::type_identity<B>{}) for the body type B of \p kind;
  /// returns false when no body has that kind.
  template <class F>
  static bool with_type(PayloadKind kind, F&& f) {
    return ((kind == kind_of<T> && (f(std::type_identity<T>{}), true)) ||
            ...);
  }
};

using WireBodies =
    BodyList<ProcessSet, std::vector<std::uint64_t>, fd::RingFd::Body,
             consensus::EstimateBody, consensus::ProposeBody,
             consensus::RoundOnly, consensus::DecideBody,
             broadcast::RbEnvelope, std::int64_t, kv::Request, kv::Reply,
             kv::BatchBody, kv::SnapshotChunk, fd::HierDigest, fd::SwimBody>;

// The field lists of the bodies that are library types. Every protocol
// that sends a set or a u64 vector sends one entry per process.
template <class V>
void fields(ProcessSet& s, V& v) {
  v(s, kPerProcess);
}
template <class V>
void fields(std::vector<std::uint64_t>& x, V& v) {
  v(x, kPerProcess);
}
template <class V>
void fields(std::int64_t& x, V& v) {
  v(x);
}
template <class T, class V>
void fields(T& body, V& v) {
  body.fields(v);
}

/// Walks a body for a visitor that only reads it (the writer, the fit
/// check); fields() is non-const because the reader fills it.
template <class T, class V>
void walk(const T& body, V& v) {
  fields(const_cast<T&>(body), v);
}

/// walk() for a body known by its kind; false when no body has that kind.
template <class V>
bool walk_body(PayloadKind kind, const void* body, V& v) {
  return WireBodies::with_type(kind, [&](auto type) {
    using T = typename decltype(type)::type;
    walk(*static_cast<const T*>(body), v);
  });
}

// The three visitors below treat a frame's payload as a nested body: a
// u16 kind, a u32 length, then the fields.

class Writer {
 public:
  explicit Writer(WireWriter& w) : w_(w) {}
  /// False when a body's kind is outside PayloadKind.
  [[nodiscard]] bool ok() const { return ok_; }

  void operator()(std::uint8_t x) { w_.u8(x); }
  void operator()(std::int32_t x) { w_.i32(x); }
  void operator()(std::uint32_t x) { w_.u32(x); }
  void operator()(std::int64_t x) { w_.i64(x); }
  void operator()(std::uint64_t x) { w_.u64(x); }

  template <class E>
    requires(std::is_enum_v<E> && sizeof(E) == 1)
  void operator()(E e, E /*max*/) {
    w_.u8(static_cast<std::uint8_t>(e));
  }

  void operator()(const std::string& s, std::size_t /*cap*/) { w_.str(s); }

  void operator()(const std::vector<std::uint8_t>& b, std::size_t /*cap*/) {
    w_.u32(static_cast<std::uint32_t>(b.size()));
    w_.bytes(b.data(), b.size());
  }

  template <class T>
  void operator()(const std::vector<T>& items, std::size_t /*cap*/) {
    w_.u32(static_cast<std::uint32_t>(items.size()));
    for (const T& item : items) walk(item, *this);
  }

  void operator()(ProcessId p, PerProcess) { w_.i32(p); }

  void operator()(const ProcessSet& s, PerProcess) {
    w_.i32(s.universe_size());
    const auto members = s.members();
    w_.u32(static_cast<std::uint32_t>(members.size()));
    for (const ProcessId p : members) w_.i32(p);
  }

  void operator()(const std::vector<std::uint64_t>& x, PerProcess) {
    w_.u32(static_cast<std::uint32_t>(x.size()));
    for (const std::uint64_t e : x) w_.u64(e);
  }

  /// The length is back-patched once the fields are written.
  void operator()(const std::shared_ptr<const void>& body, PayloadKind kind) {
    w_.u16(static_cast<std::uint16_t>(kind));
    const std::size_t at = w_.size();
    w_.u32(0);
    if (kind != PayloadKind::kNone && !walk_body(kind, body.get(), *this)) {
      ok_ = false;
    }
    w_.patch_u32(at, static_cast<std::uint32_t>(w_.size() - at - 4));
  }

 private:
  WireWriter& w_;
  bool ok_{true};
};

/// Fills fields from a WireReader, failing it on any value out of bounds.
class Reader {
 public:
  explicit Reader(WireReader& r, int depth = 0) : r_(r), depth_(depth) {}

  void operator()(std::uint8_t& x) { x = r_.u8(); }
  void operator()(std::int32_t& x) { x = r_.i32(); }
  void operator()(std::uint32_t& x) { x = r_.u32(); }
  void operator()(std::int64_t& x) { x = r_.i64(); }
  void operator()(std::uint64_t& x) { x = r_.u64(); }

  template <class E>
    requires(std::is_enum_v<E> && sizeof(E) == 1)
  void operator()(E& e, E max) {
    const std::uint8_t raw = r_.u8();
    if (raw > static_cast<std::uint8_t>(max)) r_.fail();
    e = static_cast<E>(raw);
  }

  void operator()(std::string& s, std::size_t cap) {
    s = r_.str();
    if (s.size() > cap) r_.fail();
  }

  void operator()(std::vector<std::uint8_t>& b, std::size_t cap) {
    const std::uint32_t len = r_.u32();
    if (!r_.ok() || len > cap || len > r_.remaining()) {
      r_.fail();
      return;
    }
    b.resize(len);
    for (std::uint8_t& x : b) x = r_.u8();
  }

  template <class T>
  void operator()(std::vector<T>& items, std::size_t cap) {
    const std::uint32_t count = r_.u32();
    if (!r_.ok() || count > cap) {
      r_.fail();
      return;
    }
    items.reserve(count);
    for (std::uint32_t i = 0; i < count && r_.ok(); ++i) {
      fields(items.emplace_back(), *this);
    }
  }

  /// Env::dispatch checks the id against n.
  void operator()(ProcessId& p, PerProcess) { p = r_.i32(); }

  void operator()(ProcessSet& s, PerProcess) {
    const std::int32_t n = r_.i32();
    const std::uint32_t count = r_.u32();
    if (!r_.ok() || n < 0 || n > kMaxUniverse || count > kMaxElements ||
        count > static_cast<std::uint32_t>(n)) {
      r_.fail();
      return;
    }
    s = ProcessSet(n);
    ProcessId prev = kNoProcess;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::int32_t p = r_.i32();
      if (!r_.ok() || p < 0 || p >= n || p <= prev) {
        r_.fail();
        return;
      }
      s.add(p);
      prev = p;
    }
  }

  void operator()(std::vector<std::uint64_t>& x, PerProcess) {
    const std::uint32_t len = r_.u32();
    // A u64 element needs 8 bytes on the wire, so a huge length field on a
    // short frame is caught here before any allocation.
    if (!r_.ok() || len > kMaxElements || r_.remaining() < 8u * len) {
      r_.fail();
      return;
    }
    x.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i) x.push_back(r_.u64());
  }

  /// The fields must fill exactly the length stated.
  void operator()(std::shared_ptr<const void>& body, PayloadKind& kind) {
    kind = static_cast<PayloadKind>(r_.u16());
    WireReader nested = r_.sub(r_.u32());
    // Past the cap the nested reader fails. A failed reader reads zeros,
    // so every deeper kind is kNone and the recursion stops.
    if (depth_ > kMaxNesting) nested.fail();
    Reader reader(nested, depth_ + 1);
    const bool known =
        kind == PayloadKind::kNone ||
        WireBodies::with_type(kind, [&](auto type) {
          using T = typename decltype(type)::type;
          T decoded{};
          fields(decoded, reader);
          if constexpr (requires { decoded.valid(); }) {
            if (!decoded.valid()) nested.fail();
          }
          if (nested.ok() && nested.exhausted()) {
            body = std::make_shared<const T>(std::move(decoded));
          }
        });
    if (!known || !nested.ok() || !nested.exhausted()) r_.fail();
  }

 private:
  WireReader& r_;
  int depth_;
};

/// Checks every per-process field against a universe of n processes.
class FitsUniverse {
 public:
  explicit FitsUniverse(int n) : n_(n) {}
  [[nodiscard]] bool ok() const { return ok_; }

  /// Scalars, strings and enums name no process.
  template <class... A>
  void operator()(const A&... /*field*/) {}

  template <class T, class Cap>
  void operator()(const std::vector<T>& items, Cap /*cap*/) {
    for (const T& item : items) walk(item, *this);
  }
  template <class Cap>
  void operator()(const std::vector<std::uint8_t>& /*b*/, Cap /*cap*/) {}

  void operator()(ProcessId p, PerProcess) {
    ok_ = ok_ && p >= kNoProcess && p < n_;
  }
  void operator()(const ProcessSet& s, PerProcess) {
    ok_ = ok_ && s.universe_size() == n_;
  }
  void operator()(const std::vector<std::uint64_t>& x, PerProcess) {
    ok_ = ok_ && x.size() == static_cast<std::size_t>(n_);
  }

  void operator()(const std::shared_ptr<const void>& body, PayloadKind kind) {
    walk_body(kind, body.get(), *this);
  }

 private:
  int n_;
  bool ok_{true};
};

}  // namespace

bool fits_universe(const Message& m, int n) {
  FitsUniverse fits(n);
  fits(m.payload, m.payload_kind);
  return fits.ok();
}

bool encode_message(const Message& m, std::vector<std::uint8_t>* out,
                    std::string* error, std::uint64_t causal_seq) {
  WireWriter w;
  w.u16(kMagic);
  w.u8(kVersion);
  w.u8(causal_seq != 0 ? kFlagCausalSeq : 0);
  if (causal_seq != 0) w.u64(causal_seq);
  w.i32(m.src);
  w.i32(m.dst);
  w.i32(m.protocol);
  w.i32(m.type);

  Writer payload(w);
  payload(m.payload, m.payload_kind);
  if (!payload.ok()) return set_error(error, "unknown payload kind");

  w.u32(crc32(w.data().data(), w.size()));
  if (w.size() > kMaxFrameBytes) {
    return set_error(error, "frame exceeds kMaxFrameBytes");
  }
  *out = w.take();
  return true;
}

std::optional<Message> decode_message(const std::uint8_t* data,
                                      std::size_t len, std::string* error,
                                      std::uint64_t* causal_seq) {
  const auto fail = [&](const char* reason) -> std::optional<Message> {
    set_error(error, reason);
    return std::nullopt;
  };
  if (causal_seq != nullptr) *causal_seq = 0;

  if (len < 4 || len > kMaxFrameBytes) return fail("bad frame size");
  if (crc32(data, len - 4) !=
      (static_cast<std::uint32_t>(data[len - 4]) |
       static_cast<std::uint32_t>(data[len - 3]) << 8 |
       static_cast<std::uint32_t>(data[len - 2]) << 16 |
       static_cast<std::uint32_t>(data[len - 1]) << 24)) {
    return fail("checksum mismatch");
  }

  WireReader r(data, len - 4);  // the checksum itself is not re-read
  if (r.u16() != kMagic) return fail("bad magic");
  if (r.u8() != kVersion) return fail("unsupported version");
  const std::uint8_t flags = r.u8();
  if ((flags & ~kKnownFlags) != 0) return fail("nonzero reserved flags");
  if ((flags & kFlagCausalSeq) != 0) {
    const std::uint64_t seq = r.u64();
    if (!r.ok() || seq == 0) return fail("bad causal sequence");
    if (causal_seq != nullptr) *causal_seq = seq;
  }

  Message m;
  m.src = r.i32();
  m.dst = r.i32();
  m.protocol = r.i32();
  m.type = r.i32();
  if (!r.ok() || m.src < kNoProcess || m.src >= kMaxUniverse ||
      m.dst < kNoProcess || m.dst >= kMaxUniverse) {
    return fail("bad frame header");
  }

  Reader payload(r);
  payload(m.payload, m.payload_kind);
  if (!r.ok() || !r.exhausted()) return fail("bad payload");
  return m;
}

}  // namespace ecfd::wire
