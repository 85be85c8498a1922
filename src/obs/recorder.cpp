#include "obs/recorder.hpp"

#include <algorithm>
#include <cassert>

#include "obs/json.hpp"

namespace ecfd::obs {

const char* event_type_name(EventType t) {
  switch (t) {
    case EventType::kNone: return "none";
    case EventType::kSend: return "send";
    case EventType::kDeliver: return "deliver";
    case EventType::kTimerSet: return "timer_set";
    case EventType::kTimerCancel: return "timer_cancel";
    case EventType::kSuspect: return "suspect";
    case EventType::kUnsuspect: return "unsuspect";
    case EventType::kLeaderChange: return "leader_change";
    case EventType::kRoundStart: return "round_start";
    case EventType::kDecide: return "decide";
    case EventType::kCrash: return "crash";
    case EventType::kDrop: return "drop";
    case EventType::kVerdict: return "verdict";
    case EventType::kNote: return "note";
    case EventType::kLeaseGrant: return "lease_grant";
    case EventType::kLeaseRevoke: return "lease_revoke";
    case EventType::kWireSend: return "wire_send";
    case EventType::kWireDeliver: return "wire_deliver";
  }
  return "unknown";
}

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

// ------------------------------------------------------------ EventRing

void EventRing::init(std::int32_t host, std::size_t depth) {
  assert(slots_.empty() && "init() is bind-time only");
  if (depth == 0) return;
  host_ = host;
  const std::size_t cap = round_up_pow2(depth);
  mask_ = cap - 1;
  slots_ = std::vector<Slot>(cap);
}

void EventRing::snapshot(std::vector<Event>* out,
                         std::vector<std::uint64_t>* seqs) const {
  out->clear();
  if (seqs != nullptr) seqs->clear();
  if (slots_.empty()) return;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t count = std::min<std::uint64_t>(head, capacity());
  out->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t seq = head - count; seq < head; ++seq) {
    const Slot& s = slots_[static_cast<std::size_t>(seq) & mask_];
    Event e;
    e.type = static_cast<EventType>(s.type.load(std::memory_order_acquire));
    if (e.type == EventType::kNone) continue;  // writer not yet committed
    e.time = s.time.load(std::memory_order_relaxed);
    e.a = s.a.load(std::memory_order_relaxed);
    e.b = s.b.load(std::memory_order_relaxed);
    e.label = s.label.load(std::memory_order_relaxed);
    e.host = host_;
    out->push_back(e);
    if (seqs != nullptr) seqs->push_back(seq);
  }
}

// ------------------------------------------------------------- Recorder

Recorder::Recorder(std::size_t depth) : depth_(round_up_pow2(depth == 0 ? 1 : depth)) {
  system_ring_.init(-1, depth_);
}

void Recorder::bind_hosts(int n) {
  while (hosts() < n) {
    auto rings = std::make_unique<HostRings>();
    rings->hot.init(hosts(), depth_);
    rings->state.init(hosts(), std::min(depth_, kStateDepth));
    rings_.push_back(std::move(rings));
  }
}

std::int32_t Recorder::intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(strings_mu_);
  auto it = string_ids_.find(s);
  if (it != string_ids_.end()) return it->second;
  const auto id = static_cast<std::int32_t>(strings_.size());
  strings_.emplace_back(s);
  string_ids_.emplace(std::string(s), id);
  return id;
}

std::string Recorder::string_at(std::int32_t id) const {
  std::lock_guard<std::mutex> lock(strings_mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= strings_.size()) return "";
  return strings_[static_cast<std::size_t>(id)];
}

std::vector<std::string> Recorder::strings() const {
  std::lock_guard<std::mutex> lock(strings_mu_);
  return strings_;
}

std::vector<Event> Recorder::merged() const {
  struct Tagged {
    Event e;
    std::uint64_t seq;
    std::uint32_t ring;
  };
  std::vector<Tagged> all;
  std::vector<Event> events;
  std::vector<std::uint64_t> seqs;
  std::uint32_t ring_ord = 0;
  auto take = [&](const EventRing& r) {
    r.snapshot(&events, &seqs);
    for (std::size_t i = 0; i < events.size(); ++i) {
      all.push_back(Tagged{events[i], seqs[i], ring_ord});
    }
    ++ring_ord;
  };
  for (const auto& r : rings_) {
    take(r->hot);
    take(r->state);
  }
  take(system_ring_);

  std::stable_sort(all.begin(), all.end(), [](const Tagged& x, const Tagged& y) {
    if (x.e.time != y.e.time) return x.e.time < y.e.time;
    if (x.e.host != y.e.host) return x.e.host < y.e.host;
    if (x.ring != y.ring) return x.ring < y.ring;
    return x.seq < y.seq;
  });
  std::vector<Event> out;
  out.reserve(all.size());
  for (const Tagged& t : all) out.push_back(t.e);
  return out;
}

std::uint64_t Recorder::dropped_total() const {
  std::uint64_t d = system_ring_.dropped();
  for (const auto& r : rings_) d += r->hot.dropped() + r->state.dropped();
  return d;
}

void Recorder::write_trace_json(std::ostream& os) const {
  const std::vector<Event> events = merged();
  std::string j;
  j.reserve(events.size() * 48 + 512);
  j += "{\n  \"schema\": \"ecfd.trace.v1\",\n";
  j += "  \"source\": \"";
  json::escape_into(&j, meta_.source);
  j += "\",\n";
  j += "  \"clock\": \"";
  j += meta_.clock == ClockDomain::kVirtual ? "virtual" : "monotonic";
  j += "\",\n";
  j += "  \"wall_epoch_us\": " + std::to_string(meta_.wall_epoch_us) + ",\n";
  j += "  \"n\": " + std::to_string(hosts()) + ",\n";
  j += "  \"depth\": " + std::to_string(depth_) + ",\n";
  j += "  \"dropped\": " + std::to_string(dropped_total()) + ",\n";
  j += "  \"strings\": [";
  const std::vector<std::string> strs = strings();
  for (std::size_t i = 0; i < strs.size(); ++i) {
    if (i != 0) j += ", ";
    j += "\"";
    json::escape_into(&j, strs[i]);
    j += "\"";
  }
  j += "],\n";
  // One event per line: [time_us, host, "type", a, b, label]
  j += "  \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    j += i == 0 ? "\n" : ",\n";
    j += "    [" + std::to_string(e.time) + ", " + std::to_string(e.host) +
         ", \"" + event_type_name(e.type) + "\", " + std::to_string(e.a) +
         ", " + std::to_string(e.b) + ", " + std::to_string(e.label) + "]";
  }
  j += events.empty() ? "]\n" : "\n  ]\n";
  j += "}\n";
  os << j;
}

}  // namespace ecfd::obs
