#include "check/verdict.hpp"

#include <sstream>

#include "obs/recorder.hpp"

namespace ecfd::check {

const char* to_string(VerdictState s) {
  switch (s) {
    case VerdictState::kHolding:
      return "holding";
    case VerdictState::kPending:
      return "pending";
    case VerdictState::kViolated:
      return "VIOLATED";
  }
  return "?";
}

std::string Verdict::to_string() const {
  std::ostringstream os;
  os << property << ": " << check::to_string(state);
  if (state == VerdictState::kHolding) {
    os << " since " << holds_since / 1000 << "ms";
  } else if (violated_at != kTimeNever) {
    os << " at " << violated_at / 1000 << "ms";
  }
  if (violations > 0) os << " (" << violations << " violating samples)";
  if (!witness.empty()) os << " — " << witness;
  if (!required) os << " [informational]";
  return os.str();
}

bool satisfied(const Verdict& v, TimeUs end, DurUs margin) {
  if (v.state == VerdictState::kViolated) return false;
  if (!v.eventual) return v.state == VerdictState::kHolding;
  return v.state == VerdictState::kHolding && v.holds_since + margin <= end;
}

std::vector<Verdict> failing(const std::vector<Verdict>& all, TimeUs end,
                             DurUs margin) {
  std::vector<Verdict> out;
  for (const Verdict& v : all) {
    if (v.required && !satisfied(v, end, margin)) out.push_back(v);
  }
  return out;
}

void VerdictTransitions::record(obs::Recorder& rec, TimeUs now,
                                const std::vector<Verdict>& verdicts) {
  for (const Verdict& v : verdicts) {
    const auto [it, first] = last_.try_emplace(v.property, v.state);
    if (!first && it->second == v.state) continue;
    it->second = v.state;
    if (first && v.state == VerdictState::kHolding) continue;
    rec.system_ring().push(now, obs::EventType::kVerdict,
                           static_cast<std::int32_t>(v.state), 0,
                           rec.intern(v.property));
  }
}

}  // namespace ecfd::check
