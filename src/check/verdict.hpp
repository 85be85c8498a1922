#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace ecfd::obs {
class Recorder;
}

/// \file verdict.hpp
/// The result type of the online property monitors (check/).
///
/// Every paper property is either a safety property (uniform agreement,
/// validity, uniform integrity — a violation is a finite witness and the
/// verdict is final) or an eventual property (strong completeness, eventual
/// weak/strong accuracy, leader agreement/stability, the ◇C coupling clause
/// — on a finite run the monitor reports the start of the current holding
/// suffix, and the caller decides with how much margin before the end the
/// property must have stabilized).

namespace ecfd::check {

enum class VerdictState {
  kHolding,   ///< currently satisfied; `holds_since` marks the suffix start
  kPending,   ///< eventual property currently violated — may still stabilize
  kViolated,  ///< safety property irrecoverably violated at `violated_at`
};

/// One property's verdict at query time.
struct Verdict {
  std::string property;  ///< e.g. "fd.strong_completeness"
  VerdictState state{VerdictState::kHolding};
  bool eventual{true};   ///< eventual (suffix-based) vs safety (final)
  bool required{true};   ///< enforced for the detector class under test
  TimeUs holds_since{0};           ///< start of the holding suffix (kHolding)
  TimeUs violated_at{kTimeNever};  ///< last (eventual) / first (safety) violation
  std::string witness;             ///< human-readable violating witness
  std::int64_t violations{0};      ///< number of violating observations

  [[nodiscard]] std::string to_string() const;
};

/// Final classification of an eventual property on a finished run: it must
/// be holding and have stabilized at least `margin` before `end`. Safety
/// properties just must not be violated.
[[nodiscard]] bool satisfied(const Verdict& v, TimeUs end, DurUs margin);

/// The verdicts in \p all that are required and not satisfied.
[[nodiscard]] std::vector<Verdict> failing(const std::vector<Verdict>& all,
                                           TimeUs end, DurUs margin);

const char* to_string(VerdictState s);

/// Routes verdict-state transitions into a recorder's system ring (host -1)
/// as kVerdict events: a = new VerdictState ordinal, label = interned
/// property name. A property's first verdict is pushed only when it is not
/// kHolding. Shared by SimMonitor and ThreadedFdMonitor; not thread-safe.
class VerdictTransitions {
 public:
  void record(obs::Recorder& rec, TimeUs now,
              const std::vector<Verdict>& verdicts);

 private:
  std::map<std::string, VerdictState> last_;
};

}  // namespace ecfd::check
