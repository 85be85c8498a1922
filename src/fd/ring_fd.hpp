#pragma once

#include <cstdint>
#include <vector>

#include "fd/oracle.hpp"
#include "net/env.hpp"
#include "net/protocol_ids.hpp"

/// \file ring_fd.hpp
/// Ring-based failure detection in partial synchrony, after Larrea,
/// Arévalo, Fernández (DISC'99, [15]).
///
/// Processes are arranged on a logical ring p0 -> p1 -> ... -> p{n-1} -> p0.
/// Each process polls only its current *target* — the first process after it
/// (in ring order) that it does not suspect — with a QUERY, and the target
/// answers with a REPLY. On a timeout the target is suspected and the next
/// candidate becomes the target, so the periodic cost is 2n messages
/// system-wide (one QUERY + one REPLY per process), versus n² for the
/// all-to-all heartbeat ◇P.
///
/// Suspicion information and per-process freshness counters piggyback on
/// QUERY/REPLY and travel hop-by-hop around the ring, which is why this
/// detector has the O(n)-hop crash-detection-propagation latency that
/// Section 4 of the paper contrasts with its ◇C→◇P transformation.
///
/// Mechanics of the circulated state:
///  * every process increments a local sequence number each poll period and
///    gossips the pointwise-max vector of all sequence numbers it knows;
///  * a remote suspicion of r is adopted only when the sender's knowledge
///    of r is at least as fresh as ours, and any fresher sequence number
///    for r retracts the suspicion (and widens the timeout for a local
///    mistake). Crashed processes stop advancing, so their suspicion
///    spreads and sticks; correct processes keep advancing, so false
///    suspicions are eventually washed out — yielding strong completeness
///    and (post-GST) eventual strong accuracy.
///
/// The detector also exposes the ring leader — the first non-suspected
/// process in ring order starting from p0 — which Section 3 uses to build a
/// ◇C detector from this algorithm at no extra message cost.

namespace ecfd::fd {

class RingFd final : public Protocol, public SuspectOracle, public LeaderOracle {
 public:
  struct Config {
    DurUs period{msec(10)};            ///< poll period
    DurUs initial_timeout{msec(30)};   ///< initial per-target timeout
    DurUs timeout_increment{msec(10)}; ///< widened on each false suspicion
    int recovery_every{4};  ///< every k-th poll also re-polls one suspect
  };

  explicit RingFd(Env& env);
  RingFd(Env& env, Config cfg);

  void start() override;
  void on_message(const Message& m) override;

  [[nodiscard]] ProcessSet suspected() const override { return suspected_; }

  /// First non-suspected process in ring order from p0 (§3's leader rule).
  [[nodiscard]] ProcessId trusted() const override;

  /// Current poll target (exposed for tests).
  [[nodiscard]] ProcessId target() const;

  /// The circulated QUERY/REPLY body: one sequence number per process and
  /// the suspected set.
  struct Body {
    static constexpr PayloadKind kKind = PayloadKind::kRingBody;
    std::vector<std::uint64_t> seq;
    ProcessSet susp;

    template <class V>
    void fields(V& v) {
      v(seq, kPerProcess);
      v(susp, kPerProcess);
    }
  };

 private:
  void poll();
  void merge(const Body& body);
  [[nodiscard]] Body make_body() const;
  void send_query(ProcessId to);

  Config cfg_;
  ProcessSet suspected_;
  std::uint64_t seq_{1};
  std::vector<std::uint64_t> known_seq_;
  std::vector<DurUs> timeout_;
  std::vector<TimeUs> last_heard_;
  int polls_{0};
  int recovery_cursor_{0};
};

}  // namespace ecfd::fd
