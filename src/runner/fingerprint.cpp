#include "runner/fingerprint.hpp"

namespace ecfd::runner {

std::uint64_t fingerprint_counters(const obs::MetricsRegistry& counters) {
  Fnv1a h;
  counters.for_each_counter([&h](const std::string& key, std::int64_t value) {
    h.str(key);
    h.i64(value);
  });
  return h.value();
}

std::uint64_t fingerprint_result(const consensus::HarnessResult& r) {
  Fnv1a h;
  for (const auto& o : r.outcomes) {
    h.u64(o.decided ? 1 : 0);
    h.i64(o.value);
    h.i64(o.round);
    h.i64(o.at);
    h.i64(o.last_round);
  }
  h.u64(r.every_correct_decided ? 1 : 0);
  h.u64(r.uniform_agreement ? 1 : 0);
  h.u64(r.validity ? 1 : 0);
  h.i64(r.max_decision_round);
  h.i64(r.min_decision_round);
  h.i64(r.last_decision_at);
  h.i64(r.consensus_msgs);
  h.i64(r.rb_msgs);
  h.i64(r.fd_msgs);
  h.i64(r.max_round_entered);
  h.u64(r.events_fired);
  h.i64(r.sim_end);
  h.u64(fingerprint_counters(*r.metrics));
  return h.value();
}

}  // namespace ecfd::runner
