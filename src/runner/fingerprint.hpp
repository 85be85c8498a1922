#pragma once

#include <cstdint>
#include <string>

#include "consensus/harness.hpp"
#include "obs/metrics.hpp"

/// \file fingerprint.hpp
/// Order-sensitive digests of simulation runs.
///
/// A fingerprint folds everything observable about a run — counters,
/// decision times, events fired — into one 64-bit FNV-1a hash. Two
/// runs of the same scenario and seed must produce the same fingerprint on
/// any thread, any build, and across refactors of the simulation kernel;
/// the determinism suite (tests/test_determinism.cpp) and the parallel
/// experiment driver (tools/bench_runner.cpp) both assert exactly that.

namespace ecfd::runner {

/// Incremental FNV-1a (64-bit) hasher.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

/// Digest of every counter, key and value, in sorted-key order.
std::uint64_t fingerprint_counters(const obs::MetricsRegistry& counters);

/// Digest of a consensus harness result (outcomes, rounds, times, message
/// totals, counters, events fired).
std::uint64_t fingerprint_result(const consensus::HarnessResult& r);

}  // namespace ecfd::runner
