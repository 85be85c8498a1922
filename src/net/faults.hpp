#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.hpp"

/// \file faults.hpp
/// The arithmetic of the gray-failure and clock-skew fault model, on plain
/// values. The simulated host (net/process_host.hpp) and the threaded host
/// (runtime/thread_env.hpp) keep the state their own way — plain fields on
/// one, atomics on the other — and both run it through FaultSpec, so one
/// scenario means the same thing on either runtime.

namespace ecfd {

struct FaultSpec {
  /// Gray failure: timer delays stretch by gray_factor_milli/1000 (1000 =
  /// healthy) and every send is held back gray_send_extra before it enters
  /// the network.
  std::uint32_t gray_factor_milli{1000};
  DurUs gray_send_extra{0};

  /// Clock skew: the local clock reads true time + skew_offset + drift
  /// accumulated at skew_drift_ppm since skew_since (true time), the error
  /// clamped to ±skew_bound (0 = unclamped; only mutation tests use that).
  std::int64_t skew_offset{0};
  std::int32_t skew_drift_ppm{0};
  DurUs skew_bound{0};
  TimeUs skew_since{0};

  [[nodiscard]] bool gray() const {
    return gray_factor_milli != 1000 || gray_send_extra != 0;
  }
  [[nodiscard]] bool skewed() const {
    return skew_offset != 0 || skew_drift_ppm != 0;
  }

  /// Signed local-minus-true clock error at true time \p now.
  [[nodiscard]] std::int64_t clock_error(TimeUs now) const {
    if (!skewed()) return 0;
    std::int64_t err =
        skew_offset + skew_drift_ppm * (now - skew_since) / 1'000'000;
    if (skew_bound > 0) err = std::clamp(err, -skew_bound, skew_bound);
    return err;
  }

  /// True-time delay of a timer armed for \p delay of local time: stretched
  /// by the gray factor first (a gray host runs its deferred work late),
  /// then converted for drift (a fast local clock fires early, a slow one
  /// late).
  [[nodiscard]] DurUs timer_delay(DurUs delay) const {
    if (gray_factor_milli != 1000) {
      delay = delay * static_cast<DurUs>(gray_factor_milli) / 1000;
    }
    if (skew_drift_ppm != 0) {
      delay = delay * 1'000'000 / (1'000'000 + skew_drift_ppm);
    }
    return delay;
  }
};

}  // namespace ecfd
