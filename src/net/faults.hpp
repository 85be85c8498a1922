#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.hpp"

/// \file faults.hpp
/// The arithmetic of the gray-failure and clock-skew fault model, on plain
/// values, for the simulated host (net/process_host.hpp) — the one runtime
/// that injects these faults (check/fuzz.cpp's gray and skew profiles,
/// bench E12).

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
  /// late). A positive delay stays positive: once the clamp holds the
  /// error still, the local clock runs at true rate, so a timer re-armed
  /// for a local deadline would otherwise fire at the same instant forever.
  [[nodiscard]] DurUs timer_delay(DurUs delay) const {
    const DurUs local = delay;
    if (gray_factor_milli != 1000) {
      delay = delay * static_cast<DurUs>(gray_factor_milli) / 1000;
    }
    if (skew_drift_ppm != 0) {
      delay = delay * 1'000'000 / (1'000'000 + skew_drift_ppm);
    }
    return local > 0 ? std::max<DurUs>(delay, 1) : delay;
  }
};

}  // namespace ecfd
