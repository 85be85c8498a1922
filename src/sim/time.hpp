#pragma once

#include <cstdint>

/// \file time.hpp
/// Virtual-time representation used throughout the library.
///
/// The simulator measures time in integral microseconds. Protocols are
/// written against these aliases so the same code runs on the discrete-event
/// scheduler and on the wall-clock UDP node.

namespace ecfd {

/// Absolute virtual time in microseconds since the start of the run.
using TimeUs = std::int64_t;

/// A duration in microseconds.
using DurUs = std::int64_t;

/// Sentinel for "no time" / "never".
inline constexpr TimeUs kTimeNever = INT64_MAX;

/// Convenience literals-like constructors.
constexpr DurUs usec(std::int64_t v) { return v; }
constexpr DurUs msec(std::int64_t v) { return v * 1000; }
constexpr DurUs sec(std::int64_t v) { return v * 1'000'000; }

}  // namespace ecfd
