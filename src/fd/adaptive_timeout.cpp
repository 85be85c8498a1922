#include "fd/adaptive_timeout.hpp"

#include <algorithm>
#include <cassert>

namespace ecfd::fd {

namespace {

int err_bucket_of(std::int64_t v) {
  if (v <= 0) return 0;
  int b = 1;
  while (v > 1 && b < ArrivalPredictor::kErrBuckets - 1) {
    v >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

ArrivalPredictor::ArrivalPredictor(Config cfg)
    : cfg_(cfg),
      intervals_(static_cast<std::size_t>(std::max(cfg.window, 1)), 0),
      alpha_(cfg.alpha),
      err_buckets_(kErrBuckets, 0) {
  assert(cfg.window >= 1);
}

void ArrivalPredictor::observe(TimeUs arrival) {
  ++stats_.arrivals;
  if (count_ >= 1) {
    if (warmed_up()) {
      const std::int64_t err = std::abs(arrival - predicted_next());
      ++stats_.predictions;
      stats_.abs_err_sum += err;
      stats_.abs_err_max = std::max(stats_.abs_err_max, err);
      ++err_buckets_[static_cast<std::size_t>(err_bucket_of(err))];
    }
    // A skew-stepped clock can observe time running backwards; clamp the
    // sample so the window mean stays a duration.
    const DurUs iv = std::max<DurUs>(arrival - last_arrival_, 0);
    intervals_[static_cast<std::size_t>(next_)] = iv;
    next_ = (next_ + 1) % static_cast<int>(intervals_.size());
  }
  last_arrival_ = arrival;
  ++count_;
}

void ArrivalPredictor::note_mistake() {
  ++stats_.mistakes;
  if (!cfg_.widen_on_mistake) return;
  alpha_ = std::min(alpha_ + cfg_.alpha_increment, cfg_.max_alpha);
}

void ArrivalPredictor::restart() {
  count_ = 0;
  next_ = 0;
}

DurUs ArrivalPredictor::mean_interval() const {
  const auto have = static_cast<std::size_t>(std::clamp<std::int64_t>(
      count_ - 1, 0, static_cast<std::int64_t>(intervals_.size())));
  if (have == 0) return 0;
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < have; ++i) sum += intervals_[i];
  return sum / static_cast<std::int64_t>(have);
}

TimeUs ArrivalPredictor::predicted_next() const {
  if (!warmed_up()) return kTimeNever;
  return last_arrival_ + mean_interval();
}

TimeUs ArrivalPredictor::deadline(TimeUs ref) const {
  if (!warmed_up()) return ref + cfg_.fallback_timeout + alpha_ - cfg_.alpha;
  return predicted_next() + alpha_;
}

}  // namespace ecfd::fd
