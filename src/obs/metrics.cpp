#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace ecfd::obs {

MetricsRegistry::Cell* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &counters_[name];
}

MetricsRegistry::Cell* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &gauges_[name];
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::int64_t MetricsRegistry::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0
                               : it->second.load(std::memory_order_relaxed);
}

std::int64_t MetricsRegistry::gauge_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0
                             : it->second.load(std::memory_order_relaxed);
}

void MetricsRegistry::write_json(std::ostream& os,
                                 const std::string& source) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string j;
  j += "{\n  \"schema\": \"ecfd.metrics.v1\",\n";
  j += "  \"source\": \"";
  json::escape_into(&j, source);
  j += "\",\n";

  j += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, cell] : counters_) {
    j += first ? "\n" : ",\n";
    first = false;
    j += "    \"";
    json::escape_into(&j, name);
    j += "\": " + std::to_string(cell.load(std::memory_order_relaxed));
  }
  j += counters_.empty() ? "},\n" : "\n  },\n";

  j += "  \"gauges\": {";
  first = true;
  for (const auto& [name, cell] : gauges_) {
    j += first ? "\n" : ",\n";
    first = false;
    j += "    \"";
    json::escape_into(&j, name);
    j += "\": " + std::to_string(cell.load(std::memory_order_relaxed));
  }
  j += gauges_.empty() ? "},\n" : "\n  },\n";

  j += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    j += first ? "\n" : ",\n";
    first = false;
    j += "    \"";
    json::escape_into(&j, name);
    j += "\": {\"count\": " + std::to_string(h->count()) +
         ", \"sum\": " + std::to_string(h->sum()) + ", \"buckets\": [";
    // Trailing all-zero buckets are elided; bucket i lower bound is
    // Histogram::bucket_lower(i), so the shape is reconstructible.
    int last = Histogram::kBuckets - 1;
    while (last > 0 && h->bucket_count(last) == 0) --last;
    for (int i = 0; i <= last; ++i) {
      if (i != 0) j += ", ";
      j += std::to_string(h->bucket_count(i));
    }
    j += "]}";
  }
  j += histograms_.empty() ? "}\n" : "\n  }\n";
  j += "}\n";
  os << j;
}

void MetricsRegistry::write_text(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "# ecfd.metrics.v1 text exposition\n";
  for (const auto& [name, cell] : counters_) {
    os << "counter " << name << " "
       << cell.load(std::memory_order_relaxed) << "\n";
  }
  for (const auto& [name, cell] : gauges_) {
    os << "gauge " << name << " " << cell.load(std::memory_order_relaxed)
       << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << "histogram " << name << " count=" << h->count()
       << " sum=" << h->sum();
    int last = Histogram::kBuckets - 1;
    while (last > 0 && h->bucket_count(last) == 0) --last;
    for (int i = 0; i <= last; ++i) {
      if (h->bucket_count(i) == 0) continue;
      os << " ge" << Histogram::bucket_lower(i) << "=" << h->bucket_count(i);
    }
    os << "\n";
  }
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Our dotted names
/// map dots (and any other forbidden byte) to '_'.
std::string prometheus_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    c == '_' || c == ':' || (i > 0 && c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, cell] : counters_) {
    const std::string p = prometheus_name(name) + "_total";
    os << "# TYPE " << p << " counter\n"
       << p << " " << cell.load(std::memory_order_relaxed) << "\n";
  }
  for (const auto& [name, cell] : gauges_) {
    const std::string p = prometheus_name(name);
    os << "# TYPE " << p << " gauge\n"
       << p << " " << cell.load(std::memory_order_relaxed) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string p = prometheus_name(name);
    os << "# TYPE " << p << " histogram\n";
    int last = Histogram::kBuckets - 1;
    while (last > 0 && h->bucket_count(last) == 0) --last;
    std::int64_t cum = 0;
    for (int i = 0; i <= last; ++i) {
      cum += h->bucket_count(i);
      // Bucket i holds integers in [bucket_lower(i), bucket_lower(i+1)),
      // so its inclusive `le` bound is bucket_lower(i+1) - 1.
      os << p << "_bucket{le=\"" << Histogram::bucket_lower(i + 1) - 1
         << "\"} " << cum << "\n";
    }
    os << p << "_bucket{le=\"+Inf\"} " << h->count() << "\n"
       << p << "_sum " << h->sum() << "\n"
       << p << "_count " << h->count() << "\n";
  }
}

std::vector<MetricsRegistry::CellRef> MetricsRegistry::cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CellRef> out;
  out.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, cell] : counters_) {
    out.push_back(CellRef{name, &cell, false});
  }
  for (const auto& [name, cell] : gauges_) {
    out.push_back(CellRef{name, &cell, true});
  }
  return out;
}

}  // namespace ecfd::obs
