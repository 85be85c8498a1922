#include "net/message.hpp"

#include <string>

#include "obs/metrics.hpp"

namespace ecfd {

namespace {

bool labeled(const Message& m) {
  return m.label != nullptr && m.label[0] != '\0';
}

}  // namespace

std::string message_counter_key(const Message& m) {
  if (labeled(m)) return std::string("msg.") + m.label;
  return "msg.proto" + std::to_string(m.protocol) + ".type" +
         std::to_string(m.type);
}

std::atomic<std::int64_t>& MessageCounters::cell(const Message& m, bool lost) {
  Key key{m.label, 0};
  if (!labeled(m)) {
    // Unlabeled messages share the empty label; (protocol, type) tells
    // them apart, as their counter name does.
    key.label = nullptr;
    key.protocol_type =
        std::uint64_t{static_cast<std::uint32_t>(m.protocol)} << 32 |
        static_cast<std::uint32_t>(m.type);
  }
  Cells& cells = cells_[key];
  std::atomic<std::int64_t>*& c = lost ? cells.dropped : cells.sent;
  if (c == nullptr) {
    c = metrics_.counter(message_counter_key(m) +
                         (lost ? ".dropped" : ".sent"));
  }
  return *c;
}

std::int64_t sum_sent(const obs::MetricsRegistry& metrics,
                      const std::string& prefix) {
  std::int64_t total = 0;
  metrics.for_each_counter([&](const std::string& name, std::int64_t value) {
    if (name.rfind(prefix, 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".sent") == 0) {
      total += value;
    }
  });
  return total;
}

}  // namespace ecfd
