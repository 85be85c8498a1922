// The counter registry as the simulator and the UDP node use it: plain
// counters, the sum of a protocol family's ".sent" counters, and the
// per-label message accounting both runtimes share.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/message.hpp"
#include "obs/metrics.hpp"

namespace ecfd {
namespace {

std::vector<std::string> names(const obs::MetricsRegistry& m) {
  std::vector<std::string> out;
  m.for_each_counter(
      [&out](const std::string& name, std::int64_t) { out.push_back(name); });
  return out;
}

TEST(Counters, AddAndGet) {
  obs::MetricsRegistry c;
  c.add("x");
  c.add("x", 4);
  EXPECT_EQ(c.get("x"), 5);
  EXPECT_EQ(c.get("missing"), 0);
}

TEST(Counters, SumSent) {
  obs::MetricsRegistry c;
  c.add("msg.a.sent", 3);
  c.add("msg.a.dropped", 1);
  c.add("msg.b.sent", 7);
  c.add("other.sent", 100);
  EXPECT_EQ(sum_sent(c, "msg."), 10);
  EXPECT_EQ(sum_sent(c, "msg.a."), 3);
  EXPECT_EQ(sum_sent(c, "zzz"), 0);
}

TEST(Counters, ReadsCreateNoKeyAndVisitInNameOrder) {
  // The run digests hash every (name, value) in name order, so a read must
  // not materialize a zero-valued key.
  obs::MetricsRegistry c;
  c.add("b");
  c.add("a", 2);
  EXPECT_EQ(c.get("missing"), 0);
  EXPECT_EQ(names(c), (std::vector<std::string>{"a", "b"}));
}

TEST(Counters, MessageCountersCountEverySendAndTheLostSubset) {
  obs::MetricsRegistry c;
  MessageCounters counters(c);
  const Message ping = Message::make_empty(900, 1, "t.ping");
  counters.sent(ping);
  counters.sent(ping);
  EXPECT_EQ(c.get("msg.t.ping.sent"), 2);
  EXPECT_EQ(names(c), std::vector<std::string>{"msg.t.ping.sent"})
      << "no .dropped key before the first drop";
  counters.sent(ping);
  counters.dropped(ping);
  EXPECT_EQ(c.get("msg.t.ping.sent"), 3);
  EXPECT_EQ(c.get("msg.t.ping.dropped"), 1);

  Message unlabeled = Message::make_empty(900, 7, "");
  counters.sent(unlabeled);
  counters.dropped(unlabeled);
  EXPECT_EQ(c.get("msg.proto900.type7.sent"), 1);
  EXPECT_EQ(c.get("msg.proto900.type7.dropped"), 1);
}

}  // namespace
}  // namespace ecfd
