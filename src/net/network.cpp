#include "net/network.hpp"

#include <cassert>
#include <string>

namespace ecfd {

Network::Network(sim::Scheduler& sched, int n, Rng rng,
                 sim::Counters& counters)
    : sched_(sched),
      n_(n),
      rng_(rng),
      counters_(counters),
      links_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)),
      blocked_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0) {
  assert(n > 0);
  // Default: reliable links with modest jitter.
  set_links([](ProcessId, ProcessId) {
    return std::make_unique<ReliableLink>(usec(200), msec(2));
  });
}

void Network::set_links(const LinkFactory& factory) {
  for (ProcessId s = 0; s < n_; ++s) {
    for (ProcessId d = 0; d < n_; ++d) {
      if (s != d) links_[idx(s, d)] = factory(s, d);
    }
  }
}

void Network::set_link(ProcessId src, ProcessId dst,
                       std::unique_ptr<LinkModel> link) {
  assert(src != dst);
  links_[idx(src, dst)] = std::move(link);
}

void Network::set_blocked(ProcessId src, ProcessId dst, bool blocked) {
  blocked_[idx(src, dst)] = blocked ? 1 : 0;
}

void Network::partition(const ProcessSet& group_a) {
  for (ProcessId s = 0; s < n_; ++s) {
    for (ProcessId d = 0; d < n_; ++d) {
      if (s == d) continue;
      if (group_a.contains(s) != group_a.contains(d)) {
        blocked_[idx(s, d)] = 1;
      }
    }
  }
}

void Network::heal() {
  for (auto& b : blocked_) b = 0;
}

Network::LabelCells& Network::cells_for(const Message& m) {
  // Keyed by label pointer identity; see the declaration for why the empty
  // label is excluded (handled by the caller).
  auto [it, inserted] = label_cells_.try_emplace(m.label);
  if (inserted) {
    // The ".dropped" cell stays null until the first drop: creating the
    // counter eagerly would materialize zero-valued keys that the seed
    // behavior (and the determinism fingerprints) never had.
    it->second.sent = counters_.slot(message_counter_key(m) + ".sent");
  }
  return it->second;
}

void Network::send(const Message& m) {
  assert(m.src >= 0 && m.src < n_ && m.dst >= 0 && m.dst < n_);
  assert(sink_ && "Network sink not installed");
  ++sent_total_;
  const bool interned = m.label != nullptr && m.label[0] != '\0';
  LabelCells* cells = interned ? &cells_for(m) : nullptr;
  if (interned) {
    ++*cells->sent;
  } else {
    counters_.add(message_counter_key(m) + ".sent");
  }

  std::optional<DurUs> delay;
  if (m.src == m.dst) {
    delay = self_delay_;
  } else if (blocked_[idx(m.src, m.dst)]) {
    delay = std::nullopt;
  } else {
    LinkModel* link = links_[idx(m.src, m.dst)].get();
    assert(link && "missing link model");
    delay = link->sample_delay(sched_.now(), rng_);
  }

  // Chaos overlay: only consulted while active (so rng_ draw sequences —
  // and with them the determinism fingerprints — are untouched otherwise).
  // Self-addressed messages are exempt: they model local computation, not
  // the network.
  bool duplicate = false;
  if (chaos_.active() && m.src != m.dst && delay.has_value()) {
    if (chaos_.loss_ppm != 0 && rng_.below(1'000'000) < chaos_.loss_ppm) {
      delay = std::nullopt;
    } else {
      if (chaos_.extra_delay_max > 0) {
        *delay += static_cast<DurUs>(
            rng_.below(static_cast<std::uint64_t>(chaos_.extra_delay_max) + 1));
      }
      duplicate = chaos_.duplicate_ppm != 0 &&
                  rng_.below(1'000'000) < chaos_.duplicate_ppm;
    }
  }

  if (!delay.has_value()) {
    ++dropped_total_;
#if !defined(ECFD_OBS_DISABLED)
    if (recorder_ != nullptr) {
      recorder_->ring(m.src).push(sched_.now(), obs::EventType::kDrop, m.dst,
                                  m.protocol);
    }
#endif
    if (interned) {
      if (cells->dropped == nullptr) {
        cells->dropped = counters_.slot(message_counter_key(m) + ".dropped");
      }
      ++*cells->dropped;
    } else {
      counters_.add(message_counter_key(m) + ".dropped");
    }
    return;
  }

  // Copy the message into the closure; the payload is shared (one pooled
  // body per Message::make, bumped refcount per destination) and the whole
  // capture fits the queue's inline action — no allocation on this path.
  sched_.schedule_after(*delay, [this, copy = m]() {
    ++delivered_total_;
    sink_(copy);
  });
  if (duplicate) {
    // The duplicate trails the original by a fresh jitter in the same band.
    DurUs extra = self_delay_;
    if (chaos_.extra_delay_max > 0) {
      extra += static_cast<DurUs>(
          rng_.below(static_cast<std::uint64_t>(chaos_.extra_delay_max) + 1));
    }
    sched_.schedule_after(*delay + extra, [this, copy = m]() {
      ++delivered_total_;
      sink_(copy);
    });
  }
}

}  // namespace ecfd
