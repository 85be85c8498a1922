#include "fd/hier_c.hpp"

#include <algorithm>
#include <cmath>

namespace ecfd::fd {

namespace {

int default_cell_size(int n) {
  const int c = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  return std::max(1, c);
}

}  // namespace

HierC::HierC(Env& env) : HierC(env, Config{}) {}

HierC::HierC(Env& env, Config cfg)
    : Protocol(env, protocol_ids::kHierC),
      cfg_(cfg),
      cell_size_(std::clamp(cfg.cell_size > 0 ? cfg.cell_size
                                              : default_cell_size(env.n()),
                            1, env.n())),
      n_cells_((env.n() + cell_size_ - 1) / cell_size_),
      own_cell_(env.self() / cell_size_),
      cell_cand_susp_(env.n()),
      last_beat_(static_cast<std::size_t>(cell_members(env.self() / cell_size_)), 0),
      beat_timeout_(last_beat_.size(), cfg.initial_timeout),
      last_alive_(last_beat_.size(), 0),
      alive_timeout_(last_beat_.size(), cfg.initial_timeout),
      cell_report_(env.n()),
      cell_susp_(n_cells_),
      last_cell_heard_(static_cast<std::size_t>(n_cells_), 0),
      cell_timeout_(static_cast<std::size_t>(n_cells_), cfg.initial_timeout),
      believed_leader_(static_cast<std::size_t>(n_cells_), kNoProcess),
      top_digest_(env.n()),
      adopted_(env.n()) {
  for (int d = 0; d < n_cells_; ++d) {
    believed_leader_[static_cast<std::size_t>(d)] = cell_first(d);
  }
}

void HierC::start() {
  env_.set_timer(env_.rng().range(0, cfg_.period), [this]() { tick(); });
}

ProcessId HierC::cell_end(int d) const {
  return std::min((d + 1) * cell_size_, env_.n());
}

ProcessId HierC::cell_candidate() const {
  for (ProcessId q = cell_first(own_cell_); q < cell_end(own_cell_); ++q) {
    if (!cell_cand_susp_.contains(q)) return q;
  }
  return env_.self();
}

int HierC::top_candidate_cell() const {
  const int d = cell_susp_.first_excluded();
  return d == kNoProcess ? own_cell_ : d;
}

ProcessId HierC::cell_contact(int d) const {
  if (!cell_susp_.contains(d)) {
    return believed_leader_[static_cast<std::size_t>(d)];
  }
  // Suspected cell: the believed leader may be long dead — rotate through
  // the membership so a live acting leader is eventually contacted.
  const int sz = cell_members(d);
  return cell_first(d) + static_cast<ProcessId>(rotate_ %
                             static_cast<std::uint64_t>(sz));
}

void HierC::note_top_contact(ProcessId src) {
  const int d = cell_of(src);
  const auto i = static_cast<std::size_t>(d);
  last_cell_heard_[i] = env_.now();
  believed_leader_[i] = src;
  if (cell_susp_.contains(d)) {
    cell_susp_.remove(d);
    cell_timeout_[i] += cfg_.timeout_increment;
    env_.trace("hier.cell_rollback", "c" + std::to_string(d));
  }
}

void HierC::tick() {
  const TimeUs now = env_.now();
  ++rotate_;

  const ProcessId cand = cell_candidate();
  const bool leader_now = cand == env_.self();
  if (leader_now && !acting_cell_leader_) {
    // Fresh cell leadership: grace on the alive inflow (nobody has been
    // reporting to us) and on the top level (our inter-cell bookkeeping is
    // stale from our time as a plain member) — same rationale as
    // EfficientP's fresh-leader grace.
    for (auto& t : last_alive_) t = now;
    for (auto& t : last_cell_heard_) t = now;
    cell_report_.clear();
  }
  acting_cell_leader_ = leader_now;

  if (acting_cell_leader_) {
    // Build the own-cell report from the alive inflow.
    for (ProcessId q = cell_first(own_cell_); q < cell_end(own_cell_); ++q) {
      if (q == env_.self()) continue;
      const std::size_t i = off(q);
      if (!cell_report_.contains(q) && now - last_alive_[i] > alive_timeout_[i]) {
        cell_report_.add(q);
        env_.record(EventType::kSuspect, q);
      }
    }

    // --- top level among acting cell leaders -------------------------
    const bool top_now = top_candidate_cell() == own_cell_;
    if (top_now && !acting_top_leader_) {
      for (auto& t : last_cell_heard_) t = now;
      reports_.clear();
    }
    acting_top_leader_ = top_now;

    if (acting_top_leader_) {
      // Time out cells whose reports stopped (whole-cell crashes).
      for (int d = 0; d < n_cells_; ++d) {
        if (d == own_cell_ || cell_susp_.contains(d)) continue;
        const auto i = static_cast<std::size_t>(d);
        if (now - last_cell_heard_[i] > cell_timeout_[i]) {
          cell_susp_.add(d);
          reports_.erase(d);
          env_.trace("hier.cell_suspect", "c" + std::to_string(d));
        }
      }
      // Compose the global digest: own report plus, per remote cell, its
      // last report — or its whole membership while the cell is silent.
      ProcessSet digest = cell_report_;
      for (int d = 0; d < n_cells_; ++d) {
        if (d == own_cell_) continue;
        if (cell_susp_.contains(d)) {
          for (ProcessId q = cell_first(d); q < cell_end(d); ++q) digest.add(q);
        } else if (const auto it = reports_.find(d); it != reports_.end()) {
          digest |= it->second;
        }
      }
      top_digest_ = digest;
      if (digest_leader_ != env_.self()) {
        digest_leader_ = env_.self();
        env_.record(EventType::kLeaderChange, digest_leader_);
      }
      const Message beat = Message::make(
          protocol_id(), kTopBeat, "hier.top_beat",
          HierDigest{digest, env_.self()});
      for (int d = 0; d < n_cells_; ++d) {
        if (d != own_cell_) env_.send(cell_contact(d), beat);
      }
    } else {
      // Monitor the top-candidate cell's beats; on timeout move on.
      const int c = top_candidate_cell();
      if (c != own_cell_) {
        const auto i = static_cast<std::size_t>(c);
        if (now - last_cell_heard_[i] > cell_timeout_[i]) {
          cell_susp_.add(c);
          env_.trace("hier.cell_suspect", "c" + std::to_string(c));
        }
      }
      // Report the own-cell view to the (possibly new) top candidate.
      const int target_cell = top_candidate_cell();
      if (target_cell != own_cell_) {
        env_.send(cell_contact(target_cell),
                  Message::make(protocol_id(), kTopReport, "hier.top_report",
                                cell_report_));
      }
    }

    // --- gossip the composed digest down into the cell ----------------
    ProcessSet down = top_digest_;
    for (ProcessId q = cell_first(own_cell_); q < cell_end(own_cell_); ++q) {
      down.remove(q);
    }
    down |= cell_report_;
    adopted_ = down;
    const Message beat = Message::make(
        protocol_id(), kCellBeat, "hier.cell_beat",
        HierDigest{cfg_.mutate_stuck_propagation ? ProcessSet(env_.n()) : down,
                   digest_leader_});
    for (ProcessId q = cell_first(own_cell_); q < cell_end(own_cell_); ++q) {
      if (q != env_.self()) env_.send(q, beat);
    }
  } else {
    acting_top_leader_ = false;
    // Plain member: monitor the cell candidate's beats.
    const std::size_t i = off(cand);
    if (now - last_beat_[i] > beat_timeout_[i]) {
      cell_cand_susp_.add(cand);
      env_.record(EventType::kSuspect, cand);
    }
    const ProcessId target = cell_candidate();
    if (target != env_.self()) {
      env_.send(target,
                Message::make_empty(protocol_id(), kCellAlive, "hier.alive"));
    }
  }
  env_.set_timer(cfg_.period, [this]() { tick(); });
}

void HierC::on_message(const Message& m) {
  switch (m.type) {
    case kCellBeat: {
      if (cell_of(m.src) != own_cell_) break;
      const std::size_t i = off(m.src);
      last_beat_[i] = env_.now();
      if (cell_cand_susp_.contains(m.src)) {
        // A lower-ranked cell candidate is back: roll back, widen.
        cell_cand_susp_.remove(m.src);
        beat_timeout_[i] += cfg_.timeout_increment;
        env_.record(EventType::kUnsuspect, m.src);
      }
      if (m.src == cell_candidate()) {
        const auto& d = m.as<HierDigest>();
        adopted_ = d.susp;
        adopted_.remove(env_.self());
        if (digest_leader_ != d.leader) {
          digest_leader_ = d.leader;
          env_.record(EventType::kLeaderChange, digest_leader_);
        }
      }
      break;
    }
    case kCellAlive: {
      if (cell_of(m.src) != own_cell_) break;
      const std::size_t i = off(m.src);
      last_alive_[i] = env_.now();
      if (cell_report_.contains(m.src)) {
        cell_report_.remove(m.src);
        alive_timeout_[i] += cfg_.timeout_increment;
        env_.record(EventType::kUnsuspect, m.src);
      }
      break;
    }
    case kTopBeat: {
      note_top_contact(m.src);
      const int d = cell_of(m.src);
      if (acting_cell_leader_ && d != own_cell_ && d == top_candidate_cell()) {
        const auto& body = m.as<HierDigest>();
        top_digest_ = body.susp;
        if (digest_leader_ != body.leader) {
          digest_leader_ = body.leader;
          env_.record(EventType::kLeaderChange, digest_leader_);
        }
      }
      break;
    }
    case kTopReport: {
      note_top_contact(m.src);
      const int d = cell_of(m.src);
      if (acting_top_leader_ && d != own_cell_) {
        // Keep the report inside the sender's cell: a buggy or byzantine
        // report must not let cell d slander processes it does not own.
        ProcessSet r = m.as<ProcessSet>();
        for (ProcessId q : r.members()) {
          if (cell_of(q) != d) r.remove(q);
        }
        if (r.empty()) {
          reports_.erase(d);
        } else {
          reports_[d] = std::move(r);
        }
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace ecfd::fd
