#pragma once

#include <unordered_map>
#include <vector>

#include "core/ecfd_oracle.hpp"
#include "net/env.hpp"
#include "net/protocol_ids.hpp"

/// \file hier_c.hpp
/// Two-level hierarchical ◇C: the paper's flat constructions scale the
/// per-period message count as O(n²) (heartbeat ◇P) or, at best, 2(n−1)
/// (EfficientP — still all-to-one). This module composes two instances of
/// the same candidate-order Omega + alive-report machinery into a
/// hierarchy, in the spirit of the system-level-diagnosis line (Duarte et
/// al.) where a testing hierarchy makes detection cost per node sublinear:
///
///   * the universe is partitioned into contiguous *cells* of ~√n
///     processes; inside each cell the EfficientP discipline elects a cell
///     leader and builds a cell-local suspected report (O(cell) messages);
///   * the acting cell leaders run the same discipline among themselves,
///     one "process" per cell, with the *first non-suspected cell* rule
///     electing the global (top) leader (O(n/cell) messages);
///   * the top leader composes the per-cell reports into one global
///     digest — suspected set plus its own id as the trusted process —
///     and gossips it down: one beat per cell contact, re-broadcast by
///     each cell leader to its members.
///
/// Steady state per period: every process sends one intra-cell message and
/// every cell leader two more — ~2n messages total, O(n) instead of O(n²),
/// with per-peer timer state O(√n) per host (own cell plus one slot per
/// cell). All timeouts widen on retraction exactly like EfficientP's, so
/// after GST the composed digest satisfies strong completeness, eventual
/// strong accuracy, Omega permanence for the top leader, and the ◇C
/// coupling clause (a digest composed by leader L never contains L).
///
/// Liveness repair: believed per-cell contacts can go stale when leaders
/// crash on both sides of the hierarchy simultaneously. Whenever a cell is
/// suspected at the top level, messages towards it rotate through the
/// cell's members instead of the stale believed leader, so any two live
/// acting leaders eventually exchange a message and the suspicion rolls
/// back. Without rotation, two surviving leaders pointing at each other's
/// crashed predecessors would deadlock.

namespace ecfd::fd {

/// Body of the digest-carrying beats (top → cell leaders → members).
struct HierDigest {
  static constexpr PayloadKind kKind = PayloadKind::kHierDigest;
  ProcessSet susp;
  ProcessId leader{kNoProcess};

  template <class V>
  void fields(V& v) {
    v(susp, kPerProcess);
    v(leader, kPerProcess);
  }
};

class HierC final : public Protocol, public core::EcfdOracle {
 public:
  struct Config {
    DurUs period{msec(10)};
    DurUs initial_timeout{msec(30)};
    DurUs timeout_increment{msec(10)};
    /// Processes per cell; 0 = ceil(sqrt(n)).
    int cell_size{0};
    /// Mutation hook (check/mutants): the cell leader keeps electing and
    /// beating but re-propagates an eternally empty digest, so members
    /// never learn of remote (or even local) crashes. Breaks exactly
    /// fd.strong_completeness.
    bool mutate_stuck_propagation{false};
  };

  explicit HierC(Env& env);
  HierC(Env& env, Config cfg);

  void start() override;
  void on_message(const Message& m) override;

  /// The adopted global digest (never contains self).
  [[nodiscard]] ProcessSet suspected() const override { return adopted_; }

  /// The digest's composer: the current top leader as last heard.
  [[nodiscard]] ProcessId trusted() const override { return digest_leader_; }

  [[nodiscard]] bool acting_cell_leader() const { return acting_cell_leader_; }
  [[nodiscard]] bool acting_top_leader() const { return acting_top_leader_; }
  [[nodiscard]] int cell_size() const { return cell_size_; }
  [[nodiscard]] int n_cells() const { return n_cells_; }
  [[nodiscard]] int cell_of(ProcessId p) const { return p / cell_size_; }

 private:
  enum MsgType { kCellBeat = 1, kCellAlive = 2, kTopBeat = 3, kTopReport = 4 };

  [[nodiscard]] ProcessId cell_first(int d) const { return d * cell_size_; }
  [[nodiscard]] ProcessId cell_end(int d) const;
  [[nodiscard]] int cell_members(int d) const { return cell_end(d) - cell_first(d); }
  /// Offset of own-cell member \p q in the per-cell arrays.
  [[nodiscard]] std::size_t off(ProcessId q) const {
    return static_cast<std::size_t>(q - cell_first(own_cell_));
  }

  /// First own-cell member not suspected at cell level (self if none).
  [[nodiscard]] ProcessId cell_candidate() const;
  /// First cell not suspected at top level (own cell if none).
  [[nodiscard]] int top_candidate_cell() const;
  /// Where to address top-level traffic for cell \p d: the believed acting
  /// leader, or — while d is top-suspected — a rotating member (see the
  /// liveness repair note in the file comment).
  [[nodiscard]] ProcessId cell_contact(int d) const;

  void tick();
  void note_top_contact(ProcessId src);

  Config cfg_;
  int cell_size_{1};
  int n_cells_{1};
  int own_cell_{0};

  // --- intra-cell state (indexed by own-cell offset) -------------------
  ProcessSet cell_cand_susp_;  ///< candidate-order suspicions, own cell
  std::vector<TimeUs> last_beat_;
  std::vector<DurUs> beat_timeout_;
  bool acting_cell_leader_{false};

  // --- cell-leader role ------------------------------------------------
  std::vector<TimeUs> last_alive_;
  std::vector<DurUs> alive_timeout_;
  ProcessSet cell_report_;  ///< suspected members of own cell (never self)

  // --- top level (used while acting cell leader) -----------------------
  ProcessSet cell_susp_;  ///< universe = n_cells
  std::vector<TimeUs> last_cell_heard_;
  std::vector<DurUs> cell_timeout_;
  std::vector<ProcessId> believed_leader_;
  /// Last report per remote cell, lazily allocated — only cells that ever
  /// reported something nonempty occupy an entry.
  std::unordered_map<int, ProcessSet> reports_;
  bool acting_top_leader_{false};
  std::uint64_t rotate_{0};

  // --- adopted output ---------------------------------------------------
  ProcessSet top_digest_;  ///< last adopted top-level digest (leaders)
  ProcessSet adopted_;     ///< published composition, never contains self
  ProcessId digest_leader_{0};
};

}  // namespace ecfd::fd
