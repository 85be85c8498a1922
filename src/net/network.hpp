#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/message.hpp"
#include "obs/recorder.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

/// \file network.hpp
/// The simulated message-passing fabric: n processes, one LinkModel per
/// ordered pair, loss/partition injection and message accounting.

namespace ecfd {

/// Simulated network. Owns the link models; delivery is handed to a sink
/// callback installed by the System (which routes to process hosts).
class Network {
 public:
  using DeliverySink = std::function<void(const Message&)>;

  Network(sim::Scheduler& sched, int n, Rng rng, sim::Counters& counters);

  [[nodiscard]] int n() const { return n_; }

  /// Installs the delivery sink (called once by the System).
  void set_sink(DeliverySink sink) { sink_ = std::move(sink); }

  /// Replaces every directed link using \p factory.
  void set_links(const LinkFactory& factory);

  /// Replaces a single directed link.
  void set_link(ProcessId src, ProcessId dst, std::unique_ptr<LinkModel> link);

  /// Blocks/unblocks a directed link (messages silently dropped while
  /// blocked). Used to create partitions.
  void set_blocked(ProcessId src, ProcessId dst, bool blocked);

  /// Blocks both directions between every pair (a, b) with a in \p group_a
  /// and b not in it — a full partition.
  void partition(const ProcessSet& group_a);

  /// Removes every block.
  void heal();

  /// Message-level fault-injection overlay, applied on top of the link
  /// models (used by the check/ schedule fuzzer to model loss bursts,
  /// delay spikes and duplication without swapping links mid-run).
  /// Probabilities are exact parts-per-million integers so schedules
  /// serialize and replay bit-identically. All zeros = inactive; the
  /// inactive overlay draws no randomness, so runs without chaos keep
  /// their historical determinism fingerprints.
  struct Chaos {
    std::uint32_t loss_ppm{0};       ///< extra drop probability, ppm
    DurUs extra_delay_max{0};        ///< adds uniform [0, max] to delay
    std::uint32_t duplicate_ppm{0};  ///< probability of a second delivery
    [[nodiscard]] bool active() const {
      return loss_ppm != 0 || extra_delay_max != 0 || duplicate_ppm != 0;
    }
  };
  void set_chaos(const Chaos& chaos) { chaos_ = chaos; }
  void clear_chaos() { chaos_ = Chaos{}; }
  [[nodiscard]] const Chaos& chaos() const { return chaos_; }

  /// Sends \p m (src/dst must be stamped). Samples the link model for a
  /// delay, schedules the delivery, and keeps counters.
  void send(const Message& m);

  /// Delay applied to self-addressed messages (they bypass link models).
  void set_self_delay(DurUs d) { self_delay_ = d; }

  /// Attached by System::attach_recorder so dropped messages land in the
  /// sender's event ring (ProcessHost only sees the send).
  void set_recorder(obs::Recorder* rec) { recorder_ = rec; }

  [[nodiscard]] std::int64_t sent_total() const { return sent_total_; }
  [[nodiscard]] std::int64_t delivered_total() const { return delivered_total_; }
  [[nodiscard]] std::int64_t dropped_total() const { return dropped_total_; }

 private:
  [[nodiscard]] std::size_t idx(ProcessId src, ProcessId dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(dst);
  }

  /// Interned per-label counter cells: the ".sent"/".dropped" key strings
  /// are built once per distinct label, then every send bumps raw int64
  /// pointers. Keyed by the label's address — labels are string literals
  /// with stable identity. The empty label (numeric proto/type fallback
  /// key) takes the slow path since distinct messages can share it.
  struct LabelCells {
    std::int64_t* sent{nullptr};
    std::int64_t* dropped{nullptr};
  };
  LabelCells& cells_for(const Message& m);

  sim::Scheduler& sched_;
  int n_;
  Rng rng_;
  sim::Counters& counters_;
  obs::Recorder* recorder_{nullptr};
  DeliverySink sink_;
  std::vector<std::unique_ptr<LinkModel>> links_;
  std::vector<char> blocked_;
  Chaos chaos_;
  DurUs self_delay_{1};
  std::int64_t sent_total_{0};
  std::int64_t delivered_total_{0};
  std::int64_t dropped_total_{0};
  std::unordered_map<const char*, LabelCells> label_cells_;
};

}  // namespace ecfd
