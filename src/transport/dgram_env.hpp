#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/env.hpp"
#include "obs/metrics.hpp"
#include "transport/coalescer.hpp"
#include "transport/node_config.hpp"

/// \file dgram_env.hpp
/// The shared core of the real-network Env backends.
///
/// One DgramEnv is one process of the universe: it owns a bound UDP
/// socket, a single-threaded event loop interleaving datagram receipt with
/// wall-clock timers, the wire codec routing (decode, misaddressing,
/// external clients), injected chaos, the unified metrics registry, and —
/// new in this layer — the per-peer tick coalescer that folds every frame
/// due to a peer in one flush window into a single batch-envelope datagram
/// (wire/envelope.hpp, the paper's §4 piggybacking carried to the wire).
///
/// What a concrete backend adds is only the syscall discipline:
///   * SocketEnv (socket_env.hpp): poll(2) + sendmmsg/recvmmsg batching —
///     the portable baseline;
///   * UringEnv (uring_env.hpp): io_uring with a registered provided-buffer
///     ring, multishot recvmsg, and batched submit chains — one syscall
///     flushes a whole tick's datagrams and receives complete without any
///     syscall at all in the steady state.
/// Identical protocol code, identical wire format, identical counters; the
/// two interoperate in one cluster (tests/test_uring_env.cpp) and are
/// compared by bench/bench_net.cpp.
///
/// Threading: everything — protocol callbacks, timers, sends — happens on
/// the thread that calls run_for()/run_until(). The class is not
/// thread-safe; cross-process concurrency comes from running one env per
/// OS process (tools/ecfd_node.cpp) or per thread (tests, bench_net).

namespace ecfd::transport {

/// Runtime-tunable wire knobs (previously hardcoded constants in
/// socket_env.hpp; lifted so bench_net can sweep them and the INI [net]
/// section can pin them per cluster).
struct NetTuning {
  std::size_t send_batch{64};  ///< datagrams per sendmmsg(2) syscall
  std::size_t recv_batch{16};  ///< datagrams per recvmmsg(2) syscall
  bool mmsg{true};  ///< start on sendmmsg/recvmmsg (auto-clears on ENOSYS)
  std::size_t uring_depth{512};       ///< io_uring SQ entries
  std::size_t uring_recv_buffers{64}; ///< provided-buffer ring entries
  CoalescerOptions coalesce;          ///< per-peer tick coalescing
};

class DgramEnv : public Env {
 public:
  struct Options {
    ProcessId self{0};
    std::vector<PeerAddr> peers;  ///< indexed by ProcessId, size n

    std::uint64_t seed{1};

    /// Injected chaos, applied on send (on top of whatever the real
    /// network does): drop probability and uniform extra delay.
    double loss{0.0};
    DurUs min_extra_delay{0};
    DurUs max_extra_delay{0};

    /// When set, trace() lines go to stderr as "[t_us] pK tag detail".
    bool trace_to_stderr{false};

    NetTuning net;
  };

  explicit DgramEnv(Options opts);
  ~DgramEnv() override;

  DgramEnv(const DgramEnv&) = delete;
  DgramEnv& operator=(const DgramEnv&) = delete;

  /// Binds self's UDP port (nonblocking) and initializes the backend
  /// (io_uring setup for UringEnv). Must succeed before start().
  bool open(std::string* error = nullptr);

  /// Registers a protocol (before start()).
  void add_protocol(std::unique_ptr<Protocol> proto);

  template <class P, class... Args>
  P& emplace(Args&&... args) {
    auto owned = std::make_unique<P>(*this, std::forward<Args>(args)...);
    P& ref = *owned;
    add_protocol(std::move(owned));
    return ref;
  }

  /// Invokes Protocol::start() on every registered protocol.
  void start();

  /// Runs the event loop for \p dur of wall-clock time (or until stop()).
  void run_for(DurUs dur);

  /// Runs until \p pred holds (checked after every loop iteration) or
  /// \p deadline elapses; returns pred's final value.
  bool run_until(const std::function<bool()>& pred, DurUs deadline);

  /// Makes the current run_for/run_until return promptly; callable from a
  /// timer or message callback.
  void stop() { stopping_ = true; }

  /// The backend's short name ("poll" or "uring"), for logs and reports.
  [[nodiscard]] virtual const char* backend_name() const = 0;

  /// Per-peer and per-label traffic accounting on the unified
  /// obs::MetricsRegistry (same .get() lookups as the old sim::Counters):
  ///   "msg.<label>.sent/.dropped"   logical messages, by label
  ///   "net.sent.p<dst>"             frames sent to dst (post-coalescing,
  ///                                 an envelope counts its inner frames)
  ///   "net.recv.p<src>"             frames received from src
  ///   "net.dgram_sent.p<dst>"       datagrams actually sent to dst;
  ///                                 "net.sent_batched.p<dst>" of them
  ///                                 left in a multi-datagram syscall
  ///                                 batch, "net.sent_single.p<dst>" one
  ///                                 at a time — the two sum to dgram_sent
  ///   "net.envelope_sent/_recv"     batch envelopes on the wire
  ///   "net.envelope_decode_error"   corrupt/truncated envelopes rejected
  ///   "net.decode_error", "net.misaddressed", "net.unknown_protocol"
  /// Histograms (log2 buckets, exported via /metrics.json):
  ///   "net.send_batch"      datagrams per send syscall
  ///   "net.recv_batch"      datagrams per receive pass
  ///   "net.coalesce_frames" frames per sent datagram (the coalescing win)
  [[nodiscard]] obs::MetricsRegistry& counters() { return metrics_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

  /// Attaches a typed event recorder; this node's events go to ring(self).
  /// Call before start(); \p rec must outlive this env.
  void attach_recorder(obs::Recorder* rec);

  /// Local UDP port actually bound (differs from the peer table when the
  /// configured port was 0 = ephemeral; used by tests).
  [[nodiscard]] std::uint16_t bound_port() const { return bound_port_; }

  // --- External clients -------------------------------------------------
  // Datagrams whose decoded src is kNoProcess are not peer traffic: they
  // come from clients outside the universe (the kv client library). They
  // are routed to the external handler together with an opaque token that
  // identifies the sender's address; send_external() routes a reply back.
  // Without a handler such frames count as misaddressed. External frames
  // are never coalesced — clients decode single frames only.

  /// IPv4 address + UDP port of an external sender, packed
  /// (ip << 16) | port; stable for the sender's lifetime, usable as a map
  /// key, and round-trippable through send_external.
  using ExternalToken = std::uint64_t;
  using ExternalHandler = std::function<void(ExternalToken, const Message&)>;

  /// Installs the handler for external frames (before start()).
  void set_external_handler(ExternalHandler fn) { external_ = std::move(fn); }

  /// Encodes and queues \p m for the external sender \p token (stamps
  /// src = self, dst = kNoProcess). Counted as "net.sent_external".
  void send_external(ExternalToken token, Message m);

  // --- Env --------------------------------------------------------------
  [[nodiscard]] TimeUs now() const override;
  void send(ProcessId dst, Message m) override;
  TimerId set_timer(DurUs delay, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;
  [[nodiscard]] ProcessId self() const override { return opts_.self; }
  [[nodiscard]] int n() const override {
    return static_cast<int>(opts_.peers.size());
  }
  Rng& rng() override { return rng_; }
  void trace(const std::string& tag, const std::string& detail) override;

 protected:
  /// One wire datagram, ready for the backend's send syscall. addr empty
  /// means "look dst up in the peer table"; dst == kNoProcess marks an
  /// external reply (addr set, per-peer counters skipped).
  struct Datagram {
    ProcessId dst{kNoProcess};
    std::uint32_t frames{1};  ///< logical frames inside (envelope batch)
    std::vector<std::uint8_t> addr;  ///< raw sockaddr; empty = peer table
    std::vector<std::uint8_t> bytes;
  };

  // --- Backend hooks ----------------------------------------------------

  /// Called once from open() after the socket is bound and nonblocking;
  /// the place for ring setup. Return false (setting \p error) to fail
  /// open() — the factory then falls back to the poll backend.
  virtual bool wire_init(std::string* error) = 0;

  /// Sends every datagram in \p out (order within a peer must be kept).
  /// The backend owns the buffers from here (io_uring keeps them alive
  /// until the CQE). Call note_dgram_sent()/note_send_error() per result.
  virtual void wire_flush(std::vector<Datagram> out) = 0;

  /// Blocks until datagrams arrive or \p max_wait elapses, delivering
  /// each through on_datagram(). May process send completions too.
  virtual void wire_wait(DurUs max_wait) = 0;

  // --- Services for backends --------------------------------------------

  /// Decodes one received datagram (batch envelopes are unpacked here)
  /// and routes every inner frame; counters on every error path.
  void on_datagram(const std::uint8_t* data, std::size_t len,
                   ExternalToken from_token);

  /// Success accounting for one sent datagram (\p batched: it left in a
  /// multi-datagram syscall batch).
  void note_dgram_sent(const Datagram& d, bool batched);
  void note_send_error() { metrics_.add("net.send_error"); }

  [[nodiscard]] const std::vector<std::uint8_t>& peer_sockaddr(
      ProcessId p) const {
    return peer_sockaddrs_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] int sock_fd() const { return fd_; }
  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] obs::Histogram& recv_batch_hist() { return *recv_batch_hist_; }
  [[nodiscard]] obs::Histogram& send_batch_hist() { return *send_batch_hist_; }

 private:
  struct Timer {
    TimeUs when{};
    std::uint64_t seq{};
    TimerId id{kInvalidTimer};
    std::function<void()> fn;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// One loop iteration: fire due timers, flush queued sends, then block
  /// in the backend for at most \p max_wait waiting for datagrams.
  void poll_once(DurUs max_wait);
  void fire_due_timers();
  [[nodiscard]] TimeUs next_timer_at() const;
  /// Queues an encoded frame for \p dst in the coalescer; the wire
  /// syscall happens at the next flush_sends().
  void transmit(ProcessId dst, std::vector<std::uint8_t> frame);
  /// Packs everything due out of the coalescer and hands the datagrams to
  /// the backend.
  void flush_sends();
  /// Decodes one single-frame datagram and routes it.
  void handle_frame(const std::uint8_t* data, std::size_t len,
                    ExternalToken from_token);
  void deliver(const Message& m);

  /// Pre-registered per-peer counter cells (bind-time registration,
  /// direct bumps on the send/receive paths — see MetricsRegistry docs).
  struct PeerCells {
    obs::MetricsRegistry::Cell* sent{nullptr};
    obs::MetricsRegistry::Cell* dgram_sent{nullptr};
    obs::MetricsRegistry::Cell* sent_batched{nullptr};
    obs::MetricsRegistry::Cell* sent_single{nullptr};
    obs::MetricsRegistry::Cell* recv{nullptr};
  };

  Options opts_;
  obs::MetricsRegistry metrics_;
  std::vector<PeerCells> peer_cells_;
  obs::Histogram* send_batch_hist_{nullptr};
  obs::Histogram* recv_batch_hist_{nullptr};
  obs::Histogram* coalesce_hist_{nullptr};
  obs::MetricsRegistry::Cell* envelope_sent_{nullptr};
  obs::MetricsRegistry::Cell* envelope_recv_{nullptr};
  Rng rng_;
  std::chrono::steady_clock::time_point epoch_;

  int fd_{-1};
  std::uint16_t bound_port_{0};
  std::vector<std::vector<std::uint8_t>> peer_sockaddrs_;  ///< opaque sockaddr_in

  Coalescer coalescer_;
  std::vector<Datagram> out_;      ///< size-triggered packs awaiting flush
  std::vector<Datagram> ext_out_;  ///< external replies, never coalesced

  std::priority_queue<Timer, std::vector<Timer>, TimerLater> timers_;
  std::unordered_set<TimerId> cancelled_;
  std::uint64_t next_seq_{1};
  std::uint64_t wire_seq_{0};  ///< causal send sequence (0 = none issued)
  TimerId next_timer_{1};
  bool stopping_{false};

  std::vector<std::unique_ptr<Protocol>> owned_;
  std::unordered_map<ProtocolId, Protocol*> by_id_;
  ExternalHandler external_;
  bool started_{false};
};

/// Maps a parsed config's [net] section onto the tuning struct (peers,
/// seed, and chaos stay the caller's job).
inline NetTuning net_tuning_from(const NodeConfig& cfg) {
  NetTuning t;
  t.send_batch = static_cast<std::size_t>(cfg.net_send_batch);
  t.recv_batch = static_cast<std::size_t>(cfg.net_recv_batch);
  t.mmsg = cfg.net_mmsg;
  t.coalesce.enabled = cfg.net_coalesce;
  t.coalesce.max_frames = static_cast<std::size_t>(cfg.net_max_envelope_frames);
  t.coalesce.max_bytes = static_cast<std::size_t>(cfg.net_max_envelope_bytes);
  t.coalesce.flush_delay = cfg.net_flush_delay;
  return t;
}

/// Packs an IPv4 address + UDP port (both host byte order) into the
/// opaque ExternalToken backends hand to on_datagram(); inverse of the
/// unpacking send_external() does.
constexpr std::uint64_t pack_external_token(std::uint32_t ip_host,
                                            std::uint16_t port_host) {
  return (static_cast<std::uint64_t>(ip_host) << 16) | port_host;
}

// --- Backend selection ---------------------------------------------------

enum class Backend { kPoll, kUring };

/// Parses "poll" / "uring"; nullopt on anything else.
std::optional<Backend> parse_backend(const std::string& s);
const char* backend_name(Backend b);

/// Builds and opens the requested backend. When io_uring is requested but
/// unavailable — compiled out (ECFD_URING=OFF), kernel without the needed
/// ops, or disabled via the ECFD_URING_DISABLE environment variable — the
/// env degrades to the poll backend instead of dying; \p note (when
/// non-null) explains the substitution. Returns nullptr with \p error set
/// only when even the poll backend cannot open (bad address, port in use).
std::unique_ptr<DgramEnv> make_net_env(Backend requested, DgramEnv::Options opts,
                                       std::string* error = nullptr,
                                       std::string* note = nullptr);

}  // namespace ecfd::transport
