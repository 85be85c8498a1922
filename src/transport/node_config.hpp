#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"

/// \file node_config.hpp
/// Cluster configuration for the real-network transport: a static peer
/// table (ProcessId -> host:port) plus protocol timing and chaos knobs,
/// loaded from a small INI-style file shared by every node of a cluster.
///
/// Format (comments with '#' or ';', case-sensitive keys):
///
///   [cluster]
///   seed = 1
///   fd = efficient_p          ; any consensus/fd_stacks.hpp stack but scripted
///   period_ms = 50
///   initial_timeout_ms = 250  ; static stacks: the initial timeout Δ;
///                             ; ecfd, stable_leader, heartbeat_adaptive:
///                             ; the fallback used until two beats from a
///                             ; peer warm its arrival predictor up
///   timeout_increment_ms = 100
///                             ; static stacks: Δ widening per mistake;
///                             ; ecfd, stable_leader: widening of the
///                             ; margin α, and of the fallback, per mistake
///   consensus = false
///   backend = poll            ; poll | uring (uring degrades to poll when
///                             ; the kernel lacks io_uring)
///
///   [peers]
///   0 = 127.0.0.1:9100
///   1 = 127.0.0.1:9101
///   2 = 127.0.0.1:9102
///
///   [chaos]                   ; optional injected faults, applied on send
///   loss = 0.0
///   min_delay_ms = 0
///   max_delay_ms = 0
///
///   [kv]                      ; optional replicated key-value service
///   enabled = true
///   capacity = 1024           ; replicated-log slots (fixed up front)
///   pipeline_depth = 4        ; slots proposed ahead of the decided prefix
///   batch_max_ops = 64
///   batch_wait_ms = 2
///   lease_establish_ms = 500
///   snapshot_every = 64       ; applied slots between log compactions
///   dedup_window = 64         ; cached results per client session
///
/// Peer ids must be exactly 0..n-1; every node of the cluster loads the
/// same file and is told which row is "self" on its command line. Every
/// `*_ms` key is a whole number of milliseconds no longer than
/// kMaxDurationMs. The wire path has no keys: coalescing is on and its
/// caps and syscall batch widths are constants (transport/coalescer.hpp,
/// socket_env.hpp, uring_env.cpp).

namespace ecfd::transport {

/// Longest duration any `*_ms` key accepts: one day. Bounds the key's
/// microsecond value, and the wall-clock deadlines built from it, far from
/// int64 overflow.
inline constexpr std::int64_t kMaxDurationMs = 24LL * 60 * 60 * 1000;

/// One row of the peer table.
struct PeerAddr {
  std::string host;
  std::uint16_t port{0};
};

struct NodeConfig {
  std::vector<PeerAddr> peers;  ///< indexed by ProcessId, size n

  std::uint64_t seed{1};
  std::string fd{"efficient_p"};
  bool consensus{false};
  std::string backend{"poll"};  ///< "poll" | "uring"

  DurUs period{msec(50)};
  DurUs initial_timeout{msec(250)};
  DurUs timeout_increment{msec(100)};

  double loss{0.0};
  DurUs min_delay{0};
  DurUs max_delay{0};

  // [kv] — the replicated key-value service (tools/ecfd_node --kv).
  bool kv_enabled{false};
  int kv_capacity{1024};
  int kv_pipeline_depth{4};
  int kv_batch_max_ops{64};
  DurUs kv_batch_wait{msec(2)};
  DurUs kv_lease_establish{msec(500)};
  int kv_snapshot_every{64};
  int kv_dedup_window{64};

  [[nodiscard]] int n() const { return static_cast<int>(peers.size()); }
};

/// Parses config text. Returns std::nullopt and sets \p error on malformed
/// input (unknown section/key, bad peer table, out-of-range values).
std::optional<NodeConfig> parse_node_config(const std::string& text,
                                            std::string* error = nullptr);

/// Reads and parses a config file.
std::optional<NodeConfig> load_node_config(const std::string& path,
                                           std::string* error = nullptr);

/// Parses "host:port"; used for the peer table and for CLI overrides.
std::optional<PeerAddr> parse_peer_addr(const std::string& s);

}  // namespace ecfd::transport
