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
///   initial_timeout_ms = 250
///   timeout_increment_ms = 100
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
///   [net]                     ; optional wire tuning (defaults shown)
///   coalesce = true           ; pack frames per peer per tick into one
///                             ; batch-envelope datagram (§4 piggybacking)
///   max_envelope_frames = 64  ; frames per envelope before immediate flush
///   max_envelope_bytes = 1400 ; payload bytes per envelope (MTU-safe)
///   flush_delay_us = 0        ; how long a frame may wait for company;
///                             ; 0 = flush every event-loop iteration
///   send_batch = 64           ; datagrams per sendmmsg(2) (poll backend)
///   recv_batch = 16           ; datagrams per recvmmsg(2) (poll backend)
///   mmsg = true               ; use sendmmsg/recvmmsg (poll backend)
///
///   [kv]                      ; optional replicated key-value service
///   enabled = true
///   capacity = 1024           ; replicated-log slots (fixed up front)
///   pipeline_depth = 4        ; slots proposed ahead of the decided prefix
///   batch_max_ops = 64
///   batch_wait_ms = 2
///   lease_establish_ms = 500
///   snapshot_every = 64       ; applied slots between snapshots/compactions
///   dedup_window = 64         ; cached results per client session
///
/// Peer ids must be exactly 0..n-1; every node of the cluster loads the
/// same file and is told which row is "self" on its command line.

namespace ecfd::transport {

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

  // [net] — wire tuning, mapped onto transport::NetTuning by the caller.
  bool net_coalesce{true};
  int net_max_envelope_frames{64};
  int net_max_envelope_bytes{1400};
  DurUs net_flush_delay{0};
  int net_send_batch{64};
  int net_recv_batch{16};
  bool net_mmsg{true};

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
