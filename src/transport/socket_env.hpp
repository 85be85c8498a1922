#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <array>
#include <string>
#include <vector>

#include "transport/dgram_env.hpp"

/// \file socket_env.hpp
/// The poll(2) real-network backend — the portable baseline DgramEnv.
///
/// Everything interesting (event loop, timers, chaos, coalescing, codec
/// routing, metrics) lives in the shared base; this class contributes only
/// the syscall discipline: block in poll(2) for readiness, then move
/// datagrams with sendmmsg(2)/recvmmsg(2) — up to kSendBatch (resp.
/// kRecvBatch) datagrams per syscall — falling back to per-datagram
/// sendto(2)/recvfrom(2) on kernels without the batched calls.
///
/// Transport semantics are exactly what the paper's asynchronous model
/// asks for: messages can be dropped (UDP, plus optional injected loss),
/// delayed (network, plus optional injected delay), and a crashed process
/// is just a killed OS process. See uring_env.hpp for the io_uring
/// sibling and dgram_env.hpp for the shared contract.

namespace ecfd::transport {

class SocketEnv final : public DgramEnv {
 public:
  explicit SocketEnv(Options opts) : DgramEnv(std::move(opts)) {}

  [[nodiscard]] const char* backend_name() const override { return "poll"; }

 protected:
  bool wire_init(std::string* error) override;
  void wire_flush(std::vector<Datagram> out) override;
  void wire_wait(DurUs max_wait) override;

 private:
  static constexpr std::size_t kSendBatch = 64;  ///< datagrams per sendmmsg
  static constexpr std::size_t kRecvBatch = 16;  ///< datagrams per recvmmsg

  /// Reads until EAGAIN, recvmmsg(2) up to kRecvBatch datagrams per
  /// syscall, routing each through on_datagram().
  void drain_socket();

  std::array<mmsghdr, kSendBatch> send_msgs_{};
  std::array<iovec, kSendBatch> send_iovs_{};
  std::array<mmsghdr, kRecvBatch> recv_msgs_{};
  std::array<iovec, kRecvBatch> recv_iovs_{};
  std::array<sockaddr_in, kRecvBatch> recv_froms_{};
  std::vector<std::uint8_t> recv_bufs_;  ///< kRecvBatch frame-sized buffers
  bool use_mmsg_{true};  ///< cleared on ENOSYS; falls back to sendto/recvfrom
};

}  // namespace ecfd::transport
