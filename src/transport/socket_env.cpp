#include "transport/socket_env.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "wire/codec.hpp"

namespace ecfd::transport {

bool SocketEnv::wire_init(std::string* error) {
  (void)error;  // plain sockets: nothing beyond the base's bind can fail
  // The receive headers point into recv_bufs_ and recv_froms_, which stay
  // put from here on; drain_socket() resets only what recvmmsg writes.
  recv_bufs_.resize(kRecvBatch * wire::kMaxFrameBytes);
  for (std::size_t i = 0; i < kRecvBatch; ++i) {
    recv_iovs_[i].iov_base = recv_bufs_.data() + i * wire::kMaxFrameBytes;
    recv_iovs_[i].iov_len = wire::kMaxFrameBytes;
    recv_msgs_[i].msg_hdr.msg_iov = &recv_iovs_[i];
    recv_msgs_[i].msg_hdr.msg_iovlen = 1;
    recv_msgs_[i].msg_hdr.msg_name = &recv_froms_[i];
  }
  return true;
}

void SocketEnv::wire_flush(std::vector<Datagram> out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t batch = std::min(kSendBatch, out.size() - done);
    if (batch >= 2 && use_mmsg_) {
      std::memset(send_msgs_.data(), 0, batch * sizeof(mmsghdr));
      for (std::size_t i = 0; i < batch; ++i) {
        Datagram& d = out[done + i];
        auto& sa = d.addr.empty() ? peer_sockaddr(d.dst) : d.addr;
        send_iovs_[i].iov_base = d.bytes.data();
        send_iovs_[i].iov_len = d.bytes.size();
        send_msgs_[i].msg_hdr.msg_iov = &send_iovs_[i];
        send_msgs_[i].msg_hdr.msg_iovlen = 1;
        send_msgs_[i].msg_hdr.msg_name = const_cast<std::uint8_t*>(sa.data());
        send_msgs_[i].msg_hdr.msg_namelen = static_cast<socklen_t>(sa.size());
      }
      const int sent = ::sendmmsg(sock_fd(), send_msgs_.data(),
                                  static_cast<unsigned int>(batch), 0);
      if (sent > 0) {
        for (int i = 0; i < sent; ++i) {
          note_dgram_sent(out[done + static_cast<std::size_t>(i)], true);
        }
        send_batch_hist().observe(sent);
        done += static_cast<std::size_t>(sent);
        continue;
      }
      if (errno == ENOSYS || errno == EOPNOTSUPP) {
        use_mmsg_ = false;  // kernel without sendmmsg: per-datagram path
        continue;
      }
      // UDP is lossy by contract; ENOBUFS etc. just drop the head datagram
      // (matching the old per-datagram behaviour) and keep making progress.
      note_send_error();
      ++done;
      continue;
    }
    const Datagram& d = out[done];
    const auto& sa = d.addr.empty() ? peer_sockaddr(d.dst) : d.addr;
    const auto sent =
        ::sendto(sock_fd(), d.bytes.data(), d.bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(sa.data()),
                 static_cast<socklen_t>(sa.size()));
    if (sent < 0) {
      note_send_error();
    } else {
      note_dgram_sent(d, false);
      send_batch_hist().observe(1);
    }
    ++done;
  }
}

void SocketEnv::drain_socket() {
  while (use_mmsg_) {
    for (auto& m : recv_msgs_) m.msg_hdr.msg_namelen = sizeof(sockaddr_in);
    const int got =
        ::recvmmsg(sock_fd(), recv_msgs_.data(),
                   static_cast<unsigned int>(kRecvBatch), 0, nullptr);
    if (got < 0) {
      if (errno == ENOSYS || errno == EOPNOTSUPP) {
        use_mmsg_ = false;  // kernel without recvmmsg: per-datagram path
        break;
      }
      // EAGAIN/EWOULDBLOCK: drained. Anything else on UDP is transient;
      // either way this read pass is over.
      return;
    }
    recv_batch_hist().observe(got);
    for (int i = 0; i < got; ++i) {
      on_datagram(recv_bufs_.data() +
                      static_cast<std::size_t>(i) * wire::kMaxFrameBytes,
                  recv_msgs_[i].msg_len,
                  pack_external_token(ntohl(recv_froms_[i].sin_addr.s_addr),
                                      ntohs(recv_froms_[i].sin_port)));
    }
    if (static_cast<std::size_t>(got) < kRecvBatch) return;  // drained
  }
  for (;;) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    const auto got =
        ::recvfrom(sock_fd(), recv_bufs_.data(), wire::kMaxFrameBytes, 0,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
    if (got < 0) return;  // EAGAIN: drained (anything else: pass is over)
    recv_batch_hist().observe(1);
    on_datagram(recv_bufs_.data(), static_cast<std::size_t>(got),
                pack_external_token(ntohl(from.sin_addr.s_addr),
                                    ntohs(from.sin_port)));
  }
}

void SocketEnv::wire_wait(DurUs max_wait) {
  pollfd pfd{};
  pfd.fd = sock_fd();
  pfd.events = POLLIN;
  // +1ms so a timer due mid-millisecond is not busy-polled.
  const int timeout_ms = static_cast<int>(max_wait / 1000 + 1);
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready > 0 && (pfd.revents & POLLIN) != 0) drain_socket();
}

}  // namespace ecfd::transport
