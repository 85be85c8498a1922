#include "transport/uring_env.hpp"

#include <netinet/in.h>
#include <sys/mman.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "wire/codec.hpp"

namespace ecfd::transport {

namespace {

/// Marks the multishot receive's CQEs; send CQEs carry their slot index.
constexpr std::uint64_t kRecvUserData = ~0ULL;

/// SQ entries, and send slots: one tick's datagrams submit on one enter.
constexpr std::uint32_t kRingDepth = 512;
/// Provided receive buffers (the kernel requires a power of two).
constexpr std::uint32_t kRecvBuffers = 64;
static_assert((kRecvBuffers & (kRecvBuffers - 1)) == 0);

}  // namespace

UringEnv::~UringEnv() {
  // The kernel releases the registered pbuf ring with the ring fd (closed
  // by the Ring member's destructor); only our mapping remains to drop.
  if (buf_ring_ != nullptr) ::munmap(buf_ring_, buf_ring_bytes_);
}

bool UringEnv::wire_init(std::string* error) {
  const auto fail = [&](const std::string& reason) {
    if (error) *error = reason;
    if (buf_ring_ != nullptr) {
      ::munmap(buf_ring_, buf_ring_bytes_);
      buf_ring_ = nullptr;
    }
    ring_.close();
    return false;
  };

  // The CI fallback smoke (and any operator who wants the poll backend
  // without a rebuild) forces the "kernel without io_uring" path here.
  if (std::getenv("ECFD_URING_DISABLE") != nullptr) {
    return fail("disabled via ECFD_URING_DISABLE");
  }

  std::string ring_error;
  if (!ring_.init(kRingDepth, &ring_error)) return fail(ring_error);
  if ((ring_.features() & IORING_FEAT_EXT_ARG) == 0) {
    return fail("kernel lacks IORING_FEAT_EXT_ARG (pre-5.11)");
  }

  if (!setup_buf_ring(error)) {
    const std::string reason = error ? *error : "pbuf ring setup failed";
    return fail(reason);
  }

  slots_.resize(kRingDepth);
  free_slots_.clear();
  free_slots_.reserve(kRingDepth);
  for (std::size_t i = kRingDepth; i > 0; --i) free_slots_.push_back(i - 1);

  std::string arm_error;
  if (!arm_recv(&arm_error)) return fail(arm_error);
  const int r = ring_.submit();
  if (r < 0) {
    return fail(std::string("io_uring_enter(submit recv): ") +
                std::strerror(-r));
  }
  return true;
}

bool UringEnv::setup_buf_ring(std::string* error) {
  // Each provided buffer holds the recvmsg completion header, the space
  // the template msghdr reserves for the source address, then the payload.
  buf_size_ = sizeof(io_uring_recvmsg_out) + sizeof(sockaddr_in) +
              wire::kMaxFrameBytes;

  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  buf_ring_bytes_ = kRecvBuffers * sizeof(io_uring_buf);
  buf_ring_bytes_ = (buf_ring_bytes_ + page - 1) & ~(page - 1);
  void* mem = ::mmap(nullptr, buf_ring_bytes_, PROT_READ | PROT_WRITE,
                     MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
  if (mem == MAP_FAILED) {
    if (error) *error = std::string("mmap(pbuf ring): ") + std::strerror(errno);
    return false;
  }
  buf_ring_ = static_cast<io_uring_buf_ring*>(mem);

  io_uring_buf_reg reg{};
  reg.ring_addr = reinterpret_cast<std::uint64_t>(buf_ring_);
  reg.ring_entries = kRecvBuffers;
  reg.bgid = 0;
  const int r =
      uring::sys_register(ring_.fd(), IORING_REGISTER_PBUF_RING, &reg, 1);
  if (r < 0) {
    if (error) {
      *error = std::string("IORING_REGISTER_PBUF_RING: ") + std::strerror(-r);
    }
    ::munmap(buf_ring_, buf_ring_bytes_);
    buf_ring_ = nullptr;
    return false;
  }

  recv_bufs_.resize(kRecvBuffers * buf_size_);
  buf_ring_tail_ = 0;
  for (std::uint32_t bid = 0; bid < kRecvBuffers; ++bid) {
    recycle_buffer(static_cast<std::uint16_t>(bid));
  }
  return true;
}

void UringEnv::recycle_buffer(std::uint16_t bid) {
  // NOT buf_ring_->bufs: the UAPI declares the entry array with
  // __DECLARE_FLEX_ARRAY, whose C++ expansion wraps it in a struct with a
  // (one-byte, padded-to-eight) empty member, shifting `bufs` to offset 8.
  // The kernel reads entries at offset 0, where the union overlays them.
  auto* entries = reinterpret_cast<io_uring_buf*>(buf_ring_);
  io_uring_buf& e =
      entries[buf_ring_tail_ & static_cast<std::uint16_t>(kRecvBuffers - 1)];
  e.addr = reinterpret_cast<std::uint64_t>(recv_buf(bid));
  e.len = static_cast<std::uint32_t>(buf_size_);
  e.bid = bid;
  ++buf_ring_tail_;
  __atomic_store_n(&buf_ring_->tail, buf_ring_tail_, __ATOMIC_RELEASE);
}

bool UringEnv::arm_recv(std::string* error) {
  io_uring_sqe* sqe = ring_.get_sqe();
  if (sqe == nullptr) {
    // SQ momentarily full: stay unarmed; process_cqes() retries after the
    // next submit drains the queue. Only fatal during wire_init (where
    // the SQ is empty, so this branch cannot trigger).
    if (error) *error = "submission queue full";
    return false;
  }
  std::memset(&recv_template_, 0, sizeof(recv_template_));
  recv_template_.msg_namelen = sizeof(sockaddr_in);
  sqe->opcode = IORING_OP_RECVMSG;
  sqe->fd = sock_fd();
  sqe->addr = reinterpret_cast<std::uint64_t>(&recv_template_);
  sqe->len = 1;
  sqe->ioprio = IORING_RECV_MULTISHOT;
  sqe->flags = IOSQE_BUFFER_SELECT;
  sqe->buf_group = 0;
  sqe->user_data = kRecvUserData;
  ring_.advance_sq();
  recv_armed_ = true;
  return true;
}

io_uring_sqe* UringEnv::get_sqe_blocking() {
  io_uring_sqe* sqe = ring_.get_sqe();
  while (sqe == nullptr) {
    // Submitting hands the queued SQEs to the kernel and frees SQ space;
    // -EBUSY means the CQ overflowed first, so reap before retrying.
    if (ring_.submit() == -EBUSY) {
      __kernel_timespec ts{0, 1000000};  // 1ms
      ring_.submit_and_wait(&ts);
    }
    process_cqes();
    sqe = ring_.get_sqe();
  }
  return sqe;
}

std::size_t UringEnv::acquire_slot() {
  while (free_slots_.empty()) {
    // Every in-flight sendmsg owes a CQE; wait for one to come back.
    __kernel_timespec ts{1, 0};
    ring_.submit_and_wait(&ts);
    process_cqes();
  }
  const std::size_t idx = free_slots_.back();
  free_slots_.pop_back();
  return idx;
}

void UringEnv::wire_flush(std::vector<Datagram> out) {
  if (out.empty()) return;
  const bool batched = out.size() >= 2;
  for (auto& d : out) {
    const std::size_t idx = acquire_slot();
    SendSlot& s = slots_[idx];
    s.bytes = std::move(d.bytes);
    s.dst = d.dst;
    s.frames = d.frames;
    s.batched = batched;
    const auto& sa = d.addr.empty() ? peer_sockaddr(d.dst) : d.addr;
    std::memset(&s.addr, 0, sizeof(s.addr));
    std::memcpy(&s.addr, sa.data(), std::min(sizeof(s.addr), sa.size()));
    s.iov.iov_base = s.bytes.data();
    s.iov.iov_len = s.bytes.size();
    std::memset(&s.msg, 0, sizeof(s.msg));
    s.msg.msg_name = &s.addr;
    s.msg.msg_namelen = sizeof(s.addr);
    s.msg.msg_iov = &s.iov;
    s.msg.msg_iovlen = 1;

    io_uring_sqe* sqe = get_sqe_blocking();
    sqe->opcode = IORING_OP_SENDMSG;
    sqe->fd = sock_fd();
    sqe->addr = reinterpret_cast<std::uint64_t>(&s.msg);
    sqe->len = 1;
    sqe->user_data = idx;
    ring_.advance_sq();
    ++inflight_sends_;
  }
  send_batch_hist().observe(static_cast<std::int64_t>(out.size()));
  // The whole tick's datagrams leave on this one enter; completions are
  // reaped opportunistically on the next wait.
  ring_.submit();
}

void UringEnv::handle_recv_cqe(const io_uring_cqe& cqe) {
  if (cqe.res < 0) {
    // -ENOBUFS: all provided buffers were in flight. They recycle as
    // their CQEs are consumed; the re-arm at the end of process_cqes()
    // is the whole recovery.
    return;
  }
  if ((cqe.flags & IORING_CQE_F_BUFFER) == 0) return;
  const auto bid =
      static_cast<std::uint16_t>(cqe.flags >> IORING_CQE_BUFFER_SHIFT);
  std::uint8_t* buf = recv_buf(bid);
  const auto len = static_cast<std::size_t>(cqe.res);

  // Buffer layout (io_uring multishot recvmsg): completion header, then
  // msg_namelen bytes of source address, then the datagram payload.
  io_uring_recvmsg_out out{};
  if (len >= sizeof(out)) {
    std::memcpy(&out, buf, sizeof(out));
    const std::size_t payload_off = sizeof(out) + recv_template_.msg_namelen +
                                    recv_template_.msg_controllen;
    if ((out.flags & MSG_TRUNC) == 0 && out.namelen >= sizeof(sockaddr_in) &&
        payload_off + out.payloadlen <= len) {
      sockaddr_in from{};
      std::memcpy(&from, buf + sizeof(out), sizeof(from));
      on_datagram(buf + payload_off, out.payloadlen,
                  pack_external_token(ntohl(from.sin_addr.s_addr),
                                      ntohs(from.sin_port)));
    } else {
      metrics().add("net.decode_error");
    }
  } else {
    metrics().add("net.decode_error");
  }
  recycle_buffer(bid);
}

void UringEnv::process_cqes() {
  int received = 0;
  while (io_uring_cqe* cqe = ring_.peek_cqe()) {
    if (cqe->user_data == kRecvUserData) {
      if ((cqe->flags & IORING_CQE_F_MORE) == 0) recv_armed_ = false;
      if (cqe->res >= 0 && (cqe->flags & IORING_CQE_F_BUFFER) != 0) {
        ++received;
      }
      handle_recv_cqe(*cqe);
    } else {
      SendSlot& s = slots_[cqe->user_data];
      if (cqe->res < 0) {
        note_send_error();
      } else {
        note_dgram_sent(Datagram{s.dst, s.frames, {}, {}}, s.batched);
      }
      s.bytes.clear();
      s.bytes.shrink_to_fit();
      free_slots_.push_back(cqe->user_data);
      --inflight_sends_;
    }
    ring_.seen_cqe();
  }
  if (received > 0) recv_batch_hist().observe(received);
  // The kernel retires a multishot on transient error or buffer
  // starvation; re-arm so the socket never goes deaf.
  if (!recv_armed_) arm_recv(nullptr);
}

void UringEnv::wire_wait(DurUs max_wait) {
  process_cqes();
  if (max_wait < 0) max_wait = 0;
  __kernel_timespec ts{};
  ts.tv_sec = max_wait / 1000000;
  ts.tv_nsec = (max_wait % 1000000) * 1000;
  ring_.submit_and_wait(&ts);
  process_cqes();
}

}  // namespace ecfd::transport
