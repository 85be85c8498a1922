#include "kv/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "net/protocol_ids.hpp"
#include "wire/codec.hpp"

namespace ecfd::kv {

namespace {

TimeUs mono_now() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool is_write(OpKind k) {
  return k == OpKind::kPut || k == OpKind::kDel || k == OpKind::kCas;
}

}  // namespace

KvClient::KvClient(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.session == 0) {
    // Collision-resistant enough for a test/load-gen client: pid in the
    // high bits, microsecond clock below. Real deployments pass one in.
    cfg_.session =
        (static_cast<std::uint64_t>(::getpid()) << 40) ^
        static_cast<std::uint64_t>(mono_now());
    if (cfg_.session == 0) cfg_.session = 1;
  }
}

KvClient::~KvClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool KvClient::connect(std::string* error) {
  if (cfg_.servers.empty()) {
    if (error) *error = "no servers configured";
    return false;
  }
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    if (error) *error = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  return true;
}

std::optional<Reply> KvClient::send_and_wait(const Request& req) {
  Message m = Message::make<Request>(protocol_ids::kKvService,
                                     kMsgClientRequest, "kv.request", req);
  m.src = kNoProcess;

  for (int attempt = 0; attempt < cfg_.max_attempts; ++attempt) {
    if (target_ < 0 || target_ >= static_cast<int>(cfg_.servers.size())) {
      target_ = 0;
    }
    m.dst = target_;
    std::vector<std::uint8_t> frame;
    if (!wire::encode_message(m, &frame)) return std::nullopt;

    const auto& server = cfg_.servers[static_cast<std::size_t>(target_)];
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(server.port);
    if (::inet_pton(AF_INET, server.host.c_str(), &sa.sin_addr) != 1) {
      target_ = (target_ + 1) % static_cast<int>(cfg_.servers.size());
      continue;
    }
    ++stats_.attempts;
    (void)::sendto(fd_, frame.data(), frame.size(), 0,
                   reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));

    // Wait for the matching reply; stray frames (older tags, other
    // sessions) are discarded and the wait continues on the remaining
    // budget. So does kOverloaded: the server answered, so the next
    // attempt goes to it again, but only once this one's time is up.
    const TimeUs deadline = mono_now() + cfg_.request_timeout;
    bool answered = false;
    for (;;) {
      const TimeUs left = deadline - mono_now();
      if (left <= 0) break;
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(left / 1000 + 1));
      if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;

      std::uint8_t buf[wire::kMaxFrameBytes];
      const auto got = ::recvfrom(fd_, buf, sizeof(buf), 0, nullptr, nullptr);
      if (got <= 0) continue;
      auto decoded =
          wire::decode_message(buf, static_cast<std::size_t>(got));
      if (!decoded || decoded->protocol != protocol_ids::kKvService ||
          decoded->type != kMsgClientReply || !decoded->as<Reply>()) {
        continue;
      }
      const Reply& r = *decoded->as<Reply>();
      if (r.session != req.session || r.tag != req.tag) continue;

      answered = true;
      if (r.status == Status::kNotLeader) {
        ++stats_.redirects;
        target_ = r.leader_hint >= 0 &&
                          r.leader_hint <
                              static_cast<std::int32_t>(cfg_.servers.size())
                      ? r.leader_hint
                      : (target_ + 1) %
                            static_cast<int>(cfg_.servers.size());
        break;  // next attempt, new target
      }
      if (r.status == Status::kOverloaded) continue;  // back off
      return r;
    }
    if (!answered) {
      ++stats_.timeouts;
      // No reply: the server may be down — try the next one.
      target_ = (target_ + 1) % static_cast<int>(cfg_.servers.size());
    }
  }
  ++stats_.failures;
  return std::nullopt;
}

std::optional<Reply> KvClient::execute(std::vector<Op> ops) {
  ++stats_.requests;
  Request req;
  req.version = kProtoVersion;
  req.flags = cfg_.lease_reads ? kFlagLeaseRead : 0;
  req.session = cfg_.session;
  req.tag = next_tag_++;
  // Stamp write seqs once — retries inside send_and_wait reuse them, which
  // is exactly what makes retried writes dedupable server-side.
  for (Op& op : ops) {
    if (is_write(op.op)) op.seq = ++next_seq_;
  }
  req.ops = std::move(ops);
  return send_and_wait(req);
}

bool KvClient::open_session(std::string* error) {
  Op op;
  op.op = OpKind::kOpenSession;
  auto r = execute({op});
  if (!r || r->status != Status::kOk) {
    if (error) {
      *error = !r ? "open_session: no reply"
                  : std::string("open_session: ") + status_name(r->status);
    }
    return false;
  }
  return true;
}

void KvClient::close_session() {
  Op op;
  op.op = OpKind::kCloseSession;
  (void)execute({op});
}

Status KvClient::put(const std::string& key, const std::string& value) {
  Op op;
  op.op = OpKind::kPut;
  op.key = key;
  op.value = value;
  auto r = execute({op});
  if (!r) return Status::kTimeout;
  if (r->status != Status::kOk || r->results.empty()) return r->status;
  return r->results[0].status;
}

Status KvClient::del(const std::string& key) {
  Op op;
  op.op = OpKind::kDel;
  op.key = key;
  auto r = execute({op});
  if (!r) return Status::kTimeout;
  if (r->status != Status::kOk || r->results.empty()) return r->status;
  return r->results[0].status;
}

Status KvClient::cas(const std::string& key, const std::string& expected,
                     const std::string& value, std::string* current) {
  Op op;
  op.op = OpKind::kCas;
  op.key = key;
  op.value = value;
  op.expected = expected;
  auto r = execute({op});
  if (!r) return Status::kTimeout;
  if (r->status != Status::kOk || r->results.empty()) return r->status;
  if (current) *current = r->results[0].value;
  return r->results[0].status;
}

Status KvClient::get(const std::string& key, std::string* value) {
  Op op;
  op.op = OpKind::kGet;
  op.key = key;
  auto r = execute({op});
  if (!r) return Status::kTimeout;
  if (r->status != Status::kOk || r->results.empty()) return r->status;
  if (value) *value = r->results[0].value;
  return r->results[0].status;
}

}  // namespace ecfd::kv
