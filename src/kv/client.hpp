#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kv/command.hpp"
#include "sim/time.hpp"
#include "transport/node_config.hpp"

/// \file client.hpp
/// Blocking UDP client for the ecfd-kv service (tools/ecfd_kv, examples,
/// and any external program). Not an Env protocol: the client lives
/// *outside* the universe, sends frames with src = kNoProcess, and is
/// routed through SocketEnv's external-frame path on the server side.
///
/// Reliability model: requests are retried until a reply arrives or the
/// attempt budget runs out. Writes carry client-assigned per-session
/// sequence numbers stamped once per call, so a retry that crosses a
/// leader failover is applied exactly once by the replicated session
/// window — the client may send a command five times and still observes
/// a single application. kNotLeader replies redirect to the hinted
/// leader; timeouts rotate through the server table. kOverloaded keeps the
/// server but waits out the attempt's request_timeout before resending,
/// so a full server does not burn the attempt budget in a burst.

namespace ecfd::kv {

class KvClient {
 public:
  struct Config {
    std::vector<transport::PeerAddr> servers;  ///< the cluster's peer table
    std::uint64_t session{0};      ///< 0 = derive one from pid + clock
    DurUs request_timeout{200'000};  ///< per-attempt reply wait
    int max_attempts{25};          ///< per call, across redirects/retries
    bool lease_reads{true};        ///< set kFlagLeaseRead on GET requests
  };

  struct Stats {
    std::int64_t requests{0};   ///< execute() calls
    std::int64_t attempts{0};   ///< datagrams sent (>= requests)
    std::int64_t redirects{0};  ///< kNotLeader hops followed
    std::int64_t timeouts{0};   ///< attempts that got no reply
    std::int64_t failures{0};   ///< calls that exhausted max_attempts
  };

  explicit KvClient(Config cfg);
  ~KvClient();

  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;

  /// Creates the UDP socket. Must succeed before any call.
  bool connect(std::string* error = nullptr);

  /// Opens this client's replicated session (idempotent; retried like any
  /// write). Must commit before writes are accepted.
  bool open_session(std::string* error = nullptr);
  void close_session();

  /// Sends one request envelope (stamping session, tag, and write seqs)
  /// and waits for the matching reply, retrying/redirecting as needed.
  /// nullopt = no reply within the attempt budget.
  std::optional<Reply> execute(std::vector<Op> ops);

  // Single-op conveniences. Status is the op outcome (kTimeout when the
  // attempt budget ran out).
  Status put(const std::string& key, const std::string& value);
  Status del(const std::string& key);
  Status cas(const std::string& key, const std::string& expected,
             const std::string& value, std::string* current = nullptr);
  /// kOk: *value filled. kNotFound: key absent.
  Status get(const std::string& key, std::string* value);

  [[nodiscard]] std::uint64_t session() const { return cfg_.session; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Server currently believed to be the leader (start of next attempt).
  [[nodiscard]] int target() const { return target_; }

 private:
  std::optional<Reply> send_and_wait(const Request& req);

  Config cfg_;
  Stats stats_;
  int fd_{-1};
  int target_{0};
  std::uint64_t next_tag_{1};
  std::uint64_t next_seq_{0};
};

}  // namespace ecfd::kv
