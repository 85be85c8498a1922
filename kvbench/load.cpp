// kvbench_load — the KV benchmark's load generator and layer timer.
//
// Drives a running 3-node `ecfd_node --kv` cluster through the public
// kv::KvClient, one thread per session. kvbench/run.py owns the cluster
// and speaks to this process line by line: one command on stdin, one JSON
// object per line on stdout in reply.
//
//   servers H:P,H:P,H:P              target cluster; drops all sessions
//   probe SESSION                    first acked write, then the first
//                                    lease-served read (reply applied_slot
//                                    -1); answers {"ready_mono_us":T}
//   sessions N SEED CLUSTER          open N replicated sessions; the key
//                                    and op streams derive from SEED
//   phase key=value...               run one load phase (PhaseSpec below),
//                                    adding its samples to stats TAG
//   stats TAG                        percentiles and counts of TAG, then
//                                    clears it
//   verify TAG                       read back every acked write of every
//                                    session (op counts go to TAG)
//   micro key=value...               time KvStore::apply/read and the wire
//                                    codec on this workload's own commands
//   quit
//
// Clocks: every *_mono_us value is CLOCK_MONOTONIC (std::steady_clock on
// Linux), shared with the orchestrator; *_wall_us is CLOCK_REALTIME, the
// clock the nodes' event rings are aligned to.

#include <signal.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kv/client.hpp"
#include "kv/store.hpp"
#include "net/protocol_ids.hpp"
#include "sim/rng.hpp"
#include "wire/codec.hpp"

using namespace ecfd;

namespace {

std::int64_t mono_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t wall_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_mono(std::int64_t t_us) {
  const std::int64_t left = t_us - mono_us();
  if (left > 0) std::this_thread::sleep_for(std::chrono::microseconds(left));
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng r(a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL));
  return r.next();
}

/// Key popularity: uniform, or Zipf(theta) by inverse CDF over a table
/// (the per-session key space is small, so the table is exact and cheap).
class KeyPicker {
 public:
  KeyPicker(int keys, double theta) : keys_(keys) {
    if (theta <= 0) return;
    cdf_.resize(static_cast<std::size_t>(keys));
    double sum = 0;
    for (int i = 0; i < keys; ++i) sum += 1.0 / std::pow(i + 1, theta);
    double acc = 0;
    for (int i = 0; i < keys; ++i) {
      acc += 1.0 / std::pow(i + 1, theta) / sum;
      cdf_[static_cast<std::size_t>(i)] = acc;
    }
  }
  int pick(Rng& rng) const {
    if (cdf_.empty()) {
      return static_cast<int>(rng.below(static_cast<std::uint64_t>(keys_)));
    }
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return std::min(static_cast<int>(it - cdf_.begin()), keys_ - 1);
  }

 private:
  int keys_;
  std::vector<double> cdf_;
};

/// One load phase. Closed loop: each session sends its next op when the
/// previous one returns, for `ms`. Open loop: each session follows a fixed
/// schedule (rate/sessions ops per second, staggered), and an op's latency
/// counts from its due time. With kill_after_ms >= 0 the phase SIGKILLs
/// victim_pid at that offset and runs until a survivor has acked a write
/// and served a lease read, plus linger_ms; `ms` then caps the phase.
struct PhaseSpec {
  std::string tag{"main"};
  bool open_loop{false};
  std::int64_t ms{1000};
  double rate{0};
  int read_pct{50};
  int keys{1000};
  double zipf{0};
  int value_bytes{100};
  std::int64_t kill_after_ms{-1};
  int victim_pid{-1};
  int victim_id{-1};
  std::int64_t linger_ms{300};
};

struct Samples {
  std::vector<std::int64_t> write_ns;
  std::vector<std::int64_t> read_ns;
  std::vector<std::int64_t> late_ns;  ///< open loop: send time - due time
  std::int64_t attempted{0};
  std::int64_t failed{0};
  std::int64_t elapsed_us{0};
  std::int64_t requests{0};
  std::int64_t attempts{0};
  std::int64_t timeouts{0};
  std::int64_t redirects{0};

  void merge(const Samples& o) {
    write_ns.insert(write_ns.end(), o.write_ns.begin(), o.write_ns.end());
    read_ns.insert(read_ns.end(), o.read_ns.begin(), o.read_ns.end());
    late_ns.insert(late_ns.end(), o.late_ns.begin(), o.late_ns.end());
    attempted += o.attempted;
    failed += o.failed;
    elapsed_us += o.elapsed_us;
    requests += o.requests;
    attempts += o.attempts;
    timeouts += o.timeouts;
    redirects += o.redirects;
  }
};

struct Session {
  int index{0};
  std::unique_ptr<kv::KvClient> client;
  Rng rng;
  std::uint64_t counter{0};
  /// key -> (last issued value, was that write acked?). Keys carry the
  /// session index, so each session alone decides its keys' final state.
  std::map<std::string, std::pair<std::string, bool>> last_write;
};

std::string key_name(int session, int k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "s%02d.k%06d", session, k);
  return buf;
}

/// A value of exactly `bytes` bytes, unique per (session, counter), so a
/// read-back cannot be fooled by an older identical write.
std::string value_for(int session, std::uint64_t counter, int bytes) {
  std::string v(static_cast<std::size_t>(bytes), 'v');
  const std::string tag =
      std::to_string(session) + "." + std::to_string(counter) + ".";
  v.replace(0, std::min(tag.size(), v.size()), tag, 0,
            std::min(tag.size(), v.size()));
  return v;
}

std::int64_t percentile(std::vector<std::int64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

/// First-success times after a kill, min-reduced across session threads.
struct Recovery {
  std::atomic<std::int64_t> kill_mono{0};
  std::atomic<std::int64_t> first_write{0};
  std::atomic<std::int64_t> first_read{0};
  std::atomic<std::int64_t> first_lease_read{0};

  static void note(std::atomic<std::int64_t>& slot, std::int64_t t) {
    std::int64_t cur = slot.load();
    while ((cur == 0 || t < cur) && !slot.compare_exchange_weak(cur, t)) {
    }
  }
};

class Generator {
 public:
  void servers(const std::string& list) {
    sessions_.clear();
    servers_.clear();
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
      auto p = transport::parse_peer_addr(item);
      if (p) servers_.push_back(*p);
    }
    reply("{\"ok\":" + std::string(servers_.size() == 3 ? "true" : "false") +
          "}");
  }

  void probe(std::uint64_t session) {
    kv::KvClient::Config cc;
    cc.servers = servers_;
    cc.session = session;
    // Short per-attempt timeout: a request sent before a node has bound its
    // port is lost, and the probe should not pay 200 ms for it.
    cc.request_timeout = msec(10);
    cc.max_attempts = 3000;
    kv::KvClient c(cc);
    std::string err;
    const std::int64_t give_up = mono_us() + sec(30);
    bool ok = c.connect(&err) && c.open_session(&err);
    while (ok && c.put("probe", "1") != kv::Status::kOk) {
      ok = mono_us() < give_up;
    }
    const std::int64_t write_mono = mono_us();
    std::int64_t read_mono = 0;
    while (ok && read_mono == 0 && mono_us() < give_up) {
      kv::Op op;
      op.op = kv::OpKind::kGet;
      op.key = "probe";
      auto r = c.execute({op});
      if (r && r->status == kv::Status::kOk && r->applied_slot == -1) {
        read_mono = mono_us();
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ok = ok && read_mono != 0;
    reply("{\"ok\":" + std::string(ok ? "true" : "false") +
          ",\"write_mono_us\":" + std::to_string(write_mono) +
          ",\"ready_mono_us\":" + std::to_string(read_mono) + "}");
  }

  void open_sessions(int n, std::uint64_t seed, std::uint64_t cluster) {
    sessions_.clear();
    std::vector<std::thread> ts;
    std::atomic<int> opened{0};
    for (int i = 0; i < n; ++i) {
      auto s = std::make_unique<Session>();
      s->index = i;
      s->rng.reseed(mix(seed, static_cast<std::uint64_t>(i) + 1));
      kv::KvClient::Config cc;
      cc.servers = servers_;
      // Unique within the cluster (a fresh one every time), nonzero.
      cc.session = (mix(seed, cluster) & 0xFFFF'FFFF'FFFF'FF00ULL) |
                   static_cast<std::uint64_t>(i + 1);
      // A retry every 50 ms (the client default is 200 ms) keeps the
      // failover gap a measure of the service rather than of the client's
      // retry quantum. The budget outlasts a failover; an exhausted one is
      // counted as a failed op.
      cc.request_timeout = msec(50);
      cc.max_attempts = 100;
      s->client = std::make_unique<kv::KvClient>(cc);
      sessions_.push_back(std::move(s));
    }
    for (auto& s : sessions_) {
      ts.emplace_back([&opened, sp = s.get()] {
        std::string err;
        if (sp->client->connect(&err) && sp->client->open_session(&err)) {
          ++opened;
        }
      });
    }
    for (auto& t : ts) t.join();
    reply("{\"ok\":" + std::string(opened == n ? "true" : "false") + "}");
  }

  void phase(const PhaseSpec& spec) {
    Recovery rec;
    std::atomic<bool> stop{false};
    std::vector<Samples> per(sessions_.size());
    const KeyPicker picker(spec.keys, spec.zipf);
    const auto n = static_cast<int>(sessions_.size());
    const std::int64_t start = mono_us() + 1000;
    const std::int64_t start_wall = wall_us() + 1000;
    const std::int64_t cap = start + spec.ms * 1000;
    const bool with_kill = spec.kill_after_ms >= 0;
    const std::int64_t interval_us =
        spec.open_loop && spec.rate > 0
            ? static_cast<std::int64_t>(1e6 * n / spec.rate)
            : 0;

    std::vector<std::thread> ts;
    for (int i = 0; i < n; ++i) {
      ts.emplace_back([&, i] {
        Session& s = *sessions_[static_cast<std::size_t>(i)];
        Samples& out = per[static_cast<std::size_t>(i)];
        const kv::KvClient::Stats before = s.client->stats();
        sleep_until_mono(start);
        for (std::int64_t k = 0;; ++k) {
          std::int64_t due = 0;
          if (spec.open_loop) {
            due = start + interval_us * i / n + interval_us * k;
            if (due >= cap || stop.load()) break;
            sleep_until_mono(due);
          } else if (mono_us() >= cap || stop.load()) {
            break;
          }
          one_op(s, spec, picker, due, out, rec);
        }
        const kv::KvClient::Stats& after = s.client->stats();
        out.requests = after.requests - before.requests;
        out.attempts = after.attempts - before.attempts;
        out.timeouts = after.timeouts - before.timeouts;
        out.redirects = after.redirects - before.redirects;
      });
    }

    std::int64_t kill_wall = 0;
    bool recovered = !with_kill;
    if (with_kill) {
      sleep_until_mono(start + spec.kill_after_ms * 1000);
      kill_wall = wall_us();
      rec.kill_mono = mono_us();
      ::kill(spec.victim_pid, SIGKILL);
      while (mono_us() < cap) {
        if (rec.first_write.load() != 0 && rec.first_lease_read.load() != 0) {
          recovered = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (recovered) sleep_until_mono(mono_us() + spec.linger_ms * 1000);
      stop = true;
    }
    for (auto& t : ts) t.join();
    const std::int64_t end = mono_us();

    Samples total;
    for (const Samples& s : per) total.merge(s);
    total.elapsed_us = end - start;
    samples_[spec.tag].merge(total);

    auto rel = [&](const std::atomic<std::int64_t>& t) {
      return t.load() == 0 ? -1 : t.load() - rec.kill_mono.load();
    };
    std::ostringstream os;
    os << "{\"ok\":true,\"attempted\":" << total.attempted
       << ",\"failed\":" << total.failed
       << ",\"writes\":" << total.write_ns.size()
       << ",\"reads\":" << total.read_ns.size()
       << ",\"elapsed_us\":" << total.elapsed_us
       << ",\"start_wall_us\":" << start_wall
       << ",\"end_wall_us\":" << start_wall + (end - start)
       << ",\"recovered\":" << (recovered ? "true" : "false")
       << ",\"kill_wall_us\":" << kill_wall
       << ",\"write_after_kill_us\":" << rel(rec.first_write)
       << ",\"read_after_kill_us\":" << rel(rec.first_read)
       << ",\"lease_read_after_kill_us\":" << rel(rec.first_lease_read)
       << "}";
    reply(os.str());
  }

  void stats(const std::string& tag) {
    Samples& s = samples_[tag];
    std::ostringstream os;
    os << std::fixed << std::setprecision(3);
    os << "{\"ok\":true,\"attempted\":" << s.attempted
       << ",\"failed\":" << s.failed << ",\"elapsed_us\":" << s.elapsed_us
       << ",\"writes\":" << s.write_ns.size()
       << ",\"reads\":" << s.read_ns.size()
       << ",\"write_p50_us\":" << percentile(s.write_ns, 50) / 1e3
       << ",\"write_p99_us\":" << percentile(s.write_ns, 99) / 1e3
       << ",\"read_p50_us\":" << percentile(s.read_ns, 50) / 1e3
       << ",\"read_p99_us\":" << percentile(s.read_ns, 99) / 1e3
       << ",\"late_n\":" << s.late_ns.size()
       << ",\"late_p99_us\":" << percentile(s.late_ns, 99) / 1e3
       << ",\"requests\":" << s.requests << ",\"attempts\":" << s.attempts
       << ",\"timeouts\":" << s.timeouts << ",\"redirects\":" << s.redirects
       << "}";
    samples_.erase(tag);
    reply(os.str());
  }

  /// Reads back every acked write, kReadBatch keys per request so the
  /// check stays short next to the measured window.
  void verify(const std::string& tag) {
    constexpr std::size_t kReadBatch = 32;
    std::vector<std::int64_t> lost(sessions_.size(), 0);
    std::vector<Samples> per(sessions_.size());
    std::vector<std::thread> ts;
    const std::int64_t start = mono_us();
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      ts.emplace_back([&, i] {
        Session& s = *sessions_[i];
        std::vector<std::pair<std::string, std::string>> want;
        for (const auto& [key, vw] : s.last_write) {
          // A key whose last issued write was not acked is ambiguous.
          if (vw.second) want.emplace_back(key, vw.first);
        }
        for (std::size_t b = 0; b < want.size(); b += kReadBatch) {
          const std::size_t e = std::min(want.size(), b + kReadBatch);
          std::vector<kv::Op> ops;
          for (std::size_t k = b; k < e; ++k) {
            kv::Op op;
            op.op = kv::OpKind::kGet;
            op.key = want[k].first;
            ops.push_back(std::move(op));
          }
          const auto r = s.client->execute(std::move(ops));
          per[i].attempted += static_cast<std::int64_t>(e - b);
          const bool ok = r && r->status == kv::Status::kOk &&
                          r->results.size() == e - b;
          if (!ok) per[i].failed += static_cast<std::int64_t>(e - b);
          for (std::size_t k = b; k < e; ++k) {
            if (ok && r->results[k - b].status == kv::Status::kOk &&
                r->results[k - b].value == want[k].second) {
              continue;
            }
            if (lost[i] < 3) {
              std::cerr << "kvbench_load: LOST acked write " << want[k].first
                        << "\n";
            }
            ++lost[i];
          }
        }
      });
    }
    for (auto& t : ts) t.join();
    Samples total;
    for (const Samples& s : per) total.merge(s);
    total.elapsed_us = mono_us() - start;
    samples_[tag].merge(total);
    std::int64_t l = 0;
    for (const std::int64_t x : lost) l += x;
    reply("{\"ok\":true,\"checked\":" + std::to_string(total.attempted) +
          ",\"lost\":" + std::to_string(l) + "}");
  }

  /// Mean cost of the store and codec calls a node makes per client op,
  /// measured on this workload's own commands (same key/op/value shape).
  void micro(const PhaseSpec& spec, std::uint64_t seed) {
    constexpr std::size_t kOps = 4096;
    Rng rng(mix(seed, 0x6D6963726FULL));
    const KeyPicker picker(spec.keys, spec.zipf);
    std::vector<kv::Cmd> writes;
    std::vector<std::string> read_keys;
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<Message> msgs;
    for (std::size_t i = 0; i < kOps; ++i) {
      const std::string key = key_name(0, picker.pick(rng));
      const bool is_read =
          static_cast<int>(rng.below(100)) < spec.read_pct;
      kv::Op op;
      op.key = key;
      if (is_read) {
        op.op = kv::OpKind::kGet;
        read_keys.push_back(key);
      } else {
        op.op = kv::OpKind::kPut;
        op.seq = i + 1;
        op.value = value_for(0, i, spec.value_bytes);
        kv::Cmd c;
        c.session = 1;
        c.op = kv::OpKind::kPut;
        c.key = key;
        c.value = op.value;
        writes.push_back(std::move(c));
      }
      kv::Request req;
      req.session = 1;
      req.tag = i + 1;
      req.ops.push_back(std::move(op));
      Message m = Message::make<kv::Request>(protocol_ids::kKvService,
                                             kv::kMsgClientRequest,
                                             "kv.request", std::move(req));
      m.src = kNoProcess;
      m.dst = 0;
      std::vector<std::uint8_t> frame;
      if (!wire::encode_message(m, &frame)) {
        reply("{\"ok\":false}");
        return;
      }
      frames.push_back(std::move(frame));
      msgs.push_back(std::move(m));
    }
    if (read_keys.empty()) read_keys.push_back(key_name(0, 0));
    if (writes.empty()) {
      kv::Cmd c;
      c.session = 1;
      c.op = kv::OpKind::kPut;
      c.key = key_name(0, 0);
      c.value = value_for(0, 0, spec.value_bytes);
      writes.push_back(std::move(c));
    }

    const std::int64_t budget_ns = spec.ms * 1'000'000 / 4;
    std::uint64_t sink = 0;
    // Runs body(i) over the prepared inputs, round robin, for the budget;
    // returns mean ns per call.
    auto time_calls = [&](std::size_t n_inputs, auto&& body) {
      std::int64_t calls = 0;
      const std::int64_t t0 = mono_ns();
      std::int64_t t1 = t0;
      while (t1 - t0 < budget_ns) {
        for (std::size_t i = 0; i < n_inputs; ++i) body(i);
        calls += static_cast<std::int64_t>(n_inputs);
        t1 = mono_ns();
      }
      return static_cast<double>(t1 - t0) / static_cast<double>(calls);
    };

    kv::KvStore store;
    kv::Cmd open;
    open.session = 1;
    open.op = kv::OpKind::kOpenSession;
    store.apply(open);
    std::uint64_t seq = 0;
    const double apply_ns = time_calls(writes.size(), [&](std::size_t i) {
      writes[i].seq = ++seq;
      sink += store.apply(writes[i]).value.size();
    });
    const double read_ns = time_calls(read_keys.size(), [&](std::size_t i) {
      sink += store.read(read_keys[i]).value.size();
    });
    std::vector<std::uint8_t> out;
    const double encode_ns = time_calls(msgs.size(), [&](std::size_t i) {
      out.clear();
      wire::encode_message(msgs[i], &out);
      sink += out.size();
    });
    const double decode_ns = time_calls(frames.size(), [&](std::size_t i) {
      auto m = wire::decode_message(frames[i]);
      sink += m ? 1 : 0;
    });
    std::ostringstream os;
    os << std::fixed << std::setprecision(3);
    os << "{\"ok\":true,\"apply_ns\":" << apply_ns
       << ",\"read_ns\":" << read_ns << ",\"encode_ns\":" << encode_ns
       << ",\"decode_ns\":" << decode_ns << ",\"sink\":" << sink << "}";
    reply(os.str());
  }

 private:
  void one_op(Session& s, const PhaseSpec& spec, const KeyPicker& picker,
              std::int64_t due, Samples& out, Recovery& rec) {
    const int k = picker.pick(s.rng);
    const bool is_read = static_cast<int>(s.rng.below(100)) < spec.read_pct;
    kv::Op op;
    op.key = key_name(s.index, k);
    if (is_read) {
      op.op = kv::OpKind::kGet;
    } else {
      op.op = kv::OpKind::kPut;
      op.value = value_for(s.index, ++s.counter, spec.value_bytes);
      s.last_write[op.key] = {op.value, false};
    }
    const std::string key = op.key;
    const std::int64_t t0 = mono_ns();
    const std::int64_t due_ns = due * 1000;
    // Lateness judges the generator, so only sends due while the cluster
    // was whole count; after a kill every session waits on the outage.
    if (due != 0 && rec.kill_mono.load() == 0) {
      out.late_ns.push_back(t0 - due_ns);
    }
    ++out.attempted;
    const auto r = s.client->execute({std::move(op)});
    const std::int64_t t1_ns = mono_ns();
    const std::int64_t t1 = t1_ns / 1000;
    const std::int64_t lat = t1_ns - (due != 0 ? due_ns : t0);
    const bool ok = r && r->status == kv::Status::kOk &&
                    r->results.size() == 1 &&
                    (r->results[0].status == kv::Status::kOk ||
                     (is_read && r->results[0].status == kv::Status::kNotFound));
    if (!ok) {
      ++out.failed;
      return;
    }
    if (is_read) {
      out.read_ns.push_back(lat);
    } else {
      out.write_ns.push_back(lat);
      s.last_write[key].second = true;
    }
    const std::int64_t kill = rec.kill_mono.load();
    if (kill != 0 && t1 > kill && s.client->target() != spec.victim_id) {
      Recovery::note(is_read ? rec.first_read : rec.first_write, t1);
      if (is_read && r->applied_slot == -1) {
        Recovery::note(rec.first_lease_read, t1);
      }
    }
  }

  static void reply(const std::string& line) {
    std::cout << line << std::endl;
  }

  std::vector<transport::PeerAddr> servers_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::map<std::string, Samples> samples_;
};

PhaseSpec parse_spec(std::istringstream& in, std::uint64_t* seed) {
  PhaseSpec s;
  std::string kv;
  while (in >> kv) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos) continue;
    const std::string k = kv.substr(0, eq);
    const std::string v = kv.substr(eq + 1);
    if (k == "tag") s.tag = v;
    else if (k == "loop") s.open_loop = v == "open";
    else if (k == "ms") s.ms = std::stoll(v);
    else if (k == "rate") s.rate = std::stod(v);
    else if (k == "read_pct") s.read_pct = std::stoi(v);
    else if (k == "keys") s.keys = std::max(1, std::stoi(v));
    else if (k == "zipf") s.zipf = std::stod(v);
    else if (k == "value_bytes") s.value_bytes = std::stoi(v);
    else if (k == "kill_after_ms") s.kill_after_ms = std::stoll(v);
    else if (k == "victim_pid") s.victim_pid = std::stoi(v);
    else if (k == "victim_id") s.victim_id = std::stoi(v);
    else if (k == "linger_ms") s.linger_ms = std::stoll(v);

    else if (k == "seed" && seed != nullptr) *seed = std::stoull(v);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--build-info") {
#ifdef __OPTIMIZE__
    std::cout << "{\"optimized\":true}" << std::endl;
#else
    std::cout << "{\"optimized\":false}" << std::endl;
#endif
    return 0;
  }
  // A killed node must not take the generator with it.
  ::signal(SIGPIPE, SIG_IGN);
  Generator gen;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    try {
      if (cmd == "servers") {
        std::string list;
        in >> list;
        gen.servers(list);
      } else if (cmd == "probe") {
        std::uint64_t session = 0;
        in >> session;
        gen.probe(session);
      } else if (cmd == "sessions") {
        int n = 0;
        std::uint64_t seed = 0;
        std::uint64_t cluster = 0;
        in >> n >> seed >> cluster;
        gen.open_sessions(n, seed, cluster);
      } else if (cmd == "phase") {
        gen.phase(parse_spec(in, nullptr));
      } else if (cmd == "stats") {
        std::string tag;
        in >> tag;
        gen.stats(tag);
      } else if (cmd == "verify") {
        std::string tag;
        in >> tag;
        gen.verify(tag);
      } else if (cmd == "micro") {
        std::uint64_t seed = 1;
        const PhaseSpec spec = parse_spec(in, &seed);
        gen.micro(spec, seed);
      } else if (cmd == "quit") {
        break;
      } else {
        std::cout << "{\"ok\":false,\"error\":\"unknown command\"}"
                  << std::endl;
      }
    } catch (const std::exception& e) {
      std::cout << "{\"ok\":false,\"error\":\"bad arguments\"}" << std::endl;
    }
  }
  return 0;
}
