// ecfd_node — one process of a real failure-detector cluster, over UDP.
//
// Loads a shared INI config (transport/node_config.hpp), binds its own row
// of the peer table, instantiates a failure-detector stack (optionally with
// the paper's ◇C consensus engine on top), and periodically prints its
// output — so a shell can launch n OS processes, `kill -9` one, and watch
// the survivors' suspicion (and, with --consensus, a decision) happen over
// a real lossy network:
//
//   ecfd_node --config cluster.ini --id 0 [--fd F] [--backend B]
//             [--consensus] [--kv] [--propose V] [--run-ms MS]
//             [--report-ms MS] [--verbose] [--metrics-port P]
//             [--metrics FILE] [--trace FILE]
//
//   --fd F       a stack of the shared registry (consensus/fd_stacks.hpp)
//                that runs over UDP, built with the config's [cluster]
//                timings: ring, heartbeat_p, omega_heartbeat, efficient_p,
//                heartbeat_adaptive, stable_leader (ADFT stable Omega;
//                suspects everyone but the leader) and ecfd (the paper's
//                stack: stable Omega -> Fig. 2 -> ◇P); CLI aliases work
//                too (overrides the config's `fd` key). The script, hier_c
//                and swim are sim-only.
//   --backend B  poll          poll(2) + sendmmsg/recvmmsg UDP event loop
//                uring         io_uring: multishot receive into registered
//                              buffers, one submit syscall per tick of
//                              sends; degrades to poll (with a stderr
//                              note) when the kernel lacks io_uring or
//                              the backend was compiled out (ECFD_URING)
//                (overrides the config's `backend` key)
//   --consensus  run ConsensusC on the ◇C view; propose --propose (default:
//                this node's id) once the cluster has had a moment to form
//   --kv         serve the replicated key-value store (kv/service.hpp) on
//                this node: client frames arrive on the same UDP port as
//                peer traffic (src = kNoProcess routes them to the
//                service), writes commit through LogReplica consensus
//                slots, reads are leader-lease-local when ◇C allows.
//                Tunables come from the config's [kv] section.
//   --run-ms     exit after this long (default: run until killed)
//   --report-ms  output period (default 500)
//   --metrics-port P  serve the live registry over HTTP on 127.0.0.1:P:
//                GET /metrics       Prometheus text exposition
//                GET /metrics.json  ecfd.metrics.v1 JSON
//                GET /metrics.txt   human-readable counter dump
//                GET /qos           per-peer FD QoS scoreboard (needs a
//                                   recorder: --trace or --postmortem)
//   --metrics FILE  write the final registry as ecfd.metrics.v1 JSON
//   --trace FILE  record typed events and write this node's ecfd.trace.v1
//                timeline at exit; merge the per-node files with
//                tools/ecfd_trace (wall-clock epochs align them)
//   --postmortem FILE  keep an mmap-backed ecfd.postmortem.v1 flight
//                image at FILE: ring snapshots + metrics are refreshed
//                every report period and on SIGSEGV/SIGABRT/SIGBUS, so
//                the file survives the crash; render it afterwards with
//                ecfd_trace --postmortem FILE
//
// Output: one JSON line per report period on stdout,
//   {"t_ms":1500,"node":0,"fd":"ecfd","suspected":[2],"trusted":1,
//    "decided":null,"sent":123,"recv":119}
//
// Exit code: 0 on clean --run-ms exit, 2 on usage/config errors.
// See README.md ("Real-network quickstart") and examples/cluster_demo.sh.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>

#include "broadcast/reliable_broadcast.hpp"
#include "consensus/fd_stacks.hpp"
#include "core/consensus_c.hpp"
#include "core/replicated_log.hpp"
#include "kv/service.hpp"
#include "obs/flight.hpp"
#include "obs/http_export.hpp"
#include "obs/qos.hpp"
#include "transport/dgram_env.hpp"
#include "transport/node_config.hpp"

using namespace ecfd;
using consensus::FdInstallation;
using transport::DgramEnv;
using transport::NodeConfig;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

/// The --fd values this node accepts: the registry stacks that run over UDP.
std::string fd_choices() {
  std::string out;
  for (const consensus::FdStackInfo& info : consensus::all_fd_stacks()) {
    if (!info.udp) continue;
    out += out.empty() ? "" : " | ";
    out += info.name;
  }
  return out;
}

void usage() {
  std::cout <<
      "ecfd_node — failure detection over real UDP sockets\n"
      "\n"
      "  --config FILE   cluster config (required; see README quickstart)\n"
      "  --id N          which peer-table row is this process (required)\n"
      "  --fd F          " << fd_choices() << "\n"
      "  --backend B     poll | uring (uring degrades to poll when missing)\n"
      "  --consensus     also run the ◇C consensus engine\n"
      "  --kv            serve the replicated key-value store ([kv] config)\n"
      "  --propose V     consensus proposal (default: node id)\n"
      "  --run-ms MS     exit after MS ms (default: until SIGINT/SIGTERM)\n"
      "  --report-ms MS  report period (default 500)\n"
      "  --verbose       trace protocol events to stderr\n"
      "  --metrics-port P  serve /metrics (Prometheus), /metrics.json,\n"
      "                  /metrics.txt and /qos over HTTP on 127.0.0.1:P\n"
      "  --metrics FILE  write final counters as ecfd.metrics.v1 JSON\n"
      "  --trace FILE    write this node's ecfd.trace.v1 timeline at exit\n"
      "  --postmortem FILE  keep a crash-surviving ecfd.postmortem.v1\n"
      "                  flight image at FILE (ecfd_trace --postmortem)\n";
}

std::string report_line(TimeUs t, ProcessId self, const std::string& fd,
                        const char* backend, const FdInstallation& stack,
                        const consensus::ConsensusProtocol* cons,
                        const kv::KvService* kvs,
                        obs::MetricsRegistry& counters, int n) {
  std::string out = "{\"t_ms\":" + std::to_string(t / 1000) +
                    ",\"node\":" + std::to_string(self) + ",\"fd\":\"" + fd +
                    "\",\"backend\":\"" + backend + "\"";
  out += ",\"suspected\":[";
  bool first = true;
  for (const ProcessId q : stack.suspect->suspected().members()) {
    if (!first) out += ",";
    out += std::to_string(q);
    first = false;
  }
  out += "]";
  out += ",\"trusted\":" + std::to_string(stack.leader->trusted());
  out += ",\"decided\":";
  out += (cons != nullptr && cons->has_decided())
             ? std::to_string(cons->decision()->value)
             : std::string("null");
  if (kvs != nullptr) {
    out += ",\"kv\":{\"applied\":" + std::to_string(kvs->applied_slot()) +
           ",\"keys\":" + std::to_string(kvs->store().size()) +
           ",\"lease\":" + (kvs->lease_valid() ? "true" : "false") +
           ",\"leader\":" + (kvs->is_leader() ? "true" : "false") + "}";
  }
  std::int64_t sent = 0;
  std::int64_t recv = 0;
  for (ProcessId q = 0; q < n; ++q) {
    sent += counters.get("net.sent.p" + std::to_string(q));
    recv += counters.get("net.recv.p" + std::to_string(q));
  }
  out += ",\"sent\":" + std::to_string(sent) +
         ",\"recv\":" + std::to_string(recv) + "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  int id = -1;
  std::string fd_override;
  std::string backend_override;
  bool consensus_flag = false;
  bool kv_flag = false;
  std::optional<consensus::Value> propose;
  std::int64_t run_ms = -1;
  std::int64_t report_ms = 500;
  bool verbose = false;
  int metrics_port = -1;
  std::string metrics_path;
  std::string trace_path;
  std::string postmortem_path;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (a == "--config") {
      config_path = next();
    } else if (a == "--id") {
      id = std::stoi(next());
    } else if (a == "--fd") {
      fd_override = next();
    } else if (a == "--backend") {
      backend_override = next();
    } else if (a == "--consensus") {
      consensus_flag = true;
    } else if (a == "--kv") {
      kv_flag = true;
    } else if (a == "--propose") {
      propose = std::stoll(next());
    } else if (a == "--run-ms") {
      run_ms = std::stoll(next());
    } else if (a == "--report-ms") {
      report_ms = std::stoll(next());
    } else if (a == "--verbose") {
      verbose = true;
    } else if (a == "--metrics-port") {
      metrics_port = std::stoi(next());
    } else if (a == "--metrics") {
      metrics_path = next();
    } else if (a == "--trace") {
      trace_path = next();
    } else if (a == "--postmortem") {
      postmortem_path = next();
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      usage();
      return 2;
    }
  }
  if (config_path.empty() || id < 0) {
    usage();
    return 2;
  }

  std::string error;
  const auto cfg = transport::load_node_config(config_path, &error);
  if (!cfg) {
    std::cerr << "ecfd_node: " << error << "\n";
    return 2;
  }
  if (id >= cfg->n()) {
    std::cerr << "ecfd_node: --id " << id << " out of range (n=" << cfg->n()
              << ")\n";
    return 2;
  }
  const std::string fd_name = fd_override.empty() ? cfg->fd : fd_override;
  const bool want_consensus = consensus_flag || cfg->consensus;

  const std::string backend_name =
      backend_override.empty() ? cfg->backend : backend_override;
  const auto backend = transport::parse_backend(backend_name);
  if (!backend) {
    std::cerr << "ecfd_node: unknown backend '" << backend_name
              << "' (poll | uring)\n";
    return 2;
  }

  DgramEnv::Options opts;
  opts.self = id;
  opts.peers = cfg->peers;
  opts.seed = cfg->seed;
  opts.loss = cfg->loss;
  opts.min_extra_delay = cfg->min_delay;
  opts.max_extra_delay = cfg->max_delay;
  opts.trace_to_stderr = verbose;
  opts.net = transport::net_tuning_from(*cfg);

  std::string note;
  auto env_ptr = transport::make_net_env(*backend, std::move(opts), &error,
                                         &note);
  if (env_ptr == nullptr) {
    std::cerr << "ecfd_node: " << error << "\n";
    return 2;
  }
  if (!note.empty()) std::cerr << "ecfd_node: " << note << "\n";
  DgramEnv& env = *env_ptr;

  // A recorder feeds the trace file, the flight recorder AND the live QoS
  // scoreboard, so any of those features turns it on.
  std::unique_ptr<obs::Recorder> recorder;
  if (!trace_path.empty() || !postmortem_path.empty() || metrics_port >= 0) {
    recorder = std::make_unique<obs::Recorder>(4096);
    env.attach_recorder(recorder.get());
  }

  // Live per-peer QoS scoreboard (Chen/Toueg/Aguilera estimators), fed by
  // draining this node's state ring on the report timer. qos_mu covers the
  // scoreboard against the HTTP thread reading /qos; the registry cells it
  // updates are atomics and need no lock.
  obs::QosScoreboard qos(cfg->n());
  std::mutex qos_mu;
  std::uint64_t qos_next_seq = 0;
  std::vector<obs::Event> qos_events;
  std::vector<std::uint64_t> qos_seqs;
  if (recorder != nullptr) qos.bind_metrics(&env.metrics());
  auto drain_qos = [&]() {
    if (recorder == nullptr) return;
    const std::lock_guard<std::mutex> lock(qos_mu);
    recorder->state_ring(id).snapshot(&qos_events, &qos_seqs);
    for (std::size_t i = 0; i < qos_events.size(); ++i) {
      if (qos_seqs[i] < qos_next_seq) continue;
      qos.ingest(qos_events[i]);
    }
    if (!qos_seqs.empty()) qos_next_seq = qos_seqs.back() + 1;
    qos.export_gauges(id, env.now());
  };

  // Crash flight recorder: an mmap-backed postmortem image refreshed every
  // report period; the signal handler re-dumps the rings at the moment of
  // death, and MAP_SHARED dirty pages survive the process.
  obs::FlightRecorder flight;
  if (!postmortem_path.empty()) {
    if (!flight.open(postmortem_path, recorder.get(), id, &error)) {
      std::cerr << "ecfd_node: " << error << "\n";
      return 2;
    }
    flight.set_metrics(&env.metrics());
    obs::FlightRecorder::install_crash_handler(&flight);
  }

  obs::MetricsHttpServer http;
  if (metrics_port >= 0) {
    http.handle("/metrics", "text/plain; version=0.0.4", [&env]() {
      std::ostringstream os;
      env.metrics().write_prometheus(os);
      return os.str();
    });
    http.handle("/metrics.json", "application/json", [&env]() {
      std::ostringstream os;
      env.metrics().write_json(os, "ecfd_node");
      return os.str();
    });
    http.handle("/metrics.txt", "text/plain", [&env]() {
      std::ostringstream os;
      env.metrics().write_text(os);
      return os.str();
    });
    http.handle("/qos", "text/plain", [&qos, &qos_mu]() {
      std::ostringstream os;
      const std::lock_guard<std::mutex> lock(qos_mu);
      qos.write_table(os);
      return os.str();
    });
    if (!http.start(metrics_port, &error)) {
      std::cerr << "ecfd_node: " << error << "\n";
      return 2;
    }
  }

  const consensus::FdStackInfo* fd_info = consensus::fd_stack_by_name(fd_name);
  if (fd_info == nullptr || !fd_info->udp) {
    std::cerr << "ecfd_node: " << (fd_info == nullptr ? "unknown" : "sim-only")
              << " fd '" << fd_name << "' (" << fd_choices() << ")\n";
    return 2;
  }
  consensus::FdTimings timings;
  timings.period = cfg->period;
  timings.initial_timeout = cfg->initial_timeout;
  timings.timeout_increment = cfg->timeout_increment;
  const FdInstallation stack =
      consensus::install_fd_stack(fd_info->id, env, timings);

  core::ConsensusC* cons = nullptr;
  if (want_consensus) {
    auto& rb = env.emplace<broadcast::ReliableBroadcast>();
    core::ConsensusC::Config cc;
    cc.poll_period = cfg->period / 2 > 0 ? cfg->period / 2 : msec(1);
    cons = &env.emplace<core::ConsensusC>(stack.ecfd, &rb, cc);
  }

  // The replicated key-value service: a LogReplica (one consensus + RB
  // pair per slot), a dedicated RB instance for batch bodies, and the
  // service protocol that ties them to external clients.
  std::unique_ptr<core::LogReplica> kv_log;
  kv::KvService* kvs = nullptr;
  if (kv_flag || cfg->kv_enabled) {
    core::LogReplica::Config lc;
    lc.capacity = cfg->kv_capacity;
    lc.pipeline_depth = cfg->kv_pipeline_depth;
    lc.quiescent = true;  // a bounded service log must not idle-burn slots
    lc.consensus.poll_period = cfg->period / 2 > 0 ? cfg->period / 2 : msec(1);
    kv_log = std::make_unique<core::LogReplica>(env, stack.ecfd, lc);

    auto& batch_rb =
        env.emplace<broadcast::ReliableBroadcast>(protocol_ids::kKvBatchRb);
    kv::KvService::Config kc;
    kc.batch_max_ops = static_cast<std::size_t>(cfg->kv_batch_max_ops);
    kc.batch_wait = cfg->kv_batch_wait;
    kc.lease_establish = cfg->kv_lease_establish;
    kc.snapshot_every = cfg->kv_snapshot_every;
    kc.dedup_window = static_cast<std::size_t>(cfg->kv_dedup_window);
    kvs = &env.emplace<kv::KvService>(stack.ecfd, kv_log.get(), &batch_rb, kc);
    kvs->bind_metrics(&env.metrics());
    kvs->set_reply_sink([&env](kv::KvService::Token token,
                               const kv::Reply& r) {
      env.send_external(token, Message::make<kv::Reply>(
                                   protocol_ids::kKvService,
                                   kv::kMsgClientReply, "kv.reply", r));
    });
    env.set_external_handler(
        [kvs](DgramEnv::ExternalToken token, const Message& m) {
          if (m.protocol == protocol_ids::kKvService &&
              m.type == kv::kMsgClientRequest && m.has_payload()) {
            kvs->handle_request(token, m.as<kv::Request>());
          }
        });
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  env.start();

  // Report timer: one JSON line per period, re-armed forever. The same
  // tick drains the state ring into the QoS scoreboard and refreshes the
  // flight image, so the postmortem is never staler than one period.
  std::function<void()> report = [&]() {
    std::cout << report_line(env.now(), id, fd_name, env.backend_name(),
                             stack, cons, kvs, env.counters(), env.n())
              << std::endl;  // flush: readers are pipes and demo scripts
    drain_qos();
    if (flight.is_open()) flight.snapshot(env.now());
    env.set_timer(msec(report_ms), report);
  };
  env.set_timer(msec(report_ms), report);

  if (cons != nullptr) {
    // Propose after a grace period so the detector has formed an opinion;
    // the engine copes either way, this just reduces round churn.
    env.set_timer(msec(500), [&]() {
      cons->propose(propose.value_or(static_cast<consensus::Value>(id)));
    });
  }

  // Signal poller: the env is single-threaded, so a timer is the clean
  // place to notice SIGINT/SIGTERM and stop the loop.
  std::function<void()> watch_signals = [&]() {
    if (g_stop) {
      env.stop();
      return;
    }
    env.set_timer(msec(50), watch_signals);
  };
  env.set_timer(msec(50), watch_signals);

  if (run_ms >= 0) {
    env.run_for(msec(run_ms));
  } else {
    while (!g_stop) env.run_for(sec(3600));
  }

  std::cout << report_line(env.now(), id, fd_name, env.backend_name(),
                           stack, cons, kvs, env.counters(), env.n())
            << std::endl;

  // Orderly teardown of the observability tier: final QoS drain, final
  // flight snapshot (no crash signal stamped), handler deregistered before
  // the flight image unmaps, HTTP server stopped and joined.
  drain_qos();
  if (flight.is_open()) {
    flight.snapshot(env.now());
    obs::FlightRecorder::install_crash_handler(nullptr);
    flight.close();
  }
  http.stop();

  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    if (!os) {
      std::cerr << "ecfd_node: cannot open " << metrics_path << "\n";
      return 2;
    }
    env.metrics().write_json(os, "ecfd_node");
  }
  if (recorder != nullptr && !trace_path.empty()) {
    std::ofstream os(trace_path);
    if (!os) {
      std::cerr << "ecfd_node: cannot open " << trace_path << "\n";
      return 2;
    }
    recorder->write_trace_json(os);
  }
  return 0;
}
