// necd — the NEC protection daemon.
//
// Spins up N concurrent protection sessions (one per monitored room /
// recorder, each enrolled on its own target speaker), drives synthetic
// monitored streams through the nec::runtime SessionManager in
// capture-callback-sized pieces, and prints a runtime stats table:
// aggregate throughput, per-chunk latency quantiles, and the verdict
// against the paper's ~300 ms overshadowing deadline (§IV-C2).
//
//   necd [--sessions N] [--workers K] [--seconds S] [--chunk-s C]
//        [--policy block|reject|drop] [--queue Q] [--las]
//        [--max-batch B] [--deadline-ms D] [--no-pace]
//        [--on-fault fault|degrade] [--degrade] [--reject-bad-input]
//        [--metrics-port P] [--trace-out FILE]
//        [--log-level trace|debug|info|warn|error|off] [--log-json]
//        [--listen PORT] [--route SHARDS] [--model standard|tiny]
//        [--secret S] [--saturate-depth N] [--recover-depth N]
//
// --secret arms the v2 auth handshake on whatever face(s) the process
// serves: a --listen shard challenges its clients, a --route router both
// challenges its clients and answers its shards' challenges. A router's
// /drain?shard=host:port metrics endpoint starts a zero-fault draining
// reshard; --saturate-depth/--recover-depth arm queue-depth admission
// control (shed new sessions with typed kOverload, hysteretic recovery).
//
// The synthetic feed is real-time paced by default: each session receives
// capture-callback-sized pieces at the audio rate, like a live microphone
// — so the latency quantiles mean what they would in deployment. --no-pace
// replays the whole workload as fast as possible instead (offline
// throughput mode; end-to-end latency then measures backlog, not service).
//
// Networked serving (DESIGN.md §5h): --listen turns necd into a shard —
// a TCP server speaking the NEC wire protocol (port 0 = ephemeral; the
// bound port is printed on stdout). Clients open seed-enrolled sessions
// and stream chunks; all runtime machinery (micro-batching, degradation
// ladder, fault containment) applies unchanged. --route turns necd into
// a router instead: SHARDS is a comma-separated list of
// host:port:health_port triples; new wire sessions are consistent-hashed
// onto healthy shards, /healthz probes eject and readmit them, and
// sessions pinned to a dead shard fault with a typed error while the
// rest keep streaming. --model tiny serves an untrained seeded model
// (deterministic, no training cache) for tests and benches.
//
// Observability (DESIGN.md §5g): --metrics-port starts a loopback HTTP
// listener (port 0 = ephemeral; the bound port is printed) serving
//   /metrics       Prometheus text exposition incl. latency histogram
//                  buckets, scrape-ready
//   /metrics.json  the same families as JSON
//   /healthz       liveness + uptime
//   /sessions      per-session status (state, ladder rung, fault) as JSON
//   /trace         live Chrome-trace window of this process's rings
// A router additionally serves /fleet (human table) and /fleet.json —
// every member shard's /metrics scraped and merged: counters summed,
// histograms bucket-merged, per-shard breakdown rows (`necctl top`
// refreshes over it). `necctl stats --url http://127.0.0.1:P` scrapes
// and pretty-prints /metrics. --trace-out enables pipeline tracing
// (spans for every stage and runtime hop, flow arrows linking batched
// chunks) and writes Chrome trace JSON — loadable in Perfetto — after
// the drain; --trace arms the recorder without a dump file so /trace
// serves a live window (`necctl trace` merges those across the fleet).
//
// --max-batch > 1 routes ready chunks through the continuous batcher
// (batched selector forwards across sessions, admitted earliest-deadline-
// first as dispatch slots free; see src/runtime/batcher.h) — per-session
// output stays bit-identical.
//
// Fault tolerance (DESIGN.md §5f): --on-fault picks what a session does
// when a chunk keeps failing — fault (default: the session parks in
// kFaulted, everyone else keeps running) or degrade (step down the
// neural → LAS → silence ladder and keep serving). --degrade arms the
// deadline watchdog so sustained over-budget chunks also step down the
// ladder (with automatic recovery probes back up). --reject-bad-input
// bounces NaN/Inf/wild-amplitude submits with a typed error instead of
// sanitizing them in place. Per-session health lands in the status table.
//
// SIGINT/SIGTERM request a graceful shutdown: the feed loop stops, every
// admitted strand drains, tails flush, and the stats tables still print.
//
// All sessions share one trained Selector/SpeakerEncoder weight set; see
// src/runtime/session_manager.h for the concurrency model.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/model_cache.h"
#include "encoder/encoder.h"
#include "net/fleet.h"
#include "net/net_stats.h"
#include "net/router.h"
#include "net/server.h"
#include "obs/http.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/session_manager.h"
#include "runtime/stats_export.h"
#include "synth/dataset.h"

namespace {

// Set by the SIGINT/SIGTERM handler; the feed loop polls it. sig_atomic_t
// is the only object a signal handler may portably write.
volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

struct Args {
  std::size_t sessions = 8;
  std::size_t workers = std::max(1u, std::thread::hardware_concurrency());
  double seconds = 6.0;
  double chunk_s = 1.0;
  std::size_t queue = 1024;
  nec::runtime::OverflowPolicy policy =
      nec::runtime::OverflowPolicy::kBlock;
  nec::core::SelectorKind kind = nec::core::SelectorKind::kNeural;
  std::size_t max_batch = 1;
  double deadline_ms = 300.0;
  bool pace = true;  ///< feed at the audio rate (false = offline replay)
  nec::runtime::FaultPolicy on_fault = nec::runtime::FaultPolicy::kFault;
  bool degrade_on_deadline = false;
  bool reject_bad_input = false;
  int metrics_port = -1;  ///< -1 = no listener; 0 = ephemeral
  std::string trace_out;  ///< write Chrome trace JSON here after the drain
  bool trace = false;     ///< arm tracing without a dump file (GET /trace)
  nec::obs::LogLevel log_level = nec::obs::LogLevel::kInfo;
  bool log_json = false;
  int listen_port = -1;  ///< >= 0: serve the wire protocol (0 = ephemeral)
  std::string route;     ///< "host:port:health,..." → router mode
  std::string model = "standard";  ///< standard (trained) | tiny (seeded)
  std::string secret;    ///< shared secret for the v2 auth handshake
  /// Router admission control (0 = disabled): shed new sessions from a
  /// shard whose reported queue depth reaches saturate; readmit after
  /// consecutive reports at/below recover.
  std::uint64_t saturate_depth = 0;
  std::uint64_t recover_depth = 0;
};

const char* PolicyName(nec::runtime::OverflowPolicy p) {
  switch (p) {
    case nec::runtime::OverflowPolicy::kBlock: return "block";
    case nec::runtime::OverflowPolicy::kReject: return "reject";
    case nec::runtime::OverflowPolicy::kDropOldest: return "drop-oldest";
  }
  return "?";
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--sessions") {
      args.sessions = std::strtoul(next(), nullptr, 10);
    } else if (flag == "--workers") {
      args.workers = std::strtoul(next(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(next(), nullptr);
    } else if (flag == "--chunk-s") {
      args.chunk_s = std::strtod(next(), nullptr);
    } else if (flag == "--queue") {
      args.queue = std::strtoul(next(), nullptr, 10);
    } else if (flag == "--policy") {
      const std::string p = next();
      if (p == "block") {
        args.policy = nec::runtime::OverflowPolicy::kBlock;
      } else if (p == "reject") {
        args.policy = nec::runtime::OverflowPolicy::kReject;
      } else if (p == "drop") {
        args.policy = nec::runtime::OverflowPolicy::kDropOldest;
      } else {
        std::fprintf(stderr, "unknown policy '%s'\n", p.c_str());
        std::exit(2);
      }
    } else if (flag == "--las") {
      args.kind = nec::core::SelectorKind::kLasMask;
    } else if (flag == "--max-batch") {
      args.max_batch = std::strtoul(next(), nullptr, 10);
    } else if (flag == "--no-pace") {
      args.pace = false;
    } else if (flag == "--deadline-ms") {
      args.deadline_ms = std::strtod(next(), nullptr);
    } else if (flag == "--on-fault") {
      const std::string p = next();
      if (p == "fault") {
        args.on_fault = nec::runtime::FaultPolicy::kFault;
      } else if (p == "degrade") {
        args.on_fault = nec::runtime::FaultPolicy::kDegrade;
      } else {
        std::fprintf(stderr, "unknown --on-fault '%s'\n", p.c_str());
        std::exit(2);
      }
    } else if (flag == "--degrade") {
      args.degrade_on_deadline = true;
    } else if (flag == "--reject-bad-input") {
      args.reject_bad_input = true;
    } else if (flag == "--metrics-port") {
      args.metrics_port = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (flag == "--trace-out") {
      args.trace_out = next();
    } else if (flag == "--trace") {
      args.trace = true;
    } else if (flag == "--log-level") {
      const char* name = next();
      if (!nec::obs::ParseLogLevel(name, &args.log_level)) {
        std::fprintf(stderr, "unknown --log-level '%s'\n", name);
        std::exit(2);
      }
    } else if (flag == "--log-json") {
      args.log_json = true;
    } else if (flag == "--listen") {
      args.listen_port = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (flag == "--route") {
      args.route = next();
    } else if (flag == "--secret") {
      args.secret = next();
    } else if (flag == "--saturate-depth") {
      args.saturate_depth = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--recover-depth") {
      args.recover_depth = std::strtoull(next(), nullptr, 10);
    } else if (flag == "--model") {
      args.model = next();
      if (args.model != "standard" && args.model != "tiny") {
        std::fprintf(stderr, "unknown --model '%s'\n", args.model.c_str());
        std::exit(2);
      }
    } else {
      std::fprintf(stderr,
                   "usage: necd [--sessions N] [--workers K] [--seconds S]\n"
                   "            [--chunk-s C] [--policy block|reject|drop]\n"
                   "            [--queue Q] [--las] [--max-batch B]\n"
                   "            [--deadline-ms D] [--no-pace]\n"
                   "            [--on-fault fault|degrade] [--degrade]\n"
                   "            [--reject-bad-input] [--metrics-port P]\n"
                   "            [--trace-out FILE] [--trace] [--log-json]\n"
                   "            [--log-level trace|debug|info|warn|error|"
                   "off]\n"
                   "            [--listen PORT] [--model standard|tiny]\n"
                   "            [--route host:port:health_port,...]\n"
                   "            [--secret S] [--saturate-depth N]\n"
                   "            [--recover-depth N]\n");
      std::exit(flag == "--help" || flag == "-h" ? 0 : 2);
    }
  }
  // In router mode --listen (if given) is the router's own bind port;
  // otherwise an ephemeral one is picked and printed.
  if (args.max_batch < 1 || args.deadline_ms <= 0.0) {
    std::fprintf(stderr,
                 "necd: --max-batch must be >= 1 and --deadline-ms > 0\n");
    std::exit(2);
  }
  if (args.seconds <= 0.0 || args.chunk_s <= 0.0) {
    std::fprintf(stderr, "necd: --seconds and --chunk-s must be > 0\n");
    std::exit(2);
  }
  return args;
}

// Untrained seeded Fast() model: deterministic across processes and
// hermetic (no training cache), so every shard started with --model tiny
// serves bit-identical shadows for the same session seeds. Cancellation
// quality is meaningless — this exists for serving tests and benches.
nec::core::StandardModel TinyModel() {
  using namespace nec;
  core::StandardModel model;
  core::NecConfig cfg = core::NecConfig::Fast();
  cfg.conv_channels = 6;
  cfg.fc_hidden = 32;
  model.config = cfg;
  model.selector = std::make_shared<core::Selector>(cfg, 7);
  model.encoder = std::make_shared<encoder::LasEncoder>(cfg.embedding_dim);
  return model;
}

nec::core::StandardModel PickModel(const Args& args) {
  return args.model == "tiny" ? TinyModel()
                              : nec::core::StandardModel::Get(true);
}

nec::runtime::SessionManager::Options ManagerOptions(const Args& args) {
  using namespace nec;
  return {.workers = args.workers,
          .queue_capacity = args.queue,
          .policy = args.policy,
          .chunk_s = args.chunk_s,
          .kind = args.kind,
          .max_batch = args.max_batch,
          .deadline_ms = args.deadline_ms,
          .fault = {.on_error = args.on_fault,
                    .bad_input = args.reject_bad_input
                                     ? runtime::BadInputPolicy::kReject
                                     : runtime::BadInputPolicy::kSanitize,
                    .degrade_on_deadline = args.degrade_on_deadline}};
}

void PrintNetRows(const nec::net::NetStatsSnapshot& s) {
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::printf("%-28s %12llu\n", "net conns accepted", u(s.connections_accepted));
  std::printf("%-28s %12llu\n", "net conns active", u(s.connections_active));
  std::printf("%-28s %12llu\n", "net conns dropped", u(s.connections_dropped));
  std::printf("%-28s %12llu\n", "net frames in", u(s.frames_in));
  std::printf("%-28s %12llu\n", "net frames out", u(s.frames_out));
  std::printf("%-28s %12llu\n", "net bytes in", u(s.bytes_in));
  std::printf("%-28s %12llu\n", "net bytes out", u(s.bytes_out));
  std::printf("%-28s %12llu\n", "net decode errors", u(s.decode_errors));
  std::printf("%-28s %12llu\n", "net protocol errors", u(s.protocol_errors));
  std::printf("%-28s %12llu\n", "net sessions opened", u(s.sessions_opened));
  std::printf("%-28s %12llu\n", "net sessions closed", u(s.sessions_closed));
  std::printf("%-28s %12llu\n", "net sessions faulted",
              u(s.sessions_faulted));
  std::printf("%-28s %12llu\n", "net auth ok", u(s.auth_ok));
  std::printf("%-28s %12llu\n", "net auth rejected", u(s.auth_rejected));
  std::printf("%-28s %12llu\n", "net overload shed", u(s.overload_shed));
  std::printf("%-28s %12llu\n", "net sessions migrated",
              u(s.sessions_migrated));
}

/// necd --listen: serve the wire protocol until SIGINT/SIGTERM.
int RunListen(const Args& args) {
  using namespace nec;
  core::StandardModel model = PickModel(args);
  runtime::SessionManager manager(model.selector, model.encoder, {},
                                  ManagerOptions(args));
  net::NetServer server(&manager,
                        {.port = args.listen_port, .secret = args.secret});
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "necd: wire listener failed: %s\n", error.c_str());
    return 2;
  }
  // stdout, greppable: scripts read the bound port when --listen 0.
  std::printf("necd: wire listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  obs::MetricsServer metrics;
  const auto started_at = std::chrono::steady_clock::now();
  if (args.metrics_port >= 0) {
    const auto families = [&] {
      auto fams = runtime::SnapshotToMetricFamilies(manager.Stats());
      auto net_fams =
          net::NetStatsToMetricFamilies(server.StatsSnapshot(), "server");
      fams.insert(fams.end(), net_fams.begin(), net_fams.end());
      fams.push_back(runtime::HopLatencyFamily());
      return fams;
    };
    metrics.Handle("/metrics", [families](const std::string&,
                                          const std::string&) {
      obs::HttpResponse resp;
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
      resp.body = obs::RenderPrometheusText(families());
      return resp;
    });
    metrics.Handle("/metrics.json", [families](const std::string&,
                                               const std::string&) {
      obs::HttpResponse resp;
      resp.content_type = "application/json";
      resp.body = obs::RenderMetricsJson(families());
      return resp;
    });
    metrics.Handle("/healthz", [&manager, started_at](const std::string&,
                                                      const std::string&) {
      const double uptime_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started_at)
              .count();
      obs::HttpResponse resp;
      resp.content_type = "application/json";
      resp.body = "{\"status\":\"ok\",\"uptime_s\":" +
                  std::to_string(uptime_s) + ",\"sessions\":" +
                  std::to_string(manager.num_sessions()) + "}\n";
      return resp;
    });
    metrics.Handle("/sessions", [&manager](const std::string&,
                                           const std::string&) {
      obs::HttpResponse resp;
      resp.content_type = "application/json";
      resp.body = runtime::SessionsJson(manager) + "\n";
      return resp;
    });
    // Live trace window (requires --trace / --trace-out; empty trace
    // otherwise). `necctl trace` pulls this from every fleet member and
    // merges the rings into one cross-process file.
    metrics.Handle("/trace", [](const std::string&, const std::string&) {
      obs::HttpResponse resp;
      resp.content_type = "application/json";
      resp.body = obs::TraceRecorder::Global().ChromeTraceJson();
      return resp;
    });
    if (!metrics.Start({.host = "127.0.0.1", .port = args.metrics_port},
                       &error)) {
      std::fprintf(stderr, "necd: metrics listener failed: %s\n",
                   error.c_str());
      return 2;
    }
    std::printf("necd: metrics listening on http://127.0.0.1:%d\n",
                metrics.port());
    std::fflush(stdout);
  }

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  NEC_LOG_INFO("necd", "stop signal received — draining shard");
  server.Stop();
  manager.Drain();
  metrics.Stop();

  const runtime::RuntimeStatsSnapshot stats = manager.Stats();
  std::printf("\n============================ necd stats "
              "============================\n");
  std::printf("%-28s %12llu\n", "sessions",
              static_cast<unsigned long long>(stats.sessions));
  std::printf("%-28s %12llu\n", "chunks processed",
              static_cast<unsigned long long>(stats.chunks_processed));
  std::printf("%-28s %12.2f\n", "chunk latency p50 (ms)",
              stats.chunk_latency.p50_ms);
  std::printf("%-28s %12.2f\n", "chunk latency p99 (ms)",
              stats.chunk_latency.p99_ms);
  std::printf("%-28s %12.2f\n", "e2e latency p50 (ms)",
              stats.e2e_latency.p50_ms);
  std::printf("%-28s %12.2f\n", "e2e latency p99 (ms)",
              stats.e2e_latency.p99_ms);
  std::printf("%-28s %12llu\n", "session faults",
              static_cast<unsigned long long>(stats.faults));
  PrintNetRows(server.StatsSnapshot());
  std::printf("---------------------------------------------------------"
              "------------\n");
  return 0;
}

/// Parses "host:port:health_port[,host:port:health_port...]".
bool ParseShardList(const std::string& spec,
                    std::vector<nec::net::ShardSpec>* shards) {
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    const std::size_t c1 = item.find(':');
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos : item.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) return false;
    nec::net::ShardSpec shard;
    shard.host = item.substr(0, c1);
    shard.port = std::atoi(item.c_str() + c1 + 1);
    shard.health_port = std::atoi(item.c_str() + c2 + 1);
    if (shard.host.empty() || shard.port <= 0 || shard.health_port <= 0) {
      return false;
    }
    shards->push_back(std::move(shard));
    if (end == spec.size()) break;
    start = end + 1;
  }
  return !shards->empty();
}

/// necd --route: front a shard fleet until SIGINT/SIGTERM.
int RunRouter(const Args& args) {
  using namespace nec;
  net::Router::Options options;
  options.port = std::max(args.listen_port, 0);
  options.secret = args.secret;
  if (args.saturate_depth > 0) {
    options.saturate_queue_depth = args.saturate_depth;
    options.recover_queue_depth =
        args.recover_depth > 0 ? args.recover_depth : args.saturate_depth / 2;
  }
  if (!ParseShardList(args.route, &options.shards)) {
    std::fprintf(stderr,
                 "necd: --route wants host:port:health_port[,...], got "
                 "'%s'\n",
                 args.route.c_str());
    return 2;
  }
  const std::size_t num_shards = options.shards.size();
  // Scrape targets for /fleet: one row per shard, labeled by its
  // data-plane address, scraped on its metrics/health port.
  std::vector<net::FleetMember> fleet_members;
  for (const net::ShardSpec& shard : options.shards) {
    fleet_members.push_back(
        {.label = shard.host + ":" + std::to_string(shard.port),
         .host = shard.host,
         .port = shard.health_port});
  }
  net::Router router(std::move(options));
  std::string error;
  if (!router.Start(&error)) {
    std::fprintf(stderr, "necd: router failed: %s\n", error.c_str());
    return 2;
  }
  std::printf("necd: routing on 127.0.0.1:%d (%zu shards)\n", router.port(),
              num_shards);
  std::fflush(stdout);

  obs::MetricsServer metrics;
  const auto started_at = std::chrono::steady_clock::now();
  if (args.metrics_port >= 0) {
    const auto router_families = [&router] {
      auto fams = router.MetricFamilies();
      fams.push_back(runtime::HopLatencyFamily());
      return fams;
    };
    metrics.Handle("/metrics", [router_families](const std::string&,
                                                 const std::string&) {
      obs::HttpResponse resp;
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
      resp.body = obs::RenderPrometheusText(router_families());
      return resp;
    });
    metrics.Handle("/metrics.json", [router_families](const std::string&,
                                                      const std::string&) {
      obs::HttpResponse resp;
      resp.content_type = "application/json";
      resp.body = obs::RenderMetricsJson(router_families());
      return resp;
    });
    metrics.Handle("/trace", [](const std::string&, const std::string&) {
      obs::HttpResponse resp;
      resp.content_type = "application/json";
      resp.body = obs::TraceRecorder::Global().ChromeTraceJson();
      return resp;
    });
    // Merged fleet view: scrape every member shard's /metrics, sum
    // counters, bucket-merge histograms (DESIGN.md §5g). Runs on the
    // HTTP thread with tight per-member timeouts — a dead member costs
    // one connect timeout and shows up as an unreachable row.
    const auto fleet_view = [&router, fleet_members] {
      obs::HttpGetOptions http;
      http.connect_timeout_ms = 500;
      http.read_timeout_ms = 2000;
      return net::ScrapeFleet(fleet_members, http);
    };
    metrics.Handle("/fleet", [&router, fleet_view](const std::string&,
                                                   const std::string&) {
      obs::HttpResponse resp;
      resp.body = net::RenderFleetText(fleet_view(), router.ShardStatuses());
      return resp;
    });
    metrics.Handle("/fleet.json", [&router, fleet_view](const std::string&,
                                                        const std::string&) {
      obs::HttpResponse resp;
      resp.content_type = "application/json";
      resp.body =
          net::RenderFleetJson(fleet_view(), router.ShardStatuses()) + "\n";
      return resp;
    });
    metrics.Handle("/healthz", [&router, started_at](const std::string&,
                                                     const std::string&) {
      std::size_t up = 0;
      const auto statuses = router.ShardStatuses();
      for (const auto& status : statuses) up += status.up ? 1 : 0;
      const double uptime_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started_at)
              .count();
      obs::HttpResponse resp;
      resp.content_type = "application/json";
      // A router with zero healthy shards is alive but not serviceable.
      resp.status = up > 0 ? 200 : 503;
      resp.body = "{\"status\":\"" + std::string(up > 0 ? "ok" : "no-shards") +
                  "\",\"uptime_s\":" + std::to_string(uptime_s) +
                  ",\"shards_up\":" + std::to_string(up) +
                  ",\"shards\":" + std::to_string(statuses.size()) + "}\n";
      return resp;
    });
    metrics.Handle("/shards", [&router](const std::string&,
                                        const std::string&) {
      std::string body = "[";
      bool first = true;
      for (const auto& status : router.ShardStatuses()) {
        if (!first) body += ",";
        first = false;
        body += "{\"host\":\"" + status.spec.host + "\",\"port\":" +
                std::to_string(status.spec.port) + ",\"health_port\":" +
                std::to_string(status.spec.health_port) + ",\"up\":" +
                (status.up ? "true" : "false") + ",\"saturated\":" +
                (status.saturated ? "true" : "false") + ",\"draining\":" +
                (status.draining ? "true" : "false") + ",\"drained\":" +
                (status.drained ? "true" : "false") + ",\"sessions_active\":" +
                std::to_string(status.sessions_active) +
                ",\"sessions_assigned_total\":" +
                std::to_string(status.sessions_assigned_total) +
                ",\"sessions_migrated\":" +
                std::to_string(status.sessions_migrated) +
                ",\"ejections\":" + std::to_string(status.ejections) +
                ",\"probes_ok\":" + std::to_string(status.probes_ok) +
                ",\"probes_failed\":" + std::to_string(status.probes_failed) +
                ",\"queue_depth\":" + std::to_string(status.queue_depth) +
                ",\"overload_total\":" +
                std::to_string(status.overload_total) + "}";
      }
      body += "]\n";
      obs::HttpResponse resp;
      resp.content_type = "application/json";
      resp.body = std::move(body);
      return resp;
    });
    // Operational drain trigger: GET /drain?shard=host:port starts the
    // zero-fault reshard (necctl drain wraps this). DrainShard only
    // flips an atomic, so running on the HTTP thread is safe.
    metrics.Handle("/drain", [&router](const std::string&,
                                       const std::string& query) {
      obs::HttpResponse resp;
      resp.content_type = "application/json";
      const std::string prefix = "shard=";
      std::string label;
      std::size_t at = query.find(prefix);
      if (at != std::string::npos) {
        label = query.substr(at + prefix.size());
        const std::size_t amp = label.find('&');
        if (amp != std::string::npos) label.resize(amp);
      }
      std::string error;
      if (label.empty()) {
        resp.status = 400;
        resp.body = "{\"error\":\"missing ?shard=host:port\"}\n";
      } else if (!router.DrainShard(label, &error)) {
        resp.status = 404;
        resp.body = "{\"error\":\"" + error + "\"}\n";
      } else {
        resp.body = "{\"status\":\"draining\",\"shard\":\"" + label + "\"}\n";
      }
      return resp;
    });
    if (!metrics.Start({.host = "127.0.0.1", .port = args.metrics_port},
                       &error)) {
      std::fprintf(stderr, "necd: metrics listener failed: %s\n",
                   error.c_str());
      return 2;
    }
    std::printf("necd: metrics listening on http://127.0.0.1:%d\n",
                metrics.port());
    std::fflush(stdout);
  }

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  NEC_LOG_INFO("necd", "stop signal received — stopping router");
  router.Stop();
  metrics.Stop();

  std::printf("\n=========================== router stats "
              "===========================\n");
  PrintNetRows(router.StatsSnapshot());
  std::printf("------------------------------ shards "
              "------------------------------\n");
  for (const auto& status : router.ShardStatuses()) {
    std::printf("%s:%d  up=%d sat=%d drain=%d/%d sessions=%llu "
                "assigned=%llu migrated=%llu ejections=%llu probes_ok=%llu "
                "probes_failed=%llu\n",
                status.spec.host.c_str(), status.spec.port, status.up ? 1 : 0,
                status.saturated ? 1 : 0, status.draining ? 1 : 0,
                status.drained ? 1 : 0,
                static_cast<unsigned long long>(status.sessions_active),
                static_cast<unsigned long long>(
                    status.sessions_assigned_total),
                static_cast<unsigned long long>(status.sessions_migrated),
                static_cast<unsigned long long>(status.ejections),
                static_cast<unsigned long long>(status.probes_ok),
                static_cast<unsigned long long>(status.probes_failed));
  }
  std::printf("---------------------------------------------------------"
              "------------\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nec;
  const Args args = Parse(argc, argv);

  obs::SetLogLevel(args.log_level);
  if (args.log_json) obs::SetLogFormat(obs::LogFormat::kJson);
  obs::TraceRecorder::SetThreadName("main");
  // --trace-out dumps after the drain; --trace only arms the recorder so
  // the /trace endpoint serves a live window (fleet members run this way
  // and `necctl trace` pulls + merges their rings).
  if (!args.trace_out.empty() || args.trace) {
    obs::TraceRecorder::Global().Enable();
  }

  // A daemon dies by signal, not by EOF: drain in-flight audio and still
  // print the stats tables instead of dropping everything on the floor.
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  if (!args.route.empty()) return RunRouter(args);
  if (args.listen_port >= 0) return RunListen(args);

  NEC_LOG_INFO("necd",
               "%zu sessions, %zu workers, %.1f s streams, %.1f s chunks, "
               "policy=%s, selector=%s, max-batch=%zu",
               args.sessions, args.workers, args.seconds, args.chunk_s,
               PolicyName(args.policy),
               args.kind == core::SelectorKind::kNeural ? "neural"
                                                        : "las-mask",
               args.max_batch);

  core::StandardModel model = PickModel(args);
  runtime::SessionManager manager(model.selector, model.encoder, {},
                                  ManagerOptions(args));

  // Live scrape surface. Handlers run on the listener thread; everything
  // they touch (Stats snapshot, SessionStatus) is thread-safe by contract.
  obs::MetricsServer server;
  const auto started_at = std::chrono::steady_clock::now();
  if (args.metrics_port >= 0) {
    const auto families = [&manager] {
      auto fams = runtime::SnapshotToMetricFamilies(manager.Stats());
      fams.push_back(runtime::HopLatencyFamily());
      return fams;
    };
    server.Handle("/metrics", [families](const std::string&,
                                         const std::string&) {
      obs::HttpResponse resp;
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
      resp.body = obs::RenderPrometheusText(families());
      return resp;
    });
    server.Handle("/metrics.json", [families](const std::string&,
                                              const std::string&) {
      obs::HttpResponse resp;
      resp.content_type = "application/json";
      resp.body = obs::RenderMetricsJson(families());
      return resp;
    });
    server.Handle("/healthz", [&manager, started_at](const std::string&,
                                                     const std::string&) {
      const double uptime_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started_at)
              .count();
      obs::HttpResponse resp;
      resp.content_type = "application/json";
      resp.body = "{\"status\":\"ok\",\"uptime_s\":" +
                  std::to_string(uptime_s) + ",\"sessions\":" +
                  std::to_string(manager.num_sessions()) + "}\n";
      return resp;
    });
    server.Handle("/sessions", [&manager](const std::string&,
                                          const std::string&) {
      obs::HttpResponse resp;
      resp.content_type = "application/json";
      resp.body = runtime::SessionsJson(manager) + "\n";
      return resp;
    });
    server.Handle("/trace", [](const std::string&, const std::string&) {
      obs::HttpResponse resp;
      resp.content_type = "application/json";
      resp.body = obs::TraceRecorder::Global().ChromeTraceJson();
      return resp;
    });
    std::string error;
    if (!server.Start({.host = "127.0.0.1", .port = args.metrics_port},
                      &error)) {
      std::fprintf(stderr, "necd: metrics listener failed: %s\n",
                   error.c_str());
      return 2;
    }
    // Printed on stdout (not just the log) so scripts can grep the bound
    // port when --metrics-port 0 picked an ephemeral one.
    std::printf("necd: metrics listening on http://127.0.0.1:%d\n",
                server.port());
    std::fflush(stdout);
  }

  // One enrolled target per session; the monitored stream mixes that
  // target's voice with a noise background (what the room mic hears).
  synth::DatasetBuilder builder({.duration_s = args.seconds});
  synth::DatasetBuilder enroll_builder({.duration_s = 3.0});
  std::vector<runtime::SessionManager::SessionId> ids;
  std::vector<audio::Waveform> streams;
  for (std::size_t i = 0; i < args.sessions; ++i) {
    const auto speaker = synth::SpeakerProfile::FromSeed(1000 + i);
    ids.push_back(manager.CreateSession(
        enroll_builder.MakeReferenceAudios(speaker, 3, 500 + i)));
    streams.push_back(
        builder
            .MakeInstance(speaker, synth::Scenario::kBabble, 7000 + i)
            .mixed);
  }
  NEC_LOG_INFO("necd", "%zu sessions enrolled, feeding %.1f s each...",
               ids.size(), args.seconds);

  // Interleaved capture-callback-sized pieces: all sessions live at once.
  // Paced mode delivers each round of pieces at the audio rate — the
  // arrival process a live capture callback would produce — so queue-wait
  // and end-to-end latency mean service latency, not replay backlog.
  const std::size_t piece = 4096;
  const double piece_s =
      streams.empty() ? 0.0
                      : static_cast<double>(piece) /
                            static_cast<double>(streams[0].sample_rate());
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t pos = 0;
  std::size_t rounds = 0;
  bool any_left = true;
  while (any_left && !g_stop) {
    any_left = false;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (pos >= streams[i].size()) continue;
      const std::size_t n = std::min(piece, streams[i].size() - pos);
      const runtime::SubmitResult r =
          manager.Submit(ids[i], streams[i].samples().subspan(pos, n));
      if (!r.ok() &&
          r.error->category == runtime::ErrorCategory::kOverload) {
        // kReject bounced the strand dispatch; the samples are already
        // buffered, so nudge with empty submits until the pool has room
        // (each bounce still shows up in the rejection counter). A nudge
        // can stop being kOverload — e.g. the session faults — so bail
        // on any other outcome.
        for (;;) {
          const runtime::SubmitResult nudge = manager.Submit(ids[i], {});
          if (nudge.ok() || g_stop ||
              nudge.error->category != runtime::ErrorCategory::kOverload) {
            break;
          }
          std::this_thread::yield();
        }
      }
      // Any other error (kFaulted session, rejected bad input) sheds this
      // piece; the session's fate shows up in the status table below.
      any_left = true;
    }
    pos += piece;
    ++rounds;
    if (args.pace && any_left) {
      // Absolute schedule (t0 + n·piece_s), not relative sleeps: pacing
      // error never accumulates, and a slow round simply skips its sleep.
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(piece_s *
                                                 static_cast<double>(rounds))));
    }
  }
  if (g_stop) {
    NEC_LOG_INFO("necd", "stop signal received — draining in-flight work");
  }
  manager.Drain();
  for (const auto id : ids) manager.Flush(id);

  // Post-drain the recorder is quiescent: dump the trace window before the
  // report so an operator killing necd mid-run still gets both.
  if (!args.trace_out.empty()) {
    obs::TraceRecorder& rec = obs::TraceRecorder::Global();
    std::ofstream out(args.trace_out);
    if (!out) {
      std::fprintf(stderr, "necd: cannot write trace to %s\n",
                   args.trace_out.c_str());
    } else {
      rec.WriteChromeTrace(out);
      NEC_LOG_INFO("necd",
                   "trace written to %s (%llu events held, %llu dropped by "
                   "ring wraparound)",
                   args.trace_out.c_str(),
                   static_cast<unsigned long long>(rec.events_recorded()),
                   static_cast<unsigned long long>(rec.events_dropped()));
    }
    rec.Disable();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const runtime::RuntimeStatsSnapshot stats = manager.Stats();
  const double chunks_per_sec =
      wall_s > 0.0 ? static_cast<double>(stats.chunks_processed) / wall_s
                   : 0.0;
  const double audio_s =
      args.seconds * static_cast<double>(args.sessions);

  std::printf("\n============================ necd stats "
              "============================\n");
  std::printf("%-28s %12llu\n", "sessions",
              static_cast<unsigned long long>(stats.sessions));
  std::printf("%-28s %12llu\n", "chunks processed",
              static_cast<unsigned long long>(stats.chunks_processed));
  std::printf("%-28s %12llu\n", "strand dispatches",
              static_cast<unsigned long long>(stats.dispatches));
  std::printf("%-28s %12llu\n", "dispatch rejections",
              static_cast<unsigned long long>(stats.dispatch_rejections));
  std::printf("%-28s %12llu\n", "dispatch drops (evicted)",
              static_cast<unsigned long long>(stats.dispatch_drops));
  std::printf("%-28s %12llu\n", "samples submitted",
              static_cast<unsigned long long>(stats.samples_submitted));
  std::printf("%-28s %12llu\n", "samples dropped",
              static_cast<unsigned long long>(stats.samples_dropped));
  std::printf("%-28s %12zu\n", "queue depth (now)", stats.queue_depth);
  std::printf("%-28s %12.2f\n", "wall time (s)", wall_s);
  std::printf("%-28s %12.2f\n", "audio processed (s)", audio_s);
  std::printf("%-28s %12.2f\n", "realtime factor", audio_s / wall_s);
  std::printf("%-28s %12.2f\n", "aggregate chunks/sec", chunks_per_sec);
  std::printf("%-28s %12.2f\n", "chunk latency p50 (ms)",
              stats.chunk_latency.p50_ms);
  std::printf("%-28s %12.2f\n", "chunk latency p95 (ms)",
              stats.chunk_latency.p95_ms);
  std::printf("%-28s %12.2f\n", "chunk latency p99 (ms)",
              stats.chunk_latency.p99_ms);
  std::printf("%-28s %12.2f\n", "chunk latency max (ms)",
              stats.chunk_latency.max_ms);
  std::printf("%-28s %12.2f\n", "e2e latency p50 (ms)",
              stats.e2e_latency.p50_ms);
  std::printf("%-28s %12.2f\n", "e2e latency p95 (ms)",
              stats.e2e_latency.p95_ms);
  std::printf("%-28s %12.2f\n", "e2e latency p99 (ms)",
              stats.e2e_latency.p99_ms);
  std::printf("%-28s %12.2f\n", "e2e latency max (ms)",
              stats.e2e_latency.max_ms);
  if (manager.batching_enabled()) {
    std::printf("%-28s %12llu\n", "batches dispatched",
                static_cast<unsigned long long>(stats.batches_dispatched));
    std::printf("%-28s %12llu\n", "batched chunks",
                static_cast<unsigned long long>(stats.batched_chunks));
    std::printf("%-28s %12.2f\n", "avg batch size",
                stats.avg_batch_size);
    std::printf("%-28s %12llu\n", "max batch size",
                static_cast<unsigned long long>(stats.max_batch_size));
    std::printf("%-28s %12.2f\n", "queue wait p50 (ms)",
                stats.queue_wait.p50_ms);
    std::printf("%-28s %12.2f\n", "queue wait p99 (ms)",
                stats.queue_wait.p99_ms);
  }
  std::printf("%-28s %12zu\n", "queue peak depth",
              stats.queue_peak_depth);
  std::printf("%-28s %12llu\n", "session faults",
              static_cast<unsigned long long>(stats.faults));
  for (std::size_t c = 0; c < runtime::kNumErrorCategories; ++c) {
    if (stats.faults_by_category[c] == 0) continue;
    std::printf("  %-26s %12llu\n",
                runtime::ErrorCategoryName(
                    static_cast<runtime::ErrorCategory>(c)),
                static_cast<unsigned long long>(stats.faults_by_category[c]));
  }
  std::printf("%-28s %12llu\n", "deadline misses",
              static_cast<unsigned long long>(stats.deadline_misses));
  std::printf("%-28s %12llu\n", "degrade steps down",
              static_cast<unsigned long long>(stats.degrade_steps_down));
  std::printf("%-28s %12llu\n", "degrade steps up",
              static_cast<unsigned long long>(stats.degrade_steps_up));
  std::printf("%-28s %12llu\n", "chunk retries",
              static_cast<unsigned long long>(stats.chunk_retries));
  std::printf("%-28s %12llu\n", "batch splits",
              static_cast<unsigned long long>(stats.batch_splits));
  std::printf("%-28s %12llu\n", "samples sanitized",
              static_cast<unsigned long long>(stats.samples_sanitized));
  std::printf("%-28s %12llu\n", "bad-input rejections",
              static_cast<unsigned long long>(stats.bad_input_rejections));
  std::printf("%-28s %12llu\n", "session resets",
              static_cast<unsigned long long>(stats.session_resets));
  std::printf("%-28s %12llu\n", "worker exceptions",
              static_cast<unsigned long long>(stats.worker_exceptions));

  // Per-session health: anything not idle/neural after a drained run
  // deserves a line the operator can act on.
  bool any_unhealthy = false;
  for (const auto id : ids) {
    const runtime::SessionStatus st = manager.SessionStatus(id);
    if (st.state == runtime::SessionState::kIdle && st.faults == 0 &&
        st.deadline_misses == 0) {
      continue;
    }
    if (!any_unhealthy) {
      std::printf("------------------------- session status "
                  "-------------------------\n");
      any_unhealthy = true;
    }
    std::printf("session %-4zu %-8s level=%-12s chunks=%-6llu "
                "faults=%-3llu misses=%llu%s%s\n",
                id, runtime::SessionStateName(st.state),
                runtime::DegradeLevelName(st.level),
                static_cast<unsigned long long>(st.chunks_emitted),
                static_cast<unsigned long long>(st.faults),
                static_cast<unsigned long long>(st.deadline_misses),
                st.error.has_value() ? " — " : "",
                st.error.has_value() ? st.error->message.c_str() : "");
  }
  std::printf("---------------------------------------------------------"
              "------------\n");
  // The verdict is end-to-end (enqueue → complete): a chunk that computed
  // fast but sat in a queue past the budget still failed its listener.
  const bool deadline_ok = stats.e2e_latency.p99_ms < args.deadline_ms;
  std::printf("overshadowing deadline (%.0f ms, IV-C2): e2e p99 %s\n",
              args.deadline_ms, deadline_ok ? "MET" : "MISSED");
  return deadline_ok ? 0 : 1;
}
