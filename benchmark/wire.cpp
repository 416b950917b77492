// Wire workloads: one generator thread driving a necd fleet over TCP.
//
// The fleet is `necd --route` in front of two `necd --listen 0 --model tiny
// --workers 1` shards, all spawned by the driver. The generator talks to
// the router over `connections` NetClients, exactly as any client would.
//
// fleet — open loop: every session sends one whole chunk per second,
//         sessions at evenly spread phases of the second.
// churn — the same steady streams (fewer of them) plus short sessions
//         opened open-loop inside the window: each sends its first chunk
//         right behind the open (a recorder joining with a buffered second
//         of audio), then one per second, then closes. Enrollment runs on
//         the shard's poll thread beside streaming.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "common.h"
#include "net/client.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "runtime/stats_export.h"

namespace nec::bench {
namespace {

/// A spawned necd. Its stdout is a pipe (necd prints its bound ports
/// there); stderr goes to a log file. Stop() ends it and reaps it.
class Child {
 public:
  Child() = default;
  ~Child() { Stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool Start(const std::vector<std::string>& args, const std::string& log,
             std::string* error) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      *error = std::string("pipe: ") + std::strerror(errno);
      return false;
    }
    const int log_fd =
        ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    std::vector<char*> argv;
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = std::string("fork: ") + std::strerror(errno);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      if (log_fd >= 0) ::close(log_fd);
      return false;
    }
    if (pid_ == 0) {
      // Child: die with the driver, however the driver ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    if (log_fd >= 0) ::close(log_fd);
    out_fd_ = pipe_fds[0];
    return true;
  }

  /// Reads stdout until a line starting with `prefix` and parses the port
  /// after its last ':'.
  bool ReadPort(const std::string& prefix, int* port, std::string* error) {
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
    for (;;) {
      std::size_t nl;
      while ((nl = buffered_.find('\n')) != std::string::npos) {
        const std::string line = buffered_.substr(0, nl);
        buffered_.erase(0, nl + 1);
        if (line.compare(0, prefix.size(), prefix) == 0) {
          *port = std::atoi(line.c_str() + line.rfind(':') + 1);
          if (*port > 0) return true;
        }
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          give_up - Clock::now());
      pollfd pfd{out_fd_, POLLIN, 0};
      if (left.count() <= 0 ||
          ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
        *error = "necd did not print '" + prefix + "'";
        return false;
      }
      char buf[512];
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n <= 0) {
        *error = "necd exited before printing '" + prefix + "'";
        return false;
      }
      buffered_.append(buf, static_cast<std::size_t>(n));
    }
  }

  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      const Clock::time_point give_up = Clock::now() + std::chrono::seconds(5);
      int status = 0;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (Clock::now() > give_up) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

  int pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffered_;
};

constexpr const char* kHost = "127.0.0.1";

/// Router + two tiny shards. The destructor stops all three.
struct Fleet {
  Child shards[2];
  Child router;
  int shard_port[2] = {0, 0};
  int shard_metrics[2] = {0, 0};
  int router_port = 0;
  int router_metrics = 0;

  bool Start(const std::string& necd, const std::string& log_dir,
             std::string* error) {
    for (int s = 0; s < 2; ++s) {
      if (!shards[s].Start({necd, "--listen", "0", "--model", "tiny",
                            "--workers", "1", "--metrics-port", "0"},
                           log_dir + "/shard" + std::to_string(s) + ".log",
                           error)) {
        return false;
      }
    }
    for (int s = 0; s < 2; ++s) {
      if (!shards[s].ReadPort("necd: wire listening", &shard_port[s], error) ||
          !shards[s].ReadPort("necd: metrics listening", &shard_metrics[s],
                              error)) {
        return false;
      }
    }
    std::string route;
    for (int s = 0; s < 2; ++s) {
      route += (s ? "," : "") + std::string(kHost) + ":" +
               std::to_string(shard_port[s]) + ":" +
               std::to_string(shard_metrics[s]);
    }
    if (!router.Start({necd, "--route", route, "--listen", "0",
                       "--metrics-port", "0"},
                      log_dir + "/router.log", error) ||
        !router.ReadPort("necd: routing on", &router_port, error) ||
        !router.ReadPort("necd: metrics listening", &router_metrics, error)) {
      return false;
    }
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
    for (;;) {
      std::string body, err;
      int status = 0;
      if (obs::HttpGet(kHost, router_metrics, "/healthz", &body, &status,
                       &err) &&
          status == 200 && body.find("\"shards_up\":2") != std::string::npos) {
        return true;
      }
      if (Clock::now() > give_up) {
        *error = "router never reported both shards up";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  std::vector<int> Pids() const {
    return {router.pid(), shards[0].pid(), shards[1].pid()};
  }
};

bool Scrape(int port, std::vector<obs::MetricFamily>* families) {
  std::string body, error;
  int status = 0;
  return obs::HttpGet(kHost, port, "/metrics", &body, &status, &error) &&
         status == 200 && obs::ParsePrometheusText(body, families, &error);
}

/// Histogram `name` (optionally only the sample labelled hop=`hop`)
/// bucket-merged over several scrapes; empty when absent everywhere.
obs::HistogramData MergedHistogram(
    const std::vector<std::vector<obs::MetricFamily>>& scrapes,
    const std::string& name, const std::string& hop = "") {
  obs::HistogramData acc;
  for (const auto& families : scrapes) {
    for (const obs::MetricFamily& f : families) {
      if (f.name != name) continue;
      for (const obs::Metric& m : f.metrics) {
        const bool match =
            hop.empty() ||
            std::any_of(m.labels.begin(), m.labels.end(), [&](const auto& l) {
              return l.first == "hop" && l.second == hop;
            });
        std::string error;
        if (match) runtime::MergeHistogramData(m.histogram, &acc, &error);
      }
    }
  }
  return acc;
}

double QuantileMs(const obs::HistogramData& h, double q) {
  return h.count == 0 ? std::numeric_limits<double>::quiet_NaN()
                      : obs::HistogramQuantile(h, q) * 1000.0;
}

double CounterSum(const std::vector<std::vector<obs::MetricFamily>>& scrapes,
                  const std::string& name) {
  double sum = 0.0;
  for (const auto& families : scrapes) {
    for (const obs::MetricFamily& f : families) {
      if (f.name != name) continue;
      for (const obs::Metric& m : f.metrics) sum += m.value;
    }
  }
  return sum;
}


/// Waits up to `wait` for client sockets to turn readable; returns their
/// indices.
std::vector<std::size_t> WaitReadable(
    const std::vector<std::unique_ptr<net::NetClient>>& clients,
    std::chrono::nanoseconds wait) {
  std::vector<pollfd> pfds;
  for (const auto& c : clients) pfds.push_back({c->fd(), POLLIN, 0});
  const long ns = std::max<long>(0, static_cast<long>(wait.count()));
  timespec ts{ns / 1000000000L, ns % 1000000000L};
  std::vector<std::size_t> readable;
  if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) return readable;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    if (pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) readable.push_back(c);
  }
  return readable;
}

struct Pumped {
  bool ok = false;
  bool got_bytes = false;
  std::string error;
  Clock::time_point start, end;
};

/// Drains everything readable on `client` into its session state.
Pumped Pump(net::NetClient& client) {
  Pumped p;
  p.start = Clock::now();
  const std::uint64_t before = client.bytes_in();
  bool timed_out = false;
  p.ok = client.PumpOnce(0, &timed_out, &p.error);
  p.end = Clock::now();
  p.got_bytes = client.bytes_in() > before;
  return p;
}

struct Event {
  double due_ms;
  bool open;  ///< kOpenSession (else chunk k)
  std::size_t session;
  std::size_t k;
};

struct WireLive {
  std::size_t client = 0;
  std::uint64_t sid = 0;
  std::size_t chunks = 0;      ///< chunks this session sends
  std::size_t delivered = 0;
  std::size_t consumed = 0;    ///< shadow samples already digested
  bool acked = false;
  Clock::time_point open_sent{};
  bool close_sent = false;
  bool done = false;
};

}  // namespace

RunResult RunWire(const WorkloadSpec& w, const Inputs& inputs,
                  const RunOptions& options, LayerSamples* layer_samples) {
  RunResult r;
  const std::size_t steady = w.sessions;
  const std::size_t total = inputs.num_sessions();
  const std::size_t num_clients = std::max<std::size_t>(1, options.connections);

  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<net::NetClient>> clients;
  std::vector<WireLive> live(total);
  std::vector<double> open_ms;
  const auto fail = [&](const std::string& why) {
    r.error = why;
    clients.clear();
    fleet.reset();
    return r;
  };
  for (std::size_t i = 0; i < total; ++i) {
    live[i].client = i % num_clients;
    live[i].sid = i + 1;
  }

  // Set-up: spawn the fleet until /healthz answers, connect, open the
  // steady sessions and wait for every kOpenAck.
  for (std::size_t rep = 0; rep < options.setup_reps; ++rep) {
    clients.clear();
    fleet.reset();
    open_ms.clear();
    const auto t = Clock::now();
    fleet = std::make_unique<Fleet>();
    std::string error;
    if (!fleet->Start(options.necd, options.out_dir, &error)) {
      return fail("fleet start: " + error);
    }
    for (std::size_t c = 0; c < num_clients; ++c) {
      auto client = std::make_unique<net::NetClient>();
      net::HelloInfo hello;
      if (!client->Connect(kHost, fleet->router_port, 2000, &error) ||
          !client->Hello(&hello, 5000, &error)) {
        return fail("connect: " + error);
      }
      if (hello.chunk_samples != kChunkSamples ||
          hello.output_samples_per_chunk != kOutputSamplesPerChunk) {
        return fail("unexpected chunk geometry from the fleet");
      }
      clients.push_back(std::move(client));
    }
    for (std::size_t i = 0; i < steady; ++i) {
      const SessionSeeds& seeds = inputs.seeds(i);
      live[i].open_sent = Clock::now();
      live[i].acked = false;
      if (!clients[live[i].client]->SendOpenSession(
              live[i].sid, seeds.speaker_seed, seeds.ref_seed, &error)) {
        return fail("open: " + error);
      }
    }
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
    for (std::size_t acked = 0; acked < steady;) {
      if (Clock::now() > give_up) return fail("initial opens not acked");
      for (const std::size_t c :
           WaitReadable(clients, std::chrono::milliseconds(5))) {
        const Pumped p = Pump(*clients[c]);
        if (!p.ok) return fail("pump: " + p.error);
        for (std::size_t i = c; i < steady; i += num_clients) {
          const net::WireSessionState& st = clients[c]->session(live[i].sid);
          if (st.error) return fail("open rejected: " + st.error->message);
          if (!live[i].acked && st.open_acked) {
            live[i].acked = true;
            open_ms.push_back(MsBetween(live[i].open_sent, p.end));
            ++acked;
          }
        }
      }
    }
    r.setup_s.push_back(MsBetween(t, Clock::now()) / 1e3);
  }

  // Schedule, in ms from t0. Shards and router poll on a 5 ms tick, so
  // send phases on a round grid (k/16 s, k/4 s) would all meet the tick at
  // the same point and each run's latencies would hinge on one random
  // alignment. Golden-ratio phases spread them evenly instead.
  const auto phase = [](std::size_t i) {
    return std::fmod(static_cast<double>(i) * 0.6180339887498949, 1.0);
  };
  const std::size_t chunks = ChunksPerSession(options.seconds);
  std::vector<Event> events;
  r.sessions.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    SessionLog& log = r.sessions[i];
    if (i < steady) {
      live[i].chunks = chunks;
      const double offset = 1000.0 * phase(i);
      for (std::size_t k = 0; k < chunks; ++k) {
        log.due_ms.push_back(offset + 1000.0 * static_cast<double>(k));
        events.push_back({log.due_ms.back(), false, i, k});
      }
    } else {
      live[i].chunks = w.short_chunks;
      // One open per 1/opens_per_s slot, at a spread phase inside it.
      const double open_due = (static_cast<double>(i - steady) + phase(i)) *
                              1000.0 / w.opens_per_s;
      events.push_back({open_due, true, i, 0});
      for (std::size_t k = 0; k < w.short_chunks; ++k) {
        log.due_ms.push_back(open_due + 1000.0 * static_cast<double>(k));
        events.push_back({log.due_ms.back(), false, i, k});
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.due_ms < b.due_ms;
                   });
  std::size_t expected_chunks = 0;
  for (const WireLive& l : live) expected_chunks += l.chunks;

  const std::vector<int> pids = fleet->Pids();
  const auto fleet_cpu = [&] {
    std::vector<double> cpu;
    for (const int pid : pids) cpu.push_back(ProcessCpuMs(pid));
    return cpu;
  };
  const auto client_bytes = [&] {
    std::uint64_t b = 0;
    for (const auto& c : clients) b += c->bytes_in() + c->bytes_out();
    return b;
  };

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](double ms) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
  };
  std::size_t delivered_total = 0;
  Clock::time_point last_delivery = t0;

  // Digests every complete chunk a session has received and closes the
  // session after its last one.
  const auto process = [&](std::size_t i, Clock::time_point now) {
    WireLive& s = live[i];
    SessionLog& log = r.sessions[i];
    net::NetClient& client = *clients[s.client];
    net::WireSessionState* st = client.mutable_session(s.sid);
    if (!s.acked && st->open_acked) {
      s.acked = true;
      open_ms.push_back(MsBetween(s.open_sent, now));
    }
    if (st->error) {
      if (!log.error) log.error = st->error->message;
      s.done = true;
      return;
    }
    while (st->shadow.size() - s.consumed >= kOutputSamplesPerChunk) {
      const ChunkDigest d = DigestChunk(std::span<const float>(
          st->shadow.data() + s.consumed, kOutputSamplesPerChunk));
      s.consumed += kOutputSamplesPerChunk;
      const std::size_t k = s.delivered++;
      if (k >= log.due_ms.size()) {
        log.extra_output = true;
        continue;
      }
      log.hashes.push_back(d.hash);
      log.nonfinite |= !d.finite;
      log.delivered_ms.push_back(MsBetween(t0, now));
      ++delivered_total;
      last_delivery = now;
      MarkChunk(ChunkFlow(i, k), false);
    }
    if (s.consumed > 0 && s.consumed == st->shadow.size()) {
      st->shadow.clear();
      s.consumed = 0;
    }
    if (s.delivered >= s.chunks && !s.close_sent) {
      std::string error;
      s.close_sent = true;
      if (!client.SendCloseSession(s.sid, &error) && !log.error) {
        log.error = "close: " + error;
      }
    }
    if (s.close_sent && st->closed) {
      s.done = true;
      log.extra_output |= !st->shadow.empty();
    }
  };

  std::this_thread::sleep_until(t0);
  const std::vector<double> cpu0 = fleet_cpu();
  const double gen0 = ThreadCpuMs();
  const std::uint64_t bytes0 = client_bytes();
  const Clock::time_point give_up =
      at(events.empty() ? 0.0 : events.back().due_ms) +
      std::chrono::seconds(30);
  std::vector<double> cpu_end;
  double gen_end = 0.0;
  std::uint64_t bytes_end = 0;
  std::vector<float> chunk_buf(kChunkSamples);
  std::size_t next = 0;
  const auto send_due = [&] {
    while (next < events.size() && Clock::now() >= at(events[next].due_ms)) {
      const Event& e = events[next++];
      WireLive& s = live[e.session];
      net::NetClient& client = *clients[s.client];
      std::string error;
      const auto a = Clock::now();
      r.lateness_ms.push_back(MsBetween(at(e.due_ms), a));
      bool ok;
      if (e.open) {
        const SessionSeeds& seeds = inputs.seeds(e.session);
        s.open_sent = a;
        ++r.opens_in_window;
        ok = client.SendOpenSession(s.sid, seeds.speaker_seed, seeds.ref_seed,
                                    &error);
        if (layer_samples != nullptr) {
          RecordSpan("api.send_open", a, Clock::now());
        }
      } else {
        inputs.FillChunk(e.session, e.k, chunk_buf.data());
        const auto b = Clock::now();
        MarkChunk(ChunkFlow(e.session, e.k), true);
        ok = client.SubmitChunk(s.sid, chunk_buf, &error);
        if (layer_samples != nullptr) {
          const auto c = Clock::now();
          RecordSpan("api.submit_chunk", b, c, ChunkFlow(e.session, e.k));
          (*layer_samples)["api.submit_us"].push_back(MsBetween(b, c) * 1e3);
        }
      }
      SessionLog& log = r.sessions[e.session];
      if (!ok && !log.error) log.error = "send: " + error;
    }
  };
  for (;;) {
    send_due();
    bool pending = next < events.size();
    for (const WireLive& s : live) pending |= !s.done;
    const auto now = Clock::now();
    if (!pending || now > give_up) break;
    auto wake = now + std::chrono::milliseconds(1);
    if (next < events.size()) wake = std::min(wake, at(events[next].due_ms));
    const auto wait =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now);
    for (const std::size_t c : WaitReadable(clients, wait)) {
      // Sends fall due while a burst of replies is drained; keep them on
      // schedule between connections.
      send_due();
      const Pumped p = Pump(*clients[c]);
      if (layer_samples != nullptr && p.got_bytes) {
        RecordSpan("api.pump", p.start, p.end);
        (*layer_samples)["api.collect_us"].push_back(
            MsBetween(p.start, p.end) * 1e3);
      }
      const std::size_t delivered_before = delivered_total;
      for (std::size_t i = c; i < total; i += num_clients) {
        if (live[i].done) continue;
        if (!p.ok) {
          if (!r.sessions[i].error) r.sessions[i].error = "recv: " + p.error;
          live[i].done = true;
          continue;
        }
        process(i, p.end);
      }
      if (layer_samples != nullptr && delivered_total > delivered_before) {
        RecordSpan("bench.digest", p.end, Clock::now());
      }
    }
    if (cpu_end.empty() && delivered_total == expected_chunks) {
      cpu_end = fleet_cpu();
      gen_end = ThreadCpuMs();
      bytes_end = client_bytes();
    }
  }
  if (cpu_end.empty()) {
    cpu_end = fleet_cpu();
    gen_end = ThreadCpuMs();
    bytes_end = client_bytes();
  }

  r.window_s = MsBetween(t0, last_delivery) / 1e3;
  const double router_cpu = cpu_end[0] - cpu0[0];
  const double shard_cpu = cpu_end[1] - cpu0[1] + cpu_end[2] - cpu0[2];
  r.serve_cpu_ms = router_cpu + shard_cpu;
  r.gen_cpu_ms = gen_end - gen0;
  double hwm_kb = 0.0;
  for (const int pid : pids) hwm_kb += ProcStatusKb(pid, "VmHWM");
  r.rss_mb = hwm_kb / 1024.0;
  for (SessionLog& log : r.sessions) {
    log.delivered_ms.resize(log.due_ms.size(),
                            std::numeric_limits<double>::infinity());
  }

  if (layer_samples != nullptr) {
    LayerSamples& samples = *layer_samples;
    std::vector<std::vector<obs::MetricFamily>> shards(2), router(1);
    if (!Scrape(fleet->shard_metrics[0], &shards[0]) ||
        !Scrape(fleet->shard_metrics[1], &shards[1]) ||
        !Scrape(fleet->router_metrics, &router[0])) {
      return fail("scraping /metrics failed");
    }
    const double per_chunk =
        1.0 / static_cast<double>(std::max<std::size_t>(1, delivered_total));
    const auto compute = MergedHistogram(shards, "nec_chunk_latency_seconds");
    r.layer["runtime.compute_p50_ms"] = {QuantileMs(compute, 0.50), "ms"};
    r.layer["runtime.compute_p99_ms"] = {QuantileMs(compute, 0.99), "ms"};
    r.layer["runtime.e2e_internal_p99_ms"] = {
        QuantileMs(MergedHistogram(shards, "nec_chunk_e2e_latency_seconds"),
                   0.99),
        "ms"};
    r.layer["runtime.queue_wait_p99_ms"] = {
        QuantileMs(
            MergedHistogram(shards, "nec_hop_latency_seconds", "shard_queue"),
            0.99),
        "ms"};
    const double batches = CounterSum(shards, "nec_batches_dispatched_total");
    r.layer["runtime.avg_batch_size"] = {
        batches > 0.0 ? CounterSum(shards, "nec_batched_chunks_total") / batches
                      : 1.0,
        "items"};
    r.layer["runtime.output_wait_p99_ms"] = {
        QuantileMs(MergedHistogram(shards, "nec_hop_latency_seconds", "reply"),
                   0.99),
        "ms"};
    r.layer["api.open_p50_ms"] = {Median(open_ms), "ms"};
    r.layer["api.submit_p99_us"] = {
        Quantile(samples["api.submit_us"], 0.99), "us"};
    r.layer["api.collect_p99_us"] = {
        Quantile(samples["api.collect_us"], 0.99), "us"};
    r.layer["api.bytes_per_chunk"] = {
        static_cast<double>(bytes_end - bytes0) * per_chunk, "B"};
    r.wire_only["net.router_cpu_ms_per_chunk"] = {router_cpu * per_chunk, "ms"};
    r.wire_only["net.shard_cpu_ms_per_chunk"] = {shard_cpu * per_chunk, "ms"};
    r.wire_only["net.hop.router_queue_p99_ms"] = {
        QuantileMs(
            MergedHistogram(router, "nec_hop_latency_seconds", "router_queue"),
            0.99),
        "ms"};
    r.wire_only["net.hop.upstream_write_p99_ms"] = {
        QuantileMs(MergedHistogram(router, "nec_hop_latency_seconds",
                                   "upstream_write"),
                   0.99),
        "ms"};
  }
  clients.clear();
  fleet.reset();
  return r;
}

}  // namespace nec::bench
