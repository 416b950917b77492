#include "net/router.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include "net/auth.h"
#include "net/client.h"
#include "obs/http.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "runtime/fault.h"
#include "runtime/stats.h"

namespace nec::net {
namespace {

constexpr const char* kComponent = "net.router";

/// splitmix64 finalizer — cheap, well-mixed 64-bit hash for ring points
/// and session placement.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void SleepMsInterruptible(int total_ms, const std::atomic<bool>& stop) {
  for (int waited = 0; waited < total_ms && !stop.load(std::memory_order_relaxed);
       waited += 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

double MsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t)
      .count();
}

}  // namespace

/// Health + placement bookkeeping for one shard. `up`,`sessions_active`
/// and the probe counters cross threads (prober / poll loop / metrics
/// snapshots) and are atomics; the consecutive counters are
/// prober-thread-only.
struct Router::ShardState {
  ShardSpec spec;
  std::string label;  ///< "host:port" for logs and metric labels
  std::atomic<bool> up{false};
  std::size_t consecutive_failures = 0;
  std::size_t consecutive_successes = 0;
  std::atomic<std::uint64_t> sessions_active{0};
  std::atomic<std::uint64_t> sessions_assigned_total{0};
  std::atomic<std::uint64_t> ejections{0};
  std::atomic<std::uint64_t> probes_ok{0};
  std::atomic<std::uint64_t> probes_failed{0};

  /// Admission control (set by the prober from kShardStatus reports,
  /// read by the poll loop's PickShard).
  std::atomic<bool> saturated{false};
  std::size_t calm_statuses = 0;  ///< prober-thread-only hysteresis count
  std::atomic<std::uint64_t> load_queue_depth{0};
  std::atomic<std::uint32_t> load_e2e_p99_bits{0};  ///< float, bit-stored
  std::atomic<std::uint64_t> load_overload_total{0};

  /// Draining reshard (DrainShard sets `draining`; the poll loop flips
  /// `drained` once no session or migration references the shard).
  std::atomic<bool> draining{false};
  std::atomic<bool> drained{false};
  std::atomic<std::uint64_t> sessions_migrated{0};

  /// Persistent wire connection the prober uses for kStatusRequest
  /// polls (lazily dialed, redialed on failure). Prober thread only.
  std::unique_ptr<NetClient> status_client;
};

/// Router-side connection to one shard on behalf of ONE client
/// connection (wire session ids are only unique per client).
struct Router::Upstream {
  int fd = -1;
  FrameDecoder decoder;
  std::string outbound;
  std::size_t out_off = 0;
  /// When the oldest unflushed byte was enqueued (valid while the buffer
  /// is non-empty). FlushUpstream records the upstream_write hop from it
  /// once the buffer fully drains.
  std::chrono::steady_clock::time_point pending_since{};

  bool connected() const { return fd >= 0; }
  bool has_pending() const { return out_off < outbound.size(); }
};

struct Router::Connection {
  /// One sticky session mid-reshard. Created when the router asks the
  /// old shard to drain the session; client frames arriving in the
  /// window are parked (encoded, in order) and flushed to the new shard
  /// once its restore ack lands, so the client observes an unbroken
  /// stream.
  struct Migration {
    static constexpr std::size_t kNoTarget = static_cast<std::size_t>(-1);
    std::size_t from_shard = 0;
    std::size_t target = kNoTarget;  ///< set once the snapshot is placed
    std::string parked;              ///< encoded client frames, FIFO
  };

  int fd = -1;
  FrameDecoder decoder;
  std::string outbound;
  std::size_t out_off = 0;
  bool close_after_write = false;
  /// The client hung up (read EOF). With no session left open that is an
  /// orderly close, not a drop.
  bool peer_closed = false;
  bool authed = false;      ///< v2 handshake done (or auth disabled)
  bool challenged = false;  ///< kAuthChallenge outstanding
  std::uint64_t nonce = 0;
  std::unordered_map<std::uint64_t, std::size_t> session_shard;  ///< sid → shard
  std::unordered_map<std::uint64_t, Migration> migrations;  ///< sid → reshard
  /// Flow id announced by the last kTraceContext per session, consumed by
  /// that session's next kSubmitChunk so the router.forward span joins the
  /// client's cross-process flow. Purely observational — never gates
  /// forwarding.
  std::unordered_map<std::uint64_t, std::uint64_t> pending_flow;
  std::vector<Upstream> upstreams;  ///< index-aligned with Router::shards_
  /// Poll-thread copy of each shard's up flag, used to detect down
  /// transitions that require faulting this connection's sessions.
  std::vector<bool> last_up;
};

Router::Router(Options options) : options_(std::move(options)) {
  for (const ShardSpec& spec : options_.shards) {
    auto shard = std::make_unique<ShardState>();
    shard->spec = spec;
    shard->label = spec.host + ":" + std::to_string(spec.port);
    shards_.push_back(std::move(shard));
  }
}

Router::~Router() { Stop(); }

bool Router::Start(std::string* error) {
  if (shards_.empty()) {
    if (error != nullptr) *error = "router: no shards configured";
    return false;
  }
  IgnoreSigpipe();
  if (!listener_.Listen(options_.host, options_.port, error)) return false;
  port_ = listener_.port();

  // Ring over ALL shards (down ones are skipped at lookup time), so a
  // readmitted shard gets back exactly the ring segments it had.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (std::size_t v = 0; v < options_.vnodes; ++v) {
      ring_.emplace_back(Mix64((s + 1) * 0x100000001B3ull + v), s);
    }
  }
  std::sort(ring_.begin(), ring_.end());

  // One synchronous probe round so the first client sees real health
  // (and the hello cache is warm when any shard is alive).
  for (auto& shard : shards_) ProbeOnce(*shard);
  RefreshHelloCache();

  stop_.store(false, std::memory_order_relaxed);
  serve_thread_ = std::thread([this] { Serve(); });
  probe_thread_ = std::thread([this] { ProbeLoop(); });
  NEC_LOG_INFO(kComponent, "routing %zu shard(s) on %s:%d", shards_.size(),
               options_.host.c_str(), port_);
  return true;
}

void Router::Stop() {
  if (!serve_thread_.joinable() && !probe_thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  if (serve_thread_.joinable()) serve_thread_.join();
  if (probe_thread_.joinable()) probe_thread_.join();
  for (auto& conn : connections_) CloseConnection(*conn, /*dropped=*/true);
  connections_.clear();
  listener_.Close();
}

// ------------------------------------------------------------- probing

void Router::ProbeLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    SleepMsInterruptible(options_.probe_interval_ms, stop_);
    if (stop_.load(std::memory_order_relaxed)) return;
    for (auto& shard : shards_) {
      ProbeOnce(*shard);
      ProbeStatus(*shard);
    }
    RefreshHelloCache();
  }
}

void Router::ProbeOnce(ShardState& shard) {
  std::string body;
  std::string error;
  int status = 0;
  obs::HttpGetOptions http_options;
  http_options.connect_timeout_ms = 500;
  http_options.read_timeout_ms = 1000;
  const bool ok =
      obs::HttpGet(shard.spec.host, shard.spec.health_port, "/healthz", &body,
                   &status, &error, http_options) &&
      status == 200;
  if (ok) {
    shard.probes_ok.fetch_add(1, std::memory_order_relaxed);
    shard.consecutive_failures = 0;
    shard.consecutive_successes += 1;
    if (!shard.up.load(std::memory_order_relaxed) &&
        shard.consecutive_successes >= options_.readmit_after) {
      shard.up.store(true, std::memory_order_relaxed);
      NEC_LOG_INFO(kComponent, "shard %s readmitted", shard.label.c_str());
    }
  } else {
    shard.probes_failed.fetch_add(1, std::memory_order_relaxed);
    shard.consecutive_successes = 0;
    shard.consecutive_failures += 1;
    if (shard.up.load(std::memory_order_relaxed) &&
        shard.consecutive_failures >= options_.eject_after) {
      shard.up.store(false, std::memory_order_relaxed);
      shard.ejections.fetch_add(1, std::memory_order_relaxed);
      NEC_LOG_WARN(kComponent, "shard %s ejected (%s)", shard.label.c_str(),
                   error.empty() ? "non-200 health" : error.c_str());
    }
  }
  // Bootstrap: before the first success/failure streak completes, the
  // very first probe decides the initial state.
  if (shard.consecutive_successes + shard.consecutive_failures == 1) {
    shard.up.store(ok, std::memory_order_relaxed);
  }
}

void Router::ProbeStatus(ShardState& shard) {
  if (!shard.up.load(std::memory_order_relaxed)) {
    if (shard.status_client != nullptr) shard.status_client->Close();
    return;
  }
  if (shard.status_client == nullptr) {
    shard.status_client = std::make_unique<NetClient>();
  }
  NetClient& client = *shard.status_client;
  std::string error;
  if (!client.connected()) {
    client.set_secret(options_.secret);
    HelloInfo info;
    if (!client.Connect(shard.spec.host, shard.spec.port,
                        options_.connect_timeout_ms, &error) ||
        !client.Hello(&info, 2000, &error)) {
      client.Close();
      return;  // redial next probe tick; /healthz decides up/down
    }
  }
  ShardStatusPayload status;
  if (!client.QueryStatus(&status, 2000, &error)) {
    client.Close();
    return;
  }
  shard.load_queue_depth.store(status.queue_depth, std::memory_order_relaxed);
  shard.load_e2e_p99_bits.store(std::bit_cast<std::uint32_t>(status.e2e_p99_ms),
                                std::memory_order_relaxed);
  shard.load_overload_total.store(status.overload_total,
                                  std::memory_order_relaxed);

  // Saturation hysteresis: saturate immediately at/above the threshold;
  // recover only after `recover_statuses` consecutive calm reports, so a
  // shard hovering at the boundary doesn't thrash.
  const bool was_saturated = shard.saturated.load(std::memory_order_relaxed);
  if (status.queue_depth >= options_.saturate_queue_depth) {
    shard.calm_statuses = 0;
    if (!was_saturated) {
      shard.saturated.store(true, std::memory_order_relaxed);
      NEC_LOG_WARN(kComponent, "shard %s saturated (queue depth %u)",
                   shard.label.c_str(),
                   static_cast<unsigned>(status.queue_depth));
    }
  } else if (was_saturated) {
    if (status.queue_depth <= options_.recover_queue_depth) {
      if (++shard.calm_statuses >= options_.recover_statuses) {
        shard.saturated.store(false, std::memory_order_relaxed);
        shard.calm_statuses = 0;
        NEC_LOG_INFO(kComponent, "shard %s recovered (queue depth %u)",
                     shard.label.c_str(),
                     static_cast<unsigned>(status.queue_depth));
      }
    } else {
      shard.calm_statuses = 0;
    }
  }
}

void Router::RefreshHelloCache() {
  {
    std::lock_guard<std::mutex> lock(hello_mutex_);
    if (hello_payload_.has_value()) return;
  }
  for (const auto& shard : shards_) {
    if (!shard->up.load(std::memory_order_relaxed)) continue;
    NetClient probe;
    probe.set_secret(options_.secret);
    std::string error;
    HelloInfo info;
    if (!probe.Connect(shard->spec.host, shard->spec.port,
                       options_.connect_timeout_ms, &error) ||
        !probe.Hello(&info, 2000, &error)) {
      continue;
    }
    std::vector<std::uint8_t> payload;
    PutU32(&payload, info.version);
    PutU32(&payload, info.input_sample_rate);
    PutU32(&payload, info.chunk_samples);
    PutU32(&payload, info.output_sample_rate);
    PutU32(&payload, info.output_samples_per_chunk);
    std::lock_guard<std::mutex> lock(hello_mutex_);
    hello_payload_ = std::move(payload);
    return;
  }
}

// ----------------------------------------------------------- poll loop

void Router::Serve() {
  struct Slot {
    std::size_t conn_index;
    /// shards_.size() means "the client fd"; otherwise the upstream index.
    std::size_t shard_index;
  };
  std::vector<struct pollfd> pfds;
  std::vector<Slot> slots;
  while (!stop_.load(std::memory_order_relaxed)) {
    pfds.clear();
    slots.clear();
    pfds.push_back({listener_.fd(), POLLIN, 0});
    slots.push_back({0, 0});
    for (std::size_t c = 0; c < connections_.size(); ++c) {
      Connection& conn = *connections_[c];
      short events = POLLIN;
      if (conn.out_off < conn.outbound.size()) events |= POLLOUT;
      pfds.push_back({conn.fd, events, 0});
      slots.push_back({c, shards_.size()});
      for (std::size_t s = 0; s < conn.upstreams.size(); ++s) {
        const Upstream& up = conn.upstreams[s];
        if (!up.connected()) continue;
        short up_events = POLLIN;
        if (up.out_off < up.outbound.size()) up_events |= POLLOUT;
        pfds.push_back({up.fd, up_events, 0});
        slots.push_back({c, s});
      }
    }
    const int pr = ::poll(pfds.data(), pfds.size(), options_.tick_ms);
    if (pr < 0 && errno != EINTR) break;

    if (pfds[0].revents & POLLIN) AcceptPending();

    bool mutated = false;
    for (std::size_t i = 1; i < pfds.size() && !mutated; ++i) {
      const short revents = pfds[i].revents;
      if (revents == 0) continue;
      Connection& conn = *connections_[slots[i].conn_index];
      if (slots[i].shard_index == shards_.size()) {
        bool alive = (revents & (POLLERR | POLLHUP | POLLNVAL)) == 0;
        if (alive && (revents & POLLIN)) alive = ReadClient(conn);
        if (!alive) {
          // An orderly hang-up after every session closed is not a drop
          // (net_stats.h: dropped = closed by error, timeout or us).
          CloseConnection(conn, /*dropped=*/!conn.peer_closed ||
                                    !conn.session_shard.empty() ||
                                    !conn.migrations.empty());
          connections_.erase(connections_.begin() +
                             static_cast<std::ptrdiff_t>(slots[i].conn_index));
          mutated = true;  // pfds indices are stale; repoll
        }
      } else {
        const std::size_t s = slots[i].shard_index;
        if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
          NEC_LOG_WARN(kComponent, "upstream %s poll error (revents 0x%x)",
                       shards_[s]->label.c_str(), revents);
          FaultShardSessions(conn, s,
                             "shard " + shards_[s]->label +
                                 " connection lost");
        } else if ((revents & POLLIN) && !ReadUpstream(conn, s)) {
          NEC_LOG_WARN(kComponent, "upstream %s read failed (errno %d)",
                       shards_[s]->label.c_str(), errno);
          FaultShardSessions(conn, s,
                             "shard " + shards_[s]->label +
                                 " connection lost");
        }
      }
    }
    if (mutated) continue;

    ApplyHealthTransitions();
    PumpDrains();

    // Flush both directions; a client that went away gets reaped here.
    for (std::size_t c = 0; c < connections_.size(); ++c) {
      Connection& conn = *connections_[c];
      bool alive = FlushClient(conn);
      if (alive) {
        for (std::size_t s = 0; s < conn.upstreams.size(); ++s) {
          if (conn.upstreams[s].connected() && !FlushUpstream(conn, s)) {
            FaultShardSessions(conn, s,
                               "shard " + shards_[s]->label +
                                   " write failed");
          }
        }
      }
      if (alive && conn.close_after_write &&
          conn.out_off >= conn.outbound.size()) {
        alive = false;
      }
      if (!alive) {
        CloseConnection(conn, /*dropped=*/!conn.close_after_write);
        connections_.erase(connections_.begin() +
                           static_cast<std::ptrdiff_t>(c));
        --c;
      }
    }
  }
}

void Router::AcceptPending() {
  for (;;) {
    const int fd = listener_.Accept();
    if (fd < 0) return;
    if (connections_.size() >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->authed = options_.secret.empty();
    conn->upstreams.resize(shards_.size());
    conn->last_up.resize(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      conn->last_up[s] = shards_[s]->up.load(std::memory_order_relaxed);
    }
    connections_.push_back(std::move(conn));
    stats_.AddAccepted();
  }
}

bool Router::ReadClient(Connection& conn) {
  const std::chrono::steady_clock::time_point received =
      std::chrono::steady_clock::now();
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n == 0) {
      conn.peer_closed = true;
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    stats_.AddBytesIn(static_cast<std::uint64_t>(n));
    conn.decoder.Feed(buf, static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < sizeof buf) break;
  }
  Frame frame;
  for (;;) {
    const DecodeStatus status = conn.decoder.Next(&frame);
    if (status == DecodeStatus::kNeedMore) return true;
    if (IsDecodeError(status)) {
      stats_.AddDecodeError();
      SendErrorToClient(
          conn, 0,
          static_cast<std::uint32_t>(runtime::ErrorCategory::kBadInput),
          std::string("malformed frame: ") + DecodeStatusName(status));
      conn.close_after_write = true;
      return true;
    }
    stats_.AddFrameIn();
    if (!HandleClientFrame(conn, std::move(frame), received)) return false;
  }
}

bool Router::HandleClientFrame(Connection& conn, Frame&& frame,
                               std::chrono::steady_clock::time_point received) {
  // Pre-auth gate: until the challenge–response completes, the only
  // frames a client may send are kHello and kAuthResponse. Anything else
  // is an unauthenticated probe and closes the connection.
  if (!conn.authed && frame.type != FrameType::kHello &&
      frame.type != FrameType::kAuthResponse) {
    RejectClientAuth(conn, std::string("unauthenticated ") +
                               FrameTypeName(frame.type) + " frame");
    return true;
  }
  switch (frame.type) {
    case FrameType::kHello: {
      PayloadReader reader(frame.payload);
      std::uint32_t min_ver = 0;
      std::uint32_t max_ver = 0;
      if (!reader.U32(&min_ver) || !reader.U32(&max_ver) ||
          !reader.complete() || min_ver > kProtocolVersion ||
          max_ver < kProtocolVersion) {
        stats_.AddProtocolError();
        SendErrorToClient(
            conn, 0,
            static_cast<std::uint32_t>(runtime::ErrorCategory::kBadInput),
            "bad hello (payload or unsupported version)");
        return true;
      }
      if (!conn.authed) {
        // Fresh nonce per challenge: a replayed tag from another
        // connection (or an earlier challenge here) never verifies.
        conn.nonce = RandomNonce();
        conn.challenged = true;
        Frame challenge;
        challenge.type = FrameType::kAuthChallenge;
        PutU64(&challenge.payload, conn.nonce);
        SendToClient(conn, challenge);
        return true;
      }
      SendHelloAck(conn);
      return true;
    }

    case FrameType::kAuthResponse: {
      if (conn.authed) {
        stats_.AddProtocolError();
        SendErrorToClient(
            conn, 0,
            static_cast<std::uint32_t>(runtime::ErrorCategory::kBadInput),
            "auth response on an authenticated connection");
        return true;
      }
      if (!conn.challenged) {
        RejectClientAuth(conn, "auth response without an outstanding challenge");
        return true;
      }
      // One verification attempt per challenge, pass or fail.
      conn.challenged = false;
      PayloadReader reader(frame.payload);
      std::uint64_t tag = 0;
      if (!reader.U64(&tag) || !reader.complete()) {
        RejectClientAuth(conn, "malformed auth response payload");
        return true;
      }
      if (tag != AuthTag(options_.secret, conn.nonce)) {
        RejectClientAuth(conn, "auth tag mismatch");
        return true;
      }
      conn.authed = true;
      stats_.AddAuthOk();
      SendHelloAck(conn);
      return true;
    }

    case FrameType::kPing: {
      Frame pong;
      pong.type = FrameType::kPong;
      pong.session_id = frame.session_id;
      pong.payload = std::move(frame.payload);
      SendToClient(conn, pong);
      return true;
    }

    case FrameType::kOpenSession: {
      auto it = conn.session_shard.find(frame.session_id);
      std::size_t shard_index;
      if (it != conn.session_shard.end()) {
        shard_index = it->second;  // duplicate open: let the shard reject
      } else {
        bool all_saturated = false;
        const auto picked = PickShard(frame.session_id, &all_saturated);
        if (!picked.has_value()) {
          // Typed shed BEFORE buffering: the client learns immediately
          // instead of its open rotting in a queue toward a shard that
          // cannot absorb it.
          if (all_saturated) {
            stats_.AddOverloadShed();
            SendErrorToClient(
                conn, frame.session_id,
                static_cast<std::uint32_t>(runtime::ErrorCategory::kOverload),
                "fleet saturated: every live shard is at capacity");
          } else {
            stats_.AddProtocolError();
            SendErrorToClient(
                conn, frame.session_id,
                static_cast<std::uint32_t>(runtime::ErrorCategory::kOverload),
                "no healthy shards");
          }
          return true;
        }
        shard_index = *picked;
        if (!EnsureUpstream(conn, shard_index)) {
          SendErrorToClient(
              conn, frame.session_id,
              static_cast<std::uint32_t>(runtime::ErrorCategory::kOverload),
              "shard " + shards_[shard_index]->label + " unreachable");
          return true;
        }
        const Upstream& up = conn.upstreams[shard_index];
        if (up.outbound.size() - up.out_off > options_.admission_backlog_bytes) {
          stats_.AddOverloadShed();
          SendErrorToClient(
              conn, frame.session_id,
              static_cast<std::uint32_t>(runtime::ErrorCategory::kOverload),
              "shard " + shards_[shard_index]->label + " backlog full");
          return true;
        }
        conn.session_shard.emplace(frame.session_id, shard_index);
        shards_[shard_index]->sessions_active.fetch_add(
            1, std::memory_order_relaxed);
        shards_[shard_index]->sessions_assigned_total.fetch_add(
            1, std::memory_order_relaxed);
        stats_.AddSessionOpened();
      }
      ForwardToShard(conn, shard_index, frame);
      return true;
    }

    case FrameType::kTraceContext: {
      // Trace metadata rides the same route as the chunk it annotates —
      // including migration parking, so replay order to the restore
      // target is preserved — but never generates errors: a context frame
      // for an unknown session is dropped silently rather than failing
      // the stream (§5g). The flow id is also stashed locally so the
      // router.forward span for the next submit joins the client's flow.
      const auto it = conn.session_shard.find(frame.session_id);
      if (it == conn.session_shard.end()) return true;
      PayloadReader reader(frame.payload);
      std::uint64_t flow = 0;
      if (reader.U64(&flow) && reader.complete() && flow != 0) {
        conn.pending_flow[frame.session_id] = flow;
      }
      const auto mig = conn.migrations.find(frame.session_id);
      if (mig != conn.migrations.end()) {
        EncodeFrame(frame, &mig->second.parked);
        return true;
      }
      ForwardToShard(conn, it->second, frame);
      return true;
    }

    case FrameType::kSubmitChunk:
    case FrameType::kCloseSession: {
      const auto it = conn.session_shard.find(frame.session_id);
      if (it == conn.session_shard.end()) {
        stats_.AddProtocolError();
        SendErrorToClient(
            conn, frame.session_id,
            static_cast<std::uint32_t>(runtime::ErrorCategory::kBadInput),
            "unknown wire session id");
        return true;
      }
      const auto mig = conn.migrations.find(frame.session_id);
      if (mig != conn.migrations.end()) {
        // Mid-reshard: park in order; flushed after the restore ack.
        // Parked bytes are bounded by the same admission guard as
        // upstream backlogs — a restore target that never acks must not
        // let a still-streaming client grow this buffer without bound.
        EncodeFrame(frame, &mig->second.parked);
        if (mig->second.parked.size() > options_.admission_backlog_bytes) {
          FaultMigration(conn, frame.session_id,
                         "reshard stalled: parked backlog full");
        }
        return true;
      }
      ForwardToShard(conn, it->second, frame);
      if (frame.type == FrameType::kSubmitChunk) {
        // router_queue hop: socket read → upstream enqueue (decode plus
        // any head-of-line wait behind earlier frames in this batch).
        runtime::HopStats::Global().Record(runtime::Hop::kRouterQueue,
                                           MsSince(received));
        obs::TraceRecorder& rec = obs::TraceRecorder::Global();
        if (rec.enabled()) {
          std::uint64_t flow = 0;
          const auto fit = conn.pending_flow.find(frame.session_id);
          if (fit != conn.pending_flow.end()) {
            flow = fit->second;
            conn.pending_flow.erase(fit);
          }
          const auto elapsed =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - received)
                  .count();
          const std::uint64_t dur_ns =
              elapsed > 0 ? static_cast<std::uint64_t>(elapsed) : 0;
          rec.RecordSpan("router.forward", "net", obs::TraceNowNs() - dur_ns,
                         dur_ns, flow, frame.session_id);
        }
      }
      return true;
    }

    default:
      stats_.AddProtocolError();
      SendErrorToClient(
          conn, frame.session_id,
          static_cast<std::uint32_t>(runtime::ErrorCategory::kBadInput),
          std::string("unexpected frame type: ") + FrameTypeName(frame.type));
      return true;
  }
}

bool Router::ReadUpstream(Connection& conn, std::size_t shard_index) {
  Upstream& up = conn.upstreams[shard_index];
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(up.fd, buf, sizeof buf, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    up.decoder.Feed(buf, static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < sizeof buf) break;
  }
  Frame frame;
  for (;;) {
    const DecodeStatus status = up.decoder.Next(&frame);
    if (status == DecodeStatus::kNeedMore) return true;
    if (IsDecodeError(status)) {
      NEC_LOG_WARN(kComponent, "shard %s sent malformed frame: %s",
                   shards_[shard_index]->label.c_str(),
                   DecodeStatusName(status));
      return false;
    }
    // A draining shard hands the router the session's full stream state
    // once quiescent; route it to a survivor instead of the client.
    if (frame.type == FrameType::kSessionSnapshot) {
      HandleSessionSnapshot(conn, shard_index, std::move(frame));
      continue;
    }
    // The restore ack for a migrated session is router-internal — the
    // client already holds its open ack from the original placement.
    if (frame.type == FrameType::kOpenAck) {
      const auto mig = conn.migrations.find(frame.session_id);
      if (mig != conn.migrations.end() && mig->second.target == shard_index) {
        Upstream& target_up = conn.upstreams[shard_index];
        if (!target_up.has_pending() && !mig->second.parked.empty()) {
          target_up.pending_since = std::chrono::steady_clock::now();
        }
        target_up.outbound += mig->second.parked;
        shards_[mig->second.from_shard]->sessions_migrated.fetch_add(
            1, std::memory_order_relaxed);
        stats_.AddSessionMigrated();
        conn.migrations.erase(mig);
        continue;
      }
    }
    // Terminal frames release the sticky assignment.
    if (frame.session_id != 0 &&
        (frame.type == FrameType::kClosed || frame.type == FrameType::kError)) {
      if (conn.session_shard.erase(frame.session_id) > 0) {
        shards_[shard_index]->sessions_active.fetch_sub(
            1, std::memory_order_relaxed);
        if (frame.type == FrameType::kClosed) {
          stats_.AddSessionClosed();
        } else {
          stats_.AddSessionFaulted();
        }
      }
      conn.migrations.erase(frame.session_id);
      conn.pending_flow.erase(frame.session_id);
    }
    SendToClient(conn, frame);
  }
}

std::optional<std::size_t> Router::PickShard(std::uint64_t wire_sid,
                                             bool* all_saturated) const {
  if (all_saturated != nullptr) *all_saturated = false;
  if (ring_.empty()) return std::nullopt;
  const std::uint64_t h = Mix64(wire_sid);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(h, std::size_t{0}));
  bool saw_live = false;
  for (std::size_t step = 0; step < ring_.size(); ++step, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    const ShardState& shard = *shards_[it->second];
    if (!shard.up.load(std::memory_order_relaxed) ||
        shard.draining.load(std::memory_order_relaxed)) {
      continue;
    }
    saw_live = true;
    if (shard.saturated.load(std::memory_order_relaxed)) continue;
    return it->second;
  }
  if (saw_live && all_saturated != nullptr) *all_saturated = true;
  return std::nullopt;
}

std::optional<std::size_t> Router::PickMigrationTarget(
    std::uint64_t wire_sid) const {
  if (auto target = PickShard(wire_sid, nullptr)) return target;
  // Every eligible shard is saturated: landing a migrating session on a
  // busy shard beats faulting it. Same clockwise walk, saturation
  // ignored.
  if (ring_.empty()) return std::nullopt;
  const std::uint64_t h = Mix64(wire_sid);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(h, std::size_t{0}));
  for (std::size_t step = 0; step < ring_.size(); ++step, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    const ShardState& shard = *shards_[it->second];
    if (shard.up.load(std::memory_order_relaxed) &&
        !shard.draining.load(std::memory_order_relaxed)) {
      return it->second;
    }
  }
  return std::nullopt;
}

bool Router::EnsureUpstream(Connection& conn, std::size_t shard_index) {
  Upstream& up = conn.upstreams[shard_index];
  if (up.connected()) return true;
  const ShardSpec& spec = shards_[shard_index]->spec;
  std::string error;
  int fd = -1;
  if (options_.secret.empty()) {
    // v1 behavior: shards without a secret accept frames with no
    // handshake, so the router just dials.
    fd = DialTcp(spec.host, spec.port, options_.connect_timeout_ms, &error);
  } else {
    // The shard gates every frame behind challenge–response; run the
    // blocking handshake through a NetClient, then adopt its socket.
    NetClient handshake;
    handshake.set_secret(options_.secret);
    HelloInfo info;
    if (handshake.Connect(spec.host, spec.port, options_.connect_timeout_ms,
                          &error) &&
        handshake.Hello(&info, options_.upstream_hello_timeout_ms, &error)) {
      fd = handshake.ReleaseFd();
    }
  }
  if (fd < 0) {
    NEC_LOG_WARN(kComponent, "dial shard %s: %s",
                 shards_[shard_index]->label.c_str(), error.c_str());
    return false;
  }
  SetNonBlocking(fd, true);
  up.fd = fd;
  up.decoder.Reset();
  up.outbound.clear();
  up.out_off = 0;
  return true;
}

void Router::FaultMigration(Connection& conn, std::uint64_t wire_sid,
                            const std::string& why) {
  const auto mit = conn.migrations.find(wire_sid);
  if (mit == conn.migrations.end()) return;
  const Connection::Migration& mig = mit->second;
  // If the restore already landed on a target, close the session there
  // so the rehomed state doesn't leak on a shard the client will never
  // reach again.
  if (mig.target != Connection::Migration::kNoTarget &&
      conn.upstreams[mig.target].connected()) {
    Frame close;
    close.type = FrameType::kCloseSession;
    close.session_id = wire_sid;
    ForwardToShard(conn, mig.target, close);
  }
  SendErrorToClient(
      conn, wire_sid,
      static_cast<std::uint32_t>(runtime::ErrorCategory::kOverload), why);
  stats_.AddSessionFaulted();
  const auto sit = conn.session_shard.find(wire_sid);
  if (sit != conn.session_shard.end()) {
    // session_shard tracks whichever shard currently holds the active
    // count (source pre-snapshot, target post-restore).
    shards_[sit->second]->sessions_active.fetch_sub(
        1, std::memory_order_relaxed);
    conn.session_shard.erase(sit);
  }
  conn.migrations.erase(wire_sid);
}

void Router::FaultShardSessions(Connection& conn, std::size_t shard_index,
                                const std::string& why) {
  Upstream& up = conn.upstreams[shard_index];
  if (up.connected()) {
    ::close(up.fd);
    up.fd = -1;
    up.decoder.Reset();
    up.outbound.clear();
    up.out_off = 0;
  }
  // Every session pinned to this shard is unrecoverable: the shard-side
  // SessionManager state is gone. Same taxonomy as an in-process
  // invariant fault, one level up.
  for (auto it = conn.session_shard.begin(); it != conn.session_shard.end();) {
    if (it->second == shard_index) {
      SendErrorToClient(
          conn, it->first,
          static_cast<std::uint32_t>(runtime::ErrorCategory::kInvariant),
          why);
      stats_.AddSessionFaulted();
      shards_[shard_index]->sessions_active.fetch_sub(
          1, std::memory_order_relaxed);
      it = conn.session_shard.erase(it);
    } else {
      ++it;
    }
  }
  // Drop migrations whose session just faulted (covers both a dead
  // source mid-drain and a dead restore target).
  for (auto it = conn.migrations.begin(); it != conn.migrations.end();) {
    if (conn.session_shard.find(it->first) == conn.session_shard.end()) {
      it = conn.migrations.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------- draining reshard

bool Router::DrainShard(const std::string& label, std::string* error) {
  for (auto& shard : shards_) {
    if (shard->label != label) continue;
    if (!shard->draining.exchange(true, std::memory_order_relaxed)) {
      NEC_LOG_INFO(kComponent, "draining shard %s", label.c_str());
    }
    return true;
  }
  if (error != nullptr) *error = "unknown shard: " + label;
  return false;
}

void Router::PumpDrains() {
  bool any_draining = false;
  for (const auto& shard : shards_) {
    if (shard->draining.load(std::memory_order_relaxed) &&
        !shard->drained.load(std::memory_order_relaxed)) {
      any_draining = true;
      break;
    }
  }
  if (!any_draining) return;

  // Ask draining shards to quiesce + snapshot every session still
  // pinned to them. The Migration entry doubles as the "already asked"
  // marker, so this is idempotent across ticks.
  for (auto& conn : connections_) {
    for (const auto& [sid, shard_index] : conn->session_shard) {
      ShardState& shard = *shards_[shard_index];
      if (!shard.draining.load(std::memory_order_relaxed)) continue;
      if (conn->migrations.count(sid) != 0) continue;
      if (!conn->upstreams[shard_index].connected()) continue;
      Frame drain;
      drain.type = FrameType::kDrainSession;
      drain.session_id = sid;
      ForwardToShard(*conn, shard_index, drain);
      conn->migrations.emplace(
          sid, Connection::Migration{.from_shard = shard_index});
    }
  }

  // A draining shard is drained once nothing references it: no sticky
  // assignment and no in-flight migration from or onto it.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardState& shard = *shards_[s];
    if (!shard.draining.load(std::memory_order_relaxed) ||
        shard.drained.load(std::memory_order_relaxed)) {
      continue;
    }
    bool referenced = false;
    for (const auto& conn : connections_) {
      for (const auto& [sid, shard_index] : conn->session_shard) {
        if (shard_index == s) referenced = true;
      }
      for (const auto& [sid, migration] : conn->migrations) {
        if (migration.from_shard == s || migration.target == s) {
          referenced = true;
        }
      }
      if (referenced) break;
    }
    if (!referenced) {
      shard.drained.store(true, std::memory_order_relaxed);
      NEC_LOG_INFO(
          kComponent, "shard %s drained (%llu session(s) migrated)",
          shard.label.c_str(),
          static_cast<unsigned long long>(
              shard.sessions_migrated.load(std::memory_order_relaxed)));
    }
  }
}

void Router::HandleSessionSnapshot(Connection& conn, std::size_t from_shard,
                                   Frame&& frame) {
  const std::uint64_t sid = frame.session_id;
  const auto mig = conn.migrations.find(sid);
  const auto sit = conn.session_shard.find(sid);
  if (mig == conn.migrations.end() || sit == conn.session_shard.end() ||
      sit->second != from_shard ||
      mig->second.target != Connection::Migration::kNoTarget) {
    NEC_LOG_WARN(kComponent, "shard %s sent unsolicited snapshot for sid %llu",
                 shards_[from_shard]->label.c_str(),
                 static_cast<unsigned long long>(sid));
    return;
  }
  const auto target = PickMigrationTarget(sid);
  if (!target.has_value() || !EnsureUpstream(conn, *target)) {
    // No survivor can absorb the session; this is the one drain path
    // that faults, and only because the fleet has nowhere to put it.
    SendErrorToClient(
        conn, sid,
        static_cast<std::uint32_t>(runtime::ErrorCategory::kInvariant),
        "no shard available to absorb drained session");
    stats_.AddSessionFaulted();
    shards_[from_shard]->sessions_active.fetch_sub(1,
                                                   std::memory_order_relaxed);
    conn.session_shard.erase(sit);
    conn.migrations.erase(mig);
    return;
  }
  // The snapshot blob crosses verbatim: only the shards interpret it,
  // the router just rehomes it.
  Frame restore;
  restore.type = FrameType::kRestoreSession;
  restore.session_id = sid;
  restore.payload = std::move(frame.payload);
  ForwardToShard(conn, *target, restore);
  sit->second = *target;
  mig->second.target = *target;
  shards_[from_shard]->sessions_active.fetch_sub(1, std::memory_order_relaxed);
  shards_[*target]->sessions_active.fetch_add(1, std::memory_order_relaxed);
  shards_[*target]->sessions_assigned_total.fetch_add(
      1, std::memory_order_relaxed);
}

void Router::ApplyHealthTransitions() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const bool up_now = shards_[s]->up.load(std::memory_order_relaxed);
    for (auto& conn : connections_) {
      if (conn->last_up[s] && !up_now) {
        FaultShardSessions(*conn, s, "shard " + shards_[s]->label +
                                         " ejected by health probe");
      }
      conn->last_up[s] = up_now;
    }
  }
}

void Router::SendToClient(Connection& conn, const Frame& frame) {
  EncodeFrame(frame, &conn.outbound);
  stats_.AddFrameOut();
}

void Router::RejectClientAuth(Connection& conn, const std::string& message) {
  stats_.AddAuthRejected();
  NEC_LOG_WARN(kComponent, "auth reject fd %d: %s", conn.fd, message.c_str());
  Frame frame;
  frame.type = FrameType::kAuthReject;
  frame.session_id = 0;
  PutU32(&frame.payload, static_cast<std::uint32_t>(
                             runtime::ErrorCategory::kAuthRejected));
  frame.payload.insert(frame.payload.end(), message.begin(), message.end());
  SendToClient(conn, frame);
  conn.close_after_write = true;
}

void Router::SendHelloAck(Connection& conn) {
  std::optional<std::vector<std::uint8_t>> cached;
  {
    std::lock_guard<std::mutex> lock(hello_mutex_);
    cached = hello_payload_;
  }
  if (!cached.has_value()) {
    // No shard has ever answered; the fleet is effectively down.
    stats_.AddProtocolError();
    SendErrorToClient(
        conn, 0,
        static_cast<std::uint32_t>(runtime::ErrorCategory::kOverload),
        "no healthy shards");
    return;
  }
  Frame ack;
  ack.type = FrameType::kHelloAck;
  ack.payload = std::move(*cached);
  SendToClient(conn, ack);
}

void Router::SendErrorToClient(Connection& conn, std::uint64_t wire_sid,
                               std::uint32_t category,
                               const std::string& message) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.session_id = wire_sid;
  PutU32(&frame.payload, category);
  frame.payload.insert(frame.payload.end(), message.begin(), message.end());
  SendToClient(conn, frame);
}

namespace {

/// Shared nonblocking-flush helper for both directions.
bool FlushBuffer(int fd, std::string* buffer, std::size_t* offset,
                 std::uint64_t* bytes_out) {
  while (*offset < buffer->size()) {
    const ssize_t n = ::send(fd, buffer->data() + *offset,
                             buffer->size() - *offset,
#if defined(MSG_NOSIGNAL)
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n > 0) {
      *offset += static_cast<std::size_t>(n);
      if (bytes_out != nullptr) *bytes_out += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  if (*offset == buffer->size()) {
    buffer->clear();
    *offset = 0;
  } else if (*offset > (1u << 20)) {
    buffer->erase(0, *offset);
    *offset = 0;
  }
  return true;
}

}  // namespace

bool Router::FlushClient(Connection& conn) {
  std::uint64_t bytes = 0;
  const bool ok = FlushBuffer(conn.fd, &conn.outbound, &conn.out_off, &bytes);
  if (bytes > 0) stats_.AddBytesOut(bytes);
  if (!ok) return false;
  if (conn.outbound.size() - conn.out_off > options_.max_outbound_bytes) {
    NEC_LOG_WARN(kComponent,
                 "dropping client fd %d: not reading (%zu bytes pending)",
                 conn.fd, conn.outbound.size() - conn.out_off);
    return false;
  }
  return true;
}

void Router::ForwardToShard(Connection& conn, std::size_t shard_index,
                            const Frame& frame) {
  Upstream& up = conn.upstreams[shard_index];
  if (!up.has_pending()) up.pending_since = std::chrono::steady_clock::now();
  EncodeFrame(frame, &up.outbound);
}

bool Router::FlushUpstream(Connection& conn, std::size_t shard_index) {
  Upstream& up = conn.upstreams[shard_index];
  const bool had_pending = up.has_pending();
  if (!FlushBuffer(up.fd, &up.outbound, &up.out_off, nullptr)) return false;
  if (had_pending && !up.has_pending()) {
    // upstream_write hop: oldest enqueued byte → buffer fully drained to
    // the shard socket. Grows under write-side backpressure.
    runtime::HopStats::Global().Record(runtime::Hop::kUpstreamWrite,
                                       MsSince(up.pending_since));
  }
  return up.outbound.size() - up.out_off <= options_.max_outbound_bytes;
}

void Router::CloseConnection(Connection& conn, bool dropped) {
  if (conn.fd < 0) return;
  ::close(conn.fd);
  conn.fd = -1;
  for (Upstream& up : conn.upstreams) {
    if (up.connected()) {
      ::close(up.fd);
      up.fd = -1;
    }
  }
  stats_.AddClosed(dropped);
}

std::vector<RouterShardStatus> Router::ShardStatuses() const {
  std::vector<RouterShardStatus> statuses;
  statuses.reserve(shards_.size());
  for (const auto& shard : shards_) {
    RouterShardStatus status;
    status.spec = shard->spec;
    status.up = shard->up.load(std::memory_order_relaxed);
    status.saturated = shard->saturated.load(std::memory_order_relaxed);
    status.draining = shard->draining.load(std::memory_order_relaxed);
    status.drained = shard->drained.load(std::memory_order_relaxed);
    status.sessions_active =
        shard->sessions_active.load(std::memory_order_relaxed);
    status.sessions_assigned_total =
        shard->sessions_assigned_total.load(std::memory_order_relaxed);
    status.sessions_migrated =
        shard->sessions_migrated.load(std::memory_order_relaxed);
    status.ejections = shard->ejections.load(std::memory_order_relaxed);
    status.probes_ok = shard->probes_ok.load(std::memory_order_relaxed);
    status.probes_failed =
        shard->probes_failed.load(std::memory_order_relaxed);
    status.queue_depth =
        shard->load_queue_depth.load(std::memory_order_relaxed);
    status.e2e_p99_ms = std::bit_cast<float>(
        shard->load_e2e_p99_bits.load(std::memory_order_relaxed));
    status.overload_total =
        shard->load_overload_total.load(std::memory_order_relaxed);
    statuses.push_back(std::move(status));
  }
  return statuses;
}

std::vector<obs::MetricFamily> Router::MetricFamilies() const {
  auto families = NetStatsToMetricFamilies(StatsSnapshot(), "router");
  auto add = [&](const char* name, const char* help, obs::MetricType type,
                 auto value_of) {
    obs::MetricFamily family;
    family.name = name;
    family.help = help;
    family.type = type;
    for (const auto& shard : shards_) {
      obs::Metric metric;
      metric.labels.emplace_back("shard", shard->label);
      metric.value = value_of(*shard);
      family.metrics.push_back(std::move(metric));
    }
    families.push_back(std::move(family));
  };
  using obs::MetricType;
  add("nec_router_shard_up", "1 when the shard is in the ring",
      MetricType::kGauge, [](const ShardState& s) {
        return s.up.load(std::memory_order_relaxed) ? 1.0 : 0.0;
      });
  add("nec_router_shard_sessions", "sticky sessions currently on the shard",
      MetricType::kGauge, [](const ShardState& s) {
        return static_cast<double>(
            s.sessions_active.load(std::memory_order_relaxed));
      });
  add("nec_router_shard_sessions_assigned_total",
      "sessions ever placed on the shard", MetricType::kCounter,
      [](const ShardState& s) {
        return static_cast<double>(
            s.sessions_assigned_total.load(std::memory_order_relaxed));
      });
  add("nec_router_shard_ejections_total",
      "times the health prober removed the shard", MetricType::kCounter,
      [](const ShardState& s) {
        return static_cast<double>(
            s.ejections.load(std::memory_order_relaxed));
      });
  add("nec_router_shard_probes_failed_total", "failed health probes",
      MetricType::kCounter, [](const ShardState& s) {
        return static_cast<double>(
            s.probes_failed.load(std::memory_order_relaxed));
      });
  add("nec_router_shard_saturated",
      "1 while admission control sheds new sessions from the shard",
      MetricType::kGauge, [](const ShardState& s) {
        return s.saturated.load(std::memory_order_relaxed) ? 1.0 : 0.0;
      });
  add("nec_router_shard_draining", "1 while a draining reshard is underway",
      MetricType::kGauge, [](const ShardState& s) {
        return s.draining.load(std::memory_order_relaxed) ? 1.0 : 0.0;
      });
  add("nec_router_shard_drained",
      "1 once a drain finished with zero sessions left", MetricType::kGauge,
      [](const ShardState& s) {
        return s.drained.load(std::memory_order_relaxed) ? 1.0 : 0.0;
      });
  add("nec_router_shard_queue_depth",
      "work-queue depth from the shard's last load report",
      MetricType::kGauge, [](const ShardState& s) {
        return static_cast<double>(
            s.load_queue_depth.load(std::memory_order_relaxed));
      });
  add("nec_router_shard_sessions_migrated_total",
      "sessions moved off the shard by draining reshards",
      MetricType::kCounter, [](const ShardState& s) {
        return static_cast<double>(
            s.sessions_migrated.load(std::memory_order_relaxed));
      });
  return families;
}

}  // namespace nec::net
