// Session-sharding router for a fleet of networked necd shards
// (`necd --route`, DESIGN.md §5h).
//
// The router speaks the same wire protocol on both sides. Clients
// connect exactly as they would to a single shard; the router consistent-
// hashes each new wire session id onto a healthy shard and from then on
// forwards that session's frames verbatim in both directions — the
// session id lives in the frame HEADER, so routing never decodes
// payloads. Assignments are sticky: rebalancing only happens for new
// sessions, never mid-stream (a SessionManager's state cannot move).
//
// Health: a prober thread polls every shard's /healthz endpoint.
// `eject_after` consecutive failures take a shard out of the ring (no new
// sessions), `readmit_after` consecutive successes put it back. When a
// shard dies — probe ejection or its TCP connection dropping — every
// in-flight session pinned to it faults with a kError frame carrying the
// runtime taxonomy (kInvariant: the stream's state is unrecoverable),
// while sessions on other shards keep streaming. That is the same
// containment story the SessionManager gives faults in-process, lifted
// one level up the fleet.
//
// Upstream connections are per (client connection, shard): client wire
// session ids are only unique per client connection, and keeping the
// pairing 1:1 means the shard sees exactly the id space the client chose.
//
// Both faces are written once in net/conn.h: a client connection is a
// net::ServerConn (the shard's buffered frame connection and v2 handshake
// gate; the router's kHelloAck carries a shard's cached HelloInfo), an
// upstream a net::FrameConn. The router counts bytes and frames only on
// its client face, and a shard stream that stops framing faults that
// shard's sessions instead of drawing a kError.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/net_stats.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace nec::net {

/// One shard target: data-plane port plus its metrics/health port.
struct ShardSpec {
  std::string host = "127.0.0.1";
  int port = 0;         ///< wire-protocol port
  int health_port = 0;  ///< obs::MetricsServer port (/healthz, /metrics)
};

/// Snapshot of one shard's health as the router sees it.
struct RouterShardStatus {
  ShardSpec spec;
  bool up = false;
  bool saturated = false;  ///< admission control is shedding new sessions
  bool draining = false;   ///< DrainShard() called; no new placements
  bool drained = false;    ///< drain finished: zero sessions remain
  std::uint64_t sessions_active = 0;  ///< sticky assignments currently live
  std::uint64_t sessions_assigned_total = 0;
  std::uint64_t sessions_migrated = 0;  ///< moved OFF this shard by drains
  std::uint64_t ejections = 0;
  std::uint64_t probes_ok = 0;
  std::uint64_t probes_failed = 0;
  std::uint64_t queue_depth = 0;  ///< last kShardStatus load report
  float e2e_p99_ms = 0.0f;
  std::uint64_t overload_total = 0;
};

class Router {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  ///< 0 = ephemeral; see port() after Start()
    std::vector<ShardSpec> shards;
    int probe_interval_ms = 250;
    std::size_t eject_after = 2;   ///< consecutive probe failures
    std::size_t readmit_after = 2; ///< consecutive probe successes
    int connect_timeout_ms = 1000; ///< dialing a shard's data port
    /// With auth enabled, dialing an upstream runs the hello handshake
    /// synchronously on the poll thread, which head-of-line blocks every
    /// connected client for up to connect_timeout_ms +
    /// upstream_hello_timeout_ms per dial. Keep this tight; a shard too
    /// slow to answer is better treated as down than waited on.
    int upstream_hello_timeout_ms = 500;
    int tick_ms = 5;
    std::size_t max_connections = 1024;
    std::size_t max_outbound_bytes = 64u << 20;
    std::size_t vnodes = 64;  ///< ring points per shard
    /// Shared secret for the v2 auth handshake, used on BOTH faces: the
    /// router challenges its own clients, and answers the shards'
    /// challenges when dialing upstreams. Empty = auth disabled.
    std::string secret;
    /// Admission control: a shard whose kShardStatus load report shows a
    /// queue depth at/above this is saturated — new sessions are shed
    /// with a typed kOverload error instead of being buffered toward it.
    /// The default effectively disables admission control.
    std::uint64_t saturate_queue_depth = ~0ull;
    /// Hysteresis: a saturated shard is readmitted for new sessions only
    /// after `recover_statuses` consecutive load reports at/below
    /// `recover_queue_depth` — so a shard hovering at the threshold
    /// doesn't thrash in and out of the ring.
    std::uint64_t recover_queue_depth = 0;
    std::size_t recover_statuses = 2;
    /// Backlog guard: a new session whose chosen upstream already has
    /// more than this many unflushed bytes is shed with kOverload rather
    /// than buffered behind a shard that is not keeping up.
    std::size_t admission_backlog_bytes = 32u << 20;
  };

  explicit Router(Options options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  bool Start(std::string* error);
  void Stop();

  int port() const { return port_; }
  NetStatsSnapshot StatsSnapshot() const { return stats_.Snapshot(); }
  std::vector<RouterShardStatus> ShardStatuses() const;

  /// Starts a zero-fault draining reshard of the shard labeled
  /// "host:port": no new sessions are placed on it, every sticky session
  /// is snapshotted by its shard once quiescent and restored onto a
  /// surviving shard (bit-identical stream state), and the shard reports
  /// `drained` once nothing references it. Thread-safe (callable from a
  /// metrics HTTP handler); idempotent. False when no shard matches.
  bool DrainShard(const std::string& label, std::string* error);
  /// nec_net_* (role="router") + per-shard health/session families.
  std::vector<obs::MetricFamily> MetricFamilies() const;

 private:
  struct ShardState;
  struct Upstream;
  struct Connection;

  void Serve();
  void ProbeLoop();
  void ProbeOnce(ShardState& shard);
  /// Polls the shard's load over the wire (kStatusRequest) and runs the
  /// saturation hysteresis. Prober thread only.
  void ProbeStatus(ShardState& shard);
  /// Fetches + caches a shard's HelloInfo from any live shard so the
  /// router can answer client kHello itself.
  void RefreshHelloCache();

  void AcceptPending();
  bool ReadClient(Connection& conn);
  /// `received` is when the bytes carrying this frame came off the client
  /// socket — the start of the router_queue hop for submit frames.
  void HandleClientFrame(Connection& conn, Frame&& frame,
                         std::chrono::steady_clock::time_point received);
  bool ReadUpstream(Connection& conn, std::size_t shard_index);
  /// Routes one shard frame: snapshots and restore acks stay inside the
  /// router, everything else goes to the client.
  void HandleShardFrame(Connection& conn, std::size_t shard_index,
                        Frame&& frame);
  /// Encodes `frame` onto the shard's outbound buffer, stamping
  /// `pending_since` when the buffer transitions empty → non-empty (the
  /// start of the upstream_write hop closed by FlushUpstream).
  void ForwardToShard(Connection& conn, std::size_t shard_index,
                      const Frame& frame);
  /// Picks the ring owner for `wire_sid` among up, non-draining,
  /// non-saturated shards; nullopt when none qualifies. When the only
  /// reason nothing qualified was saturation (live shards existed),
  /// *all_saturated is set so the caller sheds with typed kOverload.
  std::optional<std::size_t> PickShard(std::uint64_t wire_sid,
                                       bool* all_saturated) const;
  /// Ring owner for a migrating session: prefers non-saturated shards
  /// but will land on a saturated one rather than fault the session.
  std::optional<std::size_t> PickMigrationTarget(std::uint64_t wire_sid) const;
  bool EnsureUpstream(Connection& conn, std::size_t shard_index);
  /// Routes a draining shard's kSessionSnapshot onto a surviving shard
  /// as kRestoreSession (blob forwarded verbatim).
  void HandleSessionSnapshot(Connection& conn, std::size_t from_shard,
                             Frame&& frame);
  /// Sends kDrainSession for every session still pinned to a draining
  /// shard and flips shards to `drained` once nothing references them.
  void PumpDrains();
  /// Replies with the cached kHelloAck (or kError(kOverload) when no
  /// shard has ever answered).
  void SendHelloAck(Connection& conn);
  /// Faults every session of `conn` pinned to `shard_index` (kError with
  /// the runtime taxonomy) and closes the upstream.
  void FaultShardSessions(Connection& conn, std::size_t shard_index,
                          const std::string& why);
  /// Faults one mid-reshard session (typed kOverload) and releases its
  /// sticky assignment, migration entry, and any restored target state.
  void FaultMigration(Connection& conn, std::uint64_t wire_sid,
                      const std::string& why);
  /// Applies prober ejections to live connections (poll thread only).
  void ApplyHealthTransitions();

  bool FlushUpstream(Connection& conn, std::size_t shard_index);

  const Options options_;
  NetStats stats_;

  std::vector<std::unique_ptr<ShardState>> shards_;
  /// (hash point, shard index), sorted by hash — includes DOWN shards;
  /// lookups walk clockwise skipping them.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;

  mutable std::mutex hello_mutex_;
  std::optional<HelloInfo> hello_;

  std::thread serve_thread_;
  std::thread probe_thread_;
  std::atomic<bool> stop_{false};
  int port_ = 0;
  TcpListener listener_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace nec::net
