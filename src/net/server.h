// Networked serving front end for runtime::SessionManager (DESIGN.md §5h).
//
// NetServer turns `necd` into a shard: it accepts concurrent TCP
// connections on a single poll-loop thread, decodes wire frames
// (net/frame.h), maps kOpenSession/kSubmitChunk onto
// SessionManager::CreateSession/Submit, and streams every session's
// modulated shadow back as kShadowData frames. All heavy compute stays on
// the SessionManager's pool (micro-batching, degradation ladder, fault
// containment all apply unchanged); the poll thread only moves bytes,
// synthesizes enrollment references, and pumps TakeOutput.
//
// Protocol contract (client side sees):
//   kHello        → kHelloAck (rates + chunk geometry; version negotiation)
//   kOpenSession  → kOpenAck, or kError if the wire session id is taken
//   kSubmitChunk  → zero or more kShadowData frames as chunks complete
//   kCloseSession → trailing kShadowData (flush tail) then kClosed
//   any malformed frame → kError(kBadInput, decode status) + disconnect
//
// A faulted session (runtime taxonomy, DESIGN.md §5f) surfaces as a
// kError frame carrying the recorded category; other sessions on the same
// connection keep streaming. Enrollment is seed-based: the client sends
// (speaker_seed, ref_seed) and the server synthesizes the reference clips
// deterministically, so two shards with the same weights serve
// bit-identical shadows for the same session seeds — the property the
// router tests and the fleet bench lean on.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/net_stats.h"
#include "net/socket.h"
#include "runtime/session_manager.h"

namespace nec::net {

class NetServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  ///< 0 = ephemeral; see port() after Start()
    std::size_t max_connections = 1024;
    /// Poll-loop tick: overload nudges, drains and closes progress at
    /// this cadence even when no socket event fires. Completed output
    /// does not wait for it: the manager's output eventfd wakes the loop.
    int tick_ms = 5;
    /// Connections with no inbound frames AND no open sessions for this
    /// long are dropped (a loadgen that died before opening anything).
    int idle_timeout_ms = 60000;
    /// A peer that stops reading may buffer at most this much pending
    /// shadow output before the connection is dropped.
    std::size_t max_outbound_bytes = 64u << 20;
    /// Enrollment geometry for seed-based kOpenSession (paper: 3 clips
    /// of 3 s). Must match the in-process reference when verifying
    /// bit-exactness.
    std::size_t enroll_refs = 3;
    double enroll_seconds = 3.0;
    /// Rates advertised in kHelloAck. input must match the synth/pipeline
    /// rate the SessionManager was built for; output is the modulated air
    /// rate.
    int input_sample_rate = 16000;
    int output_sample_rate = 192000;
    /// Shared secret for the v2 auth handshake. Empty = auth disabled
    /// (kHello is answered with kHelloAck directly). Non-empty: every
    /// connection must pass challenge–response before any other frame
    /// type is accepted; failures get kAuthReject + disconnect.
    std::string secret;
  };

  /// `manager` must outlive the server.
  NetServer(runtime::SessionManager* manager, Options options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds + listens + spawns the poll thread. False with reason in
  /// *error on bind failure.
  bool Start(std::string* error);

  /// Stops the poll thread and closes every connection. Idempotent.
  void Stop();

  int port() const { return port_; }
  const NetStats& stats() const { return stats_; }
  NetStatsSnapshot StatsSnapshot() const { return stats_.Snapshot(); }

  /// Test seam: report this queue depth in kShardStatus replies instead
  /// of the real pool depth (-1 = report the truth). Lets saturation
  /// tests drive the router's admission control deterministically.
  void set_status_depth_override(std::int64_t depth) {
    status_depth_override_.store(depth, std::memory_order_relaxed);
  }

 private:
  struct Connection;
  struct WireSession;

  void Serve();
  void AcceptPending();
  /// Drains readable bytes into the connection's decoder and handles
  /// every complete frame. Returns false when the connection must close.
  bool ReadAndDispatch(Connection& conn);
  bool HandleFrame(Connection& conn, Frame&& frame);
  /// Streams TakeOutput/fault/close progress for every session of `conn`.
  void PumpSessions(Connection& conn);
  void SendFrame(Connection& conn, const Frame& frame);
  void SendError(Connection& conn, std::uint64_t wire_sid,
                 runtime::ErrorCategory category, const std::string& message);
  /// kAuthReject(kAuthRejected) + counter + close-after-write.
  void RejectAuth(Connection& conn, const std::string& message);
  /// kShardStatus reply for a kStatusRequest (load snapshot).
  void SendShardStatus(Connection& conn);
  /// Flushes as much of conn.outbound as the socket accepts right now.
  /// Returns false when the connection must close.
  bool FlushOutbound(Connection& conn);
  void CloseConnection(Connection& conn, bool dropped);

  runtime::SessionManager* const manager_;
  const Options options_;
  NetStats stats_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> status_depth_override_{-1};
  int port_ = 0;
  TcpListener listener_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace nec::net
