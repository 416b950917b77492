// Client side of the NEC wire protocol (DESIGN.md §5h).
//
// NetClient multiplexes any number of wire sessions over ONE TCP
// connection: open sessions by (speaker_seed, ref_seed), submit
// chunk-sized sample spans, and collect the shadow stream the shard sends
// back per session. Submits are fire-and-forget; receiving is explicit —
// call PumpOnce() (or the blocking Wait* helpers) to drain inbound frames
// into per-session state. That split lets a single-session test run
// simple blocking calls while `necctl loadgen` drives hundreds of
// sessions across many NetClients from one poll loop (see loadgen.h).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/frame.h"

namespace nec::net {

/// A kError frame recorded against a session (or the connection, for
/// wire session id 0).
struct WireError {
  std::uint32_t category = 0;  ///< runtime::ErrorCategory value
  std::string message;
};

/// Receive-side state of one wire session.
struct WireSessionState {
  bool open_acked = false;
  bool closed = false;  ///< kClosed seen: `shadow` is complete
  std::optional<WireError> error;
  std::vector<float> shadow;  ///< air-rate samples, stream order

  bool done() const { return closed || error.has_value(); }
};

class NetClient {
 public:
  NetClient() = default;
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  bool Connect(const std::string& host, int port, int connect_timeout_ms,
               std::string* error);
  void Close();
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Detaches and returns the connected socket (-1 when closed), leaving
  /// this client disconnected. Lets the router run the blocking hello +
  /// auth handshake through a NetClient and then adopt the socket into
  /// its own poll loop. Only safe when no partial frame is buffered —
  /// i.e. right after a handshake, before any streaming.
  int ReleaseFd() {
    const int fd = fd_;
    fd_ = -1;
    decoder_.Reset();
    return fd;
  }

  /// Shared secret for the v2 auth handshake. Set before Hello(); when
  /// the server challenges, the client answers with the keyed tag. With
  /// no secret set, a challenge fails the hello (the server demands auth
  /// this client cannot provide).
  void set_secret(std::string secret) { secret_ = std::move(secret); }

  /// Version (+ auth, when the server demands it) handshake; blocks up
  /// to timeout_ms for the ack.
  bool Hello(HelloInfo* info, int timeout_ms, std::string* error);

  /// True when the server answered the handshake with kAuthReject —
  /// distinct from refused/timeout so callers can report credential
  /// failures as their own class.
  bool auth_rejected() const { return auth_rejected_; }

  /// Polls the shard's load (kStatusRequest → kShardStatus). Blocks up
  /// to timeout_ms; requires a completed Hello on an authed connection.
  bool QueryStatus(ShardStatusPayload* status, int timeout_ms,
                   std::string* error);

  /// Opens a wire session (client-assigned id) and blocks for the ack.
  bool OpenSession(std::uint64_t wire_sid, std::uint64_t speaker_seed,
                   std::uint64_t ref_seed, int timeout_ms,
                   std::string* error);

  /// Fire-and-forget variants for poll-loop callers: the ack/result is
  /// observed later via session() after PumpOnce().
  bool SendOpenSession(std::uint64_t wire_sid, std::uint64_t speaker_seed,
                       std::uint64_t ref_seed, std::string* error);
  bool SubmitChunk(std::uint64_t wire_sid, std::span<const float> samples,
                   std::string* error);
  bool SendCloseSession(std::uint64_t wire_sid, std::string* error);
  bool Ping(std::span<const std::uint8_t> payload, std::string* error);

  /// Reads whatever is available (blocking up to timeout_ms for the first
  /// byte; 0 = only what's already readable) and dispatches every
  /// complete frame into session state. False on transport/decode
  /// failure with the reason in *error; a plain timeout with nothing read
  /// returns true with *timed_out set.
  bool PumpOnce(int timeout_ms, bool* timed_out, std::string* error);

  /// Pumps until session `wire_sid` is done (kClosed or kError) or
  /// timeout_ms elapses.
  bool WaitDone(std::uint64_t wire_sid, int timeout_ms, std::string* error);

  /// Receive-side state of a session (creates the slot on first use).
  const WireSessionState& session(std::uint64_t wire_sid) {
    return sessions_[wire_sid];
  }
  /// Mutable access so callers can steal a finished session's shadow
  /// buffer instead of copying it (loadgen with keep_shadows).
  WireSessionState* mutable_session(std::uint64_t wire_sid) {
    return &sessions_[wire_sid];
  }
  /// A kError frame addressed to wire session id 0 — connection scope.
  const std::optional<WireError>& connection_error() const {
    return connection_error_;
  }
  const std::optional<HelloInfo>& hello_info() const { return hello_info_; }

  std::uint64_t bytes_in() const { return bytes_in_; }
  std::uint64_t bytes_out() const { return bytes_out_; }
  std::uint64_t frames_in() const { return frames_in_; }

 private:
  bool SendFrame(const Frame& frame, std::string* error);
  void Dispatch(Frame&& frame);

  int fd_ = -1;
  int io_timeout_ms_ = 10000;  ///< write deadline per frame
  FrameDecoder decoder_;
  std::string secret_;
  bool auth_rejected_ = false;
  std::unordered_map<std::uint64_t, WireSessionState> sessions_;
  std::optional<WireError> connection_error_;
  std::optional<HelloInfo> hello_info_;
  std::optional<ShardStatusPayload> shard_status_;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
  std::uint64_t frames_in_ = 0;
};

}  // namespace nec::net
