// The buffered frame connection and the server half of the v2 handshake
// (DESIGN.md §5h), written once for every wire socket a poll loop owns:
// the shard's accepted connections (net/server.h), the router's client
// face and its upstreams to the shards (net/router.h).
//
// FrameConn is the transport: a nonblocking socket, its FrameDecoder and
// an outbound buffer. ReadFrames drains the socket until EAGAIN and hands
// every complete frame to its owner; Flush writes what the socket takes,
// bounded by the owner's max_outbound_bytes. ServerConn is an accepted
// connection: it answers a stream that stops framing with
// kError(kBadInput) and closes behind it, owns the handshake state and
// runs the gate (Admit), and decides whether its close was orderly.
#pragma once

#include <poll.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "net/frame.h"
#include "net/net_stats.h"
#include "runtime/fault.h"

namespace nec::net {

/// Owns its socket: the destructor closes it.
struct FrameConn {
  FrameConn() = default;
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;
  ~FrameConn() { Close(); }

  int fd = -1;
  FrameDecoder decoder;
  std::string outbound;     ///< encoded frames not yet written
  std::size_t out_off = 0;  ///< written prefix of outbound
  /// The peer hung up (read EOF).
  bool peer_closed = false;
  /// Counts bytes and frames in and out when set; the router leaves it
  /// unset on its upstreams, so only its client face is counted.
  NetStats* stats = nullptr;

  bool connected() const { return fd >= 0; }
  bool has_pending() const { return out_off < outbound.size(); }
  std::size_t pending_bytes() const { return outbound.size() - out_off; }
  short poll_events() const {
    return has_pending() ? POLLIN | POLLOUT : POLLIN;
  }

  void Send(const Frame& frame);

  /// Reads until the socket would block, then hands every complete frame
  /// to `on_frame` (void(Frame&&)) in order. False when the connection
  /// must close: the peer hung up (peer_closed is set), recv failed, or
  /// the stream stopped framing (*malformed says why; it stays kOk
  /// otherwise). A decode error is latched, so the stream never frames
  /// again.
  template <typename OnFrame>
  bool ReadFrames(OnFrame&& on_frame, DecodeStatus* malformed) {
    if (!Receive()) return false;
    Frame frame;
    for (;;) {
      const DecodeStatus status = decoder.Next(&frame);
      if (status == DecodeStatus::kNeedMore) return true;
      if (IsDecodeError(status)) {
        *malformed = status;
        return false;
      }
      if (stats != nullptr) stats->AddFrameIn();
      on_frame(std::move(frame));
    }
  }

  /// Writes as much of the outbound buffer as the socket takes now. False
  /// when send failed or more than `max_pending` bytes stay queued (the
  /// peer is not reading).
  bool Flush(std::size_t max_pending);

  /// Closes the socket and resets the connection to a fresh one.
  void Close();

 private:
  /// recv until EAGAIN into the decoder.
  bool Receive();
};

/// What ServerConn::Admit did with a frame.
enum class Admission {
  kPass,      ///< not a handshake frame, and the connection is authed
  kHandled,   ///< consumed: answered, challenged or rejected
  kAckHello,  ///< the hello is accepted: the owner sends its kHelloAck
};

/// An accepted connection: the server half of the protocol, counted in
/// its face's NetStats.
struct ServerConn : FrameConn {
  /// `authed` starts true when no secret is configured.
  ServerConn(int accepted_fd, NetStats& face_stats, bool authed_at_accept) {
    fd = accepted_fd;
    stats = &face_stats;
    authed = authed_at_accept;
  }

  /// A fatal reply (kAuthReject, a decode error's kError, an unsupported
  /// version) is queued: serve nothing more and close once it is written.
  bool close_after_write = false;
  bool authed = false;      ///< v2 handshake passed (or auth disabled)
  bool challenged = false;  ///< a nonce is outstanding
  std::uint64_t nonce = 0;  ///< this connection's challenge nonce

  /// FrameConn::ReadFrames, with the client-face rule for a stream that
  /// stops framing: kError(kBadInput, "malformed frame: …"), then close
  /// once it is written. Frames after a fatal reply are not served.
  template <typename OnFrame>
  bool ReadFrames(OnFrame&& on_frame) {
    DecodeStatus malformed = DecodeStatus::kOk;
    const bool open = FrameConn::ReadFrames(
        [&](Frame&& frame) {
          if (!close_after_write) on_frame(std::move(frame));
        },
        &malformed);
    if (malformed == DecodeStatus::kOk) return open;
    if (!close_after_write) AnswerMalformed(malformed);
    return true;
  }

  /// The handshake gate (DESIGN.md §5h, protocol v2). Answers kHello: a
  /// bad payload gets kError, an unsupported version kError and a close;
  /// until the connection is authed, every hello is challenged with a
  /// fresh nonce. Verifies a kAuthResponse against `secret` once per
  /// nonce. Any other frame before auth gets kAuthReject and a close.
  Admission Admit(const Frame& frame, std::string_view secret);

  void SendError(std::uint64_t wire_sid, runtime::ErrorCategory category,
                 std::string_view message);
  /// kAuthReject(kAuthRejected) + counter + close after the write.
  void Reject(std::string_view message);

  /// True once a fatal reply is fully written: the connection is done.
  bool fatal_reply_sent() const {
    return close_after_write && !has_pending();
  }
  /// A close is orderly, not a drop (net_stats.h), iff the peer hung up
  /// with no session open or we closed after a fatal reply was written.
  bool Orderly(bool sessions_open) const {
    return (peer_closed && !sessions_open) || fatal_reply_sent();
  }
  /// Closes the socket and counts the close in the face's stats.
  void Close(bool dropped);

 private:
  void AnswerMalformed(DecodeStatus status);
};

}  // namespace nec::net
