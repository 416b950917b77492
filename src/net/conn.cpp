#include "net/conn.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "net/auth.h"
#include "obs/log.h"

namespace nec::net {
namespace {

constexpr const char* kComponent = "net.conn";

/// The one builder of kError and kAuthReject frames: u32 category, then
/// the message bytes.
Frame ErrorFrame(FrameType type, std::uint64_t wire_sid,
                 runtime::ErrorCategory category, std::string_view message) {
  Frame frame;
  frame.type = type;
  frame.session_id = wire_sid;
  PutU32(&frame.payload, static_cast<std::uint32_t>(category));
  frame.payload.insert(frame.payload.end(), message.begin(), message.end());
  return frame;
}

}  // namespace

void FrameConn::Send(const Frame& frame) {
  EncodeFrame(frame, &outbound);
  if (stats != nullptr) stats->AddFrameOut();
}

bool FrameConn::Receive() {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) {
      peer_closed = true;
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    if (stats != nullptr) stats->AddBytesIn(static_cast<std::uint64_t>(n));
    decoder.Feed(buf, static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < sizeof buf) return true;
  }
}

bool FrameConn::Flush(std::size_t max_pending) {
  while (has_pending()) {
    const ssize_t n = ::send(fd, outbound.data() + out_off, pending_bytes(),
#if defined(MSG_NOSIGNAL)
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n > 0) {
      out_off += static_cast<std::size_t>(n);
      if (stats != nullptr) stats->AddBytesOut(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // peer gone mid-write
  }
  if (!has_pending()) {
    outbound.clear();
    out_off = 0;
  } else if (out_off > (1u << 20)) {
    outbound.erase(0, out_off);
    out_off = 0;
  }
  if (pending_bytes() > max_pending) {
    NEC_LOG_WARN(kComponent, "dropping fd %d: peer not reading (%zu bytes "
                 "pending)", fd, pending_bytes());
    return false;
  }
  return true;
}

void FrameConn::Close() {
  if (fd >= 0) ::close(fd);
  fd = -1;
  decoder.Reset();
  outbound.clear();
  out_off = 0;
  peer_closed = false;
}

Admission ServerConn::Admit(const Frame& frame, std::string_view secret) {
  switch (frame.type) {
    case FrameType::kHello: {
      PayloadReader reader(frame.payload);
      std::uint32_t min_ver = 0;
      std::uint32_t max_ver = 0;
      if (!reader.U32(&min_ver) || !reader.U32(&max_ver) ||
          !reader.complete()) {
        stats->AddProtocolError();
        SendError(0, runtime::ErrorCategory::kBadInput, "bad hello payload");
        return Admission::kHandled;
      }
      if (min_ver > kProtocolVersion || max_ver < kProtocolVersion) {
        stats->AddProtocolError();
        SendError(0, runtime::ErrorCategory::kBadInput,
                  "unsupported protocol version");
        close_after_write = true;
        return Admission::kHandled;
      }
      if (authed) return Admission::kAckHello;
      // Challenge instead of acking. Every hello gets a FRESH nonce, so a
      // tag observed on one connection (or an earlier hello) never
      // verifies again — that is the whole replay defense.
      nonce = RandomNonce();
      challenged = true;
      Frame challenge;
      challenge.type = FrameType::kAuthChallenge;
      PutU64(&challenge.payload, nonce);
      Send(challenge);
      return Admission::kHandled;
    }

    case FrameType::kAuthResponse: {
      if (authed) {
        stats->AddProtocolError();
        SendError(0, runtime::ErrorCategory::kBadInput,
                  "auth response on an authenticated connection");
        return Admission::kHandled;
      }
      if (!challenged) {
        Reject("auth response without an outstanding challenge");
        return Admission::kHandled;
      }
      // One verification per nonce: consumed pass or fail, so a brute
      // force cannot iterate tags against a single challenge.
      challenged = false;
      PayloadReader reader(frame.payload);
      std::uint64_t tag = 0;
      if (!reader.U64(&tag) || !reader.complete()) {
        Reject("bad auth response payload");
        return Admission::kHandled;
      }
      if (tag != AuthTag(secret, nonce)) {
        Reject("auth tag mismatch");
        return Admission::kHandled;
      }
      authed = true;
      stats->AddAuthOk();
      // Complete the hello the challenge interrupted.
      return Admission::kAckHello;
    }

    default:
      if (authed) return Admission::kPass;
      // An unauthenticated peer cannot enroll, submit, or even ping (the
      // paper's threat model makes the service the trusted party; an
      // open enrollment path invites flooding).
      Reject(std::string("unauthenticated ") + FrameTypeName(frame.type) +
             " frame");
      return Admission::kHandled;
  }
}

void ServerConn::SendError(std::uint64_t wire_sid,
                           runtime::ErrorCategory category,
                           std::string_view message) {
  Send(ErrorFrame(FrameType::kError, wire_sid, category, message));
}

void ServerConn::Reject(std::string_view message) {
  stats->AddAuthRejected();
  NEC_LOG_WARN(kComponent, "auth rejected on fd %d: %.*s", fd,
               static_cast<int>(message.size()), message.data());
  Send(ErrorFrame(FrameType::kAuthReject, 0,
                  runtime::ErrorCategory::kAuthRejected, message));
  close_after_write = true;
}

void ServerConn::AnswerMalformed(DecodeStatus status) {
  // The stream is untrustworthy once framing lied: tell the peer what
  // broke (the runtime's kBadInput taxonomy), then hang up.
  stats->AddDecodeError();
  NEC_LOG_WARN(kComponent, "decode error on fd %d: %s", fd,
               DecodeStatusName(status));
  SendError(0, runtime::ErrorCategory::kBadInput,
            std::string("malformed frame: ") + DecodeStatusName(status));
  close_after_write = true;
}

void ServerConn::Close(bool dropped) {
  if (!connected()) return;
  FrameConn::Close();
  stats->AddClosed(dropped);
}

}  // namespace nec::net
