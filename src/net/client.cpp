#include "net/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/auth.h"
#include "net/socket.h"
#include "obs/trace.h"
#include "runtime/fault.h"

namespace nec::net {
namespace {

std::int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

NetClient::~NetClient() { Close(); }

bool NetClient::Connect(const std::string& host, int port,
                        int connect_timeout_ms, std::string* error) {
  Close();
  // A new connection is a new protocol instance: the previous hello,
  // any connection-scoped error (auth reject included), and all wire
  // session state belong to the old socket. Carrying them over would
  // make Hello() return a stale ack without running the handshake —
  // and a stale connection_error_ fail it before it starts.
  hello_info_.reset();
  connection_error_.reset();
  auth_rejected_ = false;
  shard_status_.reset();
  sessions_.clear();
  fd_ = DialTcp(host, port, connect_timeout_ms, error);
  return fd_ >= 0;
}

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_.Reset();
}

bool NetClient::SendFrame(const Frame& frame, std::string* error) {
  if (fd_ < 0) {
    SetError(error, "not connected");
    return false;
  }
  std::string wire;
  EncodeFrame(frame, &wire);
  std::string io_error;
  IoStatus status =
      WriteFull(fd_, wire.data(), wire.size(), io_timeout_ms_, &io_error);
  if (status != IoStatus::kOk) {
    SetError(error, std::string("send ") + FrameTypeName(frame.type) + ": " +
                        (io_error.empty() ? IoStatusName(status) : io_error));
    return false;
  }
  bytes_out_ += wire.size();
  return true;
}

bool NetClient::Hello(HelloInfo* info, int timeout_ms, std::string* error) {
  Frame frame;
  frame.type = FrameType::kHello;
  frame.session_id = 0;
  PutU32(&frame.payload, kProtocolVersion);
  PutU32(&frame.payload, kProtocolVersion);
  if (!SendFrame(frame, error)) return false;

  const std::int64_t deadline = NowMs() + timeout_ms;
  while (!hello_info_.has_value()) {
    if (connection_error_.has_value()) {
      SetError(error, "hello rejected: " + connection_error_->message);
      return false;
    }
    const int remaining = static_cast<int>(deadline - NowMs());
    if (remaining <= 0) {
      SetError(error, "hello: timed out waiting for ack");
      return false;
    }
    bool timed_out = false;
    if (!PumpOnce(remaining, &timed_out, error)) return false;
  }
  if (info != nullptr) *info = *hello_info_;
  return true;
}

bool NetClient::SendOpenSession(std::uint64_t wire_sid,
                                std::uint64_t speaker_seed,
                                std::uint64_t ref_seed, std::string* error) {
  Frame frame;
  frame.type = FrameType::kOpenSession;
  frame.session_id = wire_sid;
  PutU64(&frame.payload, speaker_seed);
  PutU64(&frame.payload, ref_seed);
  return SendFrame(frame, error);
}

bool NetClient::OpenSession(std::uint64_t wire_sid, std::uint64_t speaker_seed,
                            std::uint64_t ref_seed, int timeout_ms,
                            std::string* error) {
  if (!SendOpenSession(wire_sid, speaker_seed, ref_seed, error)) return false;
  const std::int64_t deadline = NowMs() + timeout_ms;
  for (;;) {
    const WireSessionState& state = sessions_[wire_sid];
    if (state.error.has_value()) {
      SetError(error, "open session " + std::to_string(wire_sid) +
                          " rejected: " + state.error->message);
      return false;
    }
    if (state.open_acked) return true;
    const int remaining = static_cast<int>(deadline - NowMs());
    if (remaining <= 0) {
      SetError(error, "open session " + std::to_string(wire_sid) +
                          ": timed out waiting for ack");
      return false;
    }
    bool timed_out = false;
    if (!PumpOnce(remaining, &timed_out, error)) return false;
  }
}

bool NetClient::SubmitChunk(std::uint64_t wire_sid,
                            std::span<const float> samples,
                            std::string* error) {
  // Trace-context propagation (DESIGN.md §5g): with tracing on, mint a
  // flow id and send it ahead of the chunk as a kTraceContext frame. The
  // receiver attaches it to this chunk, so the client-submit span below
  // and the shard's compute span share one flow in the merged trace.
  // With tracing off this path adds exactly one relaxed load.
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  std::uint64_t flow = 0;
  std::uint64_t t0_ns = 0;
  if (rec.enabled()) {
    flow = rec.NextFlowId();
    t0_ns = obs::TraceNowNs();
    Frame context;
    context.type = FrameType::kTraceContext;
    context.session_id = wire_sid;
    PutU64(&context.payload, flow);
    if (!SendFrame(context, error)) return false;
  }
  Frame frame;
  frame.type = FrameType::kSubmitChunk;
  frame.session_id = wire_sid;
  PutFloats(&frame.payload, samples);
  const bool sent = SendFrame(frame, error);
  if (flow != 0 && sent) {
    rec.RecordSpan("client.submit", "net", t0_ns,
                   obs::TraceNowNs() - t0_ns, flow, wire_sid);
    rec.RecordFlow(obs::TraceEventKind::kFlowBegin, "chunk.flow", flow);
  }
  return sent;
}

bool NetClient::SendCloseSession(std::uint64_t wire_sid, std::string* error) {
  Frame frame;
  frame.type = FrameType::kCloseSession;
  frame.session_id = wire_sid;
  return SendFrame(frame, error);
}

bool NetClient::Ping(std::span<const std::uint8_t> payload,
                     std::string* error) {
  Frame frame;
  frame.type = FrameType::kPing;
  frame.session_id = 0;
  frame.payload.assign(payload.begin(), payload.end());
  return SendFrame(frame, error);
}

bool NetClient::QueryStatus(ShardStatusPayload* status, int timeout_ms,
                            std::string* error) {
  shard_status_.reset();
  Frame frame;
  frame.type = FrameType::kStatusRequest;
  frame.session_id = 0;
  if (!SendFrame(frame, error)) return false;
  const std::int64_t deadline = NowMs() + timeout_ms;
  while (!shard_status_.has_value()) {
    if (connection_error_.has_value()) {
      SetError(error, "status rejected: " + connection_error_->message);
      return false;
    }
    const int remaining = static_cast<int>(deadline - NowMs());
    if (remaining <= 0) {
      SetError(error, "status: timed out waiting for reply");
      return false;
    }
    bool timed_out = false;
    if (!PumpOnce(remaining, &timed_out, error)) return false;
  }
  if (status != nullptr) *status = *shard_status_;
  return true;
}

bool NetClient::PumpOnce(int timeout_ms, bool* timed_out, std::string* error) {
  if (timed_out != nullptr) *timed_out = false;
  if (fd_ < 0) {
    SetError(error, "not connected");
    return false;
  }

  // Wait (up to timeout_ms) for the first readable byte, then drain
  // everything already queued without blocking again.
  std::uint8_t buf[16384];
  std::string io_error;
  IoStatus status = ReadFull(fd_, buf, 1, timeout_ms, &io_error);
  if (status == IoStatus::kTimeout) {
    if (timed_out != nullptr) *timed_out = true;
    return true;
  }
  if (status != IoStatus::kOk) {
    SetError(error, std::string("recv: ") +
                        (io_error.empty() ? IoStatusName(status) : io_error));
    return false;
  }
  bytes_in_ += 1;
  decoder_.Feed(buf, 1);
  bool peer_closed = false;
  for (;;) {
    ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      bytes_in_ += static_cast<std::uint64_t>(n);
      decoder_.Feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      // A server that rejects the handshake writes kAuthReject and then
      // closes, so the verdict frame and the EOF often arrive in the same
      // pump. Dispatch what the decoder already holds before reporting
      // the close, or the typed reject would be lost to a generic error.
      peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    SetError(error, std::string("recv: ") + std::strerror(errno));
    return false;
  }

  Frame frame;
  DecodeStatus decode;
  while ((decode = decoder_.Next(&frame)) == DecodeStatus::kOk) {
    frames_in_ += 1;
    Dispatch(std::move(frame));
  }
  if (IsDecodeError(decode)) {
    SetError(error,
             std::string("malformed frame: ") + DecodeStatusName(decode));
    return false;
  }
  if (peer_closed) {
    SetError(error, "recv: connection closed by peer");
    return false;
  }
  return true;
}

bool NetClient::WaitDone(std::uint64_t wire_sid, int timeout_ms,
                         std::string* error) {
  const std::int64_t deadline = NowMs() + timeout_ms;
  while (!sessions_[wire_sid].done()) {
    const int remaining = static_cast<int>(deadline - NowMs());
    if (remaining <= 0) {
      SetError(error, "session " + std::to_string(wire_sid) +
                          ": timed out waiting for close");
      return false;
    }
    bool timed_out = false;
    if (!PumpOnce(remaining, &timed_out, error)) return false;
  }
  return true;
}

void NetClient::Dispatch(Frame&& frame) {
  switch (frame.type) {
    case FrameType::kHelloAck: {
      PayloadReader reader(frame.payload);
      HelloInfo info;
      if (reader.U32(&info.version) && reader.U32(&info.input_sample_rate) &&
          reader.U32(&info.chunk_samples) &&
          reader.U32(&info.output_sample_rate) &&
          reader.U32(&info.output_samples_per_chunk)) {
        hello_info_ = info;
      }
      return;
    }
    case FrameType::kOpenAck:
      sessions_[frame.session_id].open_acked = true;
      return;
    case FrameType::kShadowData: {
      // Straight from the payload onto the stream; a malformed payload
      // (length not a multiple of 4) appends nothing.
      PayloadReader reader(frame.payload);
      reader.Floats(&sessions_[frame.session_id].shadow);
      return;
    }
    case FrameType::kClosed:
      sessions_[frame.session_id].closed = true;
      return;
    case FrameType::kError: {
      PayloadReader reader(frame.payload);
      WireError wire_error;
      if (!reader.U32(&wire_error.category)) wire_error.category = 0;
      wire_error.message = reader.RemainingText();
      if (frame.session_id == 0) {
        connection_error_ = std::move(wire_error);
      } else {
        sessions_[frame.session_id].error = std::move(wire_error);
      }
      return;
    }
    case FrameType::kPong:
      return;  // keepalive reply; nothing to record
    case FrameType::kAuthChallenge: {
      if (secret_.empty()) {
        // The server demands auth we cannot provide: fail the handshake
        // locally instead of timing out against a server that will never
        // ack.
        connection_error_ = WireError{
            static_cast<std::uint32_t>(
                runtime::ErrorCategory::kAuthRejected),
            "server requires a shared secret (--secret) and none is set"};
        auth_rejected_ = true;
        return;
      }
      PayloadReader reader(frame.payload);
      std::uint64_t nonce = 0;
      if (!reader.U64(&nonce) || !reader.complete()) {
        connection_error_ =
            WireError{0, "malformed auth challenge payload"};
        return;
      }
      Frame response;
      response.type = FrameType::kAuthResponse;
      response.session_id = frame.session_id;
      PutU64(&response.payload, AuthTag(secret_, nonce));
      // A failed send surfaces on the next pump (connection closed).
      SendFrame(response, nullptr);
      return;
    }
    case FrameType::kAuthReject: {
      PayloadReader reader(frame.payload);
      WireError wire_error;
      if (!reader.U32(&wire_error.category)) wire_error.category = 0;
      wire_error.message = reader.RemainingText();
      auth_rejected_ = true;
      connection_error_ = std::move(wire_error);
      return;
    }
    case FrameType::kShardStatus: {
      ShardStatusPayload status;
      if (ParseShardStatus(frame.payload, &status)) {
        shard_status_ = status;
      }
      return;
    }
    default:
      return;  // server-bound types are ignored if echoed back
  }
}

}  // namespace nec::net
