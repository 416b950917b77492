#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "net/auth.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "runtime/stats.h"
#include "synth/dataset.h"

namespace nec::net {
namespace {

constexpr const char* kComponent = "net.server";

std::uint64_t NowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// One wire session living on a connection. `id` is the SessionManager
/// session backing the wire id; lifecycle flags drive the per-tick pump.
struct NetServer::WireSession {
  std::uint64_t wire_sid = 0;
  runtime::SessionManager::SessionId id = 0;
  /// Enrollment seeds, kept so a draining reshard can re-enroll the
  /// session deterministically on another shard.
  std::uint64_t speaker_seed = 0;
  std::uint64_t ref_seed = 0;
  bool closing = false;   ///< client sent kCloseSession; flush when idle
  bool nudge = false;     ///< a Submit bounced with kOverload; retry empty
  bool draining = false;  ///< router asked for a migration snapshot
  /// Wire-carried trace flow id (kTraceContext) awaiting the next
  /// kSubmitChunk of this wire session (DESIGN.md §5g).
  std::uint64_t pending_flow = 0;
  /// Flow id of the most recently submitted traced chunk; tags the next
  /// kShadowData reply span so the flow reaches the reply hop.
  std::uint64_t reply_flow = 0;
};

struct NetServer::Connection {
  int fd = -1;
  FrameDecoder decoder;
  std::string outbound;       ///< encoded frames not yet written
  std::size_t out_off = 0;    ///< written prefix of outbound
  std::uint64_t last_activity_ms = 0;
  bool close_after_write = false;  ///< fatal error already queued
  /// The peer hung up (read EOF). With no session left open that is an
  /// orderly close, not a drop.
  bool peer_closed = false;
  bool authed = false;        ///< v2 handshake passed (or auth disabled)
  bool challenged = false;    ///< a nonce is outstanding
  std::uint64_t nonce = 0;    ///< per-connection challenge nonce
  std::vector<WireSession> sessions;

  WireSession* Find(std::uint64_t wire_sid) {
    for (WireSession& s : sessions) {
      if (s.wire_sid == wire_sid) return &s;
    }
    return nullptr;
  }
};

NetServer::NetServer(runtime::SessionManager* manager, Options options)
    : manager_(manager), options_(std::move(options)) {}

NetServer::~NetServer() { Stop(); }

bool NetServer::Start(std::string* error) {
  IgnoreSigpipe();
  if (!listener_.Listen(options_.host, options_.port, error)) return false;
  port_ = listener_.port();
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Serve(); });
  NEC_LOG_INFO(kComponent, "wire protocol listening on %s:%d",
               options_.host.c_str(), port_);
  return true;
}

void NetServer::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  // Wake the poll now rather than at its next tick.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(manager_->output_event_fd(), &one, sizeof one);
  thread_.join();
  for (auto& conn : connections_) CloseConnection(*conn, /*dropped=*/true);
  connections_.clear();
  listener_.Close();
}

void NetServer::Serve() {
  std::vector<struct pollfd> pfds;
  while (!stop_.load(std::memory_order_relaxed)) {
    pfds.clear();
    pfds.push_back({listener_.fd(), POLLIN, 0});
    pfds.push_back({manager_->output_event_fd(), POLLIN, 0});
    constexpr std::size_t kFirstConn = 2;  // pfds slot of connections_[0]
    for (const auto& conn : connections_) {
      short events = POLLIN;
      if (conn->out_off < conn->outbound.size()) events |= POLLOUT;
      pfds.push_back({conn->fd, events, 0});
    }
    const int pr = ::poll(pfds.data(), pfds.size(), options_.tick_ms);
    if (pr < 0 && errno != EINTR) break;

    // Connections accepted now were not in this poll set — only the
    // first `polled` entries of connections_ have a matching pfds slot.
    // Indexing pfds past that reads garbage revents and kills healthy
    // brand-new connections.
    const std::size_t polled = pfds.size() - kFirstConn;
    if (pfds[0].revents & POLLIN) AcceptPending();
    if (pfds[1].revents & POLLIN) {
      // Reset before pumping: output completing from here on wakes the
      // next poll.
      std::uint64_t count = 0;
      [[maybe_unused]] const ssize_t n =
          ::read(manager_->output_event_fd(), &count, sizeof count);
    }

    const std::uint64_t now = NowMs();
    // Iterate by index: HandleFrame never mutates connections_.
    for (std::size_t i = 0; i < polled; ++i) {
      Connection& conn = *connections_[i];
      const short revents = pfds[i + kFirstConn].revents;
      bool alive = true;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        alive = false;
      }
      if (alive && (revents & POLLIN)) {
        alive = ReadAndDispatch(conn);
        if (alive) conn.last_activity_ms = now;
      }
      if (alive) PumpSessions(conn);
      if (alive) alive = FlushOutbound(conn);
      if (alive && conn.close_after_write &&
          conn.out_off >= conn.outbound.size()) {
        alive = false;
      }
      if (alive && conn.sessions.empty() && options_.idle_timeout_ms > 0 &&
          now - conn.last_activity_ms >
              static_cast<std::uint64_t>(options_.idle_timeout_ms)) {
        NEC_LOG_WARN(kComponent, "dropping idle connection (fd %d)",
                     conn.fd);
        alive = false;
      }
      if (!alive) {
        // Not a drop (net_stats.h: closed by error, timeout or us): the
        // peer hanging up after its sessions closed, or us closing after
        // a fatal reply was fully written.
        const bool orderly =
            (conn.peer_closed && conn.sessions.empty()) ||
            (conn.close_after_write && conn.out_off >= conn.outbound.size());
        CloseConnection(conn, /*dropped=*/!orderly);
        connections_.erase(connections_.begin() +
                           static_cast<std::ptrdiff_t>(i));
        --i;
        // pfds is stale past this point for erased indices; the next loop
        // iteration uses i+1 offsets that no longer line up, so rebuild by
        // breaking out to the outer poll.
        break;
      }
    }
  }
}

void NetServer::AcceptPending() {
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
    conn->last_activity_ms = NowMs();
    connections_.push_back(std::move(conn));
    stats_.AddAccepted();
  }
}

bool NetServer::ReadAndDispatch(Connection& conn) {
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
      // Malformed framing maps onto the runtime's kBadInput taxonomy:
      // tell the peer what broke, then hang up (the stream is
      // untrustworthy once framing lied).
      stats_.AddDecodeError();
      NEC_LOG_WARN(kComponent, "decode error on fd %d: %s", conn.fd,
                   DecodeStatusName(status));
      SendError(conn, 0, runtime::ErrorCategory::kBadInput,
                std::string("malformed frame: ") + DecodeStatusName(status));
      conn.close_after_write = true;
      return true;
    }
    stats_.AddFrameIn();
    if (!HandleFrame(conn, std::move(frame))) return false;
  }
}

bool NetServer::HandleFrame(Connection& conn, Frame&& frame) {
  // Pre-auth gate: until the handshake completes, the only acceptable
  // frames are kHello and kAuthResponse — an unauthenticated peer cannot
  // enroll, submit, or even ping (the paper's threat model makes this
  // service the trusted party; an open enrollment path invites flooding).
  if (!conn.authed && frame.type != FrameType::kHello &&
      frame.type != FrameType::kAuthResponse) {
    RejectAuth(conn, std::string("unauthenticated ") +
                         FrameTypeName(frame.type) + " frame");
    return true;
  }
  switch (frame.type) {
    case FrameType::kHello: {
      PayloadReader reader(frame.payload);
      std::uint32_t min_ver = 0;
      std::uint32_t max_ver = 0;
      if (!reader.U32(&min_ver) || !reader.U32(&max_ver) ||
          !reader.complete()) {
        stats_.AddProtocolError();
        SendError(conn, 0, runtime::ErrorCategory::kBadInput,
                  "bad hello payload");
        return true;
      }
      if (min_ver > kProtocolVersion || max_ver < kProtocolVersion) {
        stats_.AddProtocolError();
        SendError(conn, 0, runtime::ErrorCategory::kBadInput,
                  "unsupported protocol version");
        conn.close_after_write = true;
        return true;
      }
      if (!conn.authed) {
        // Secret configured and not yet proven: challenge instead of
        // acking. Every hello gets a FRESH nonce, so a tag observed on
        // one connection (or an earlier hello) never verifies again —
        // that is the whole replay defense.
        conn.nonce = RandomNonce();
        conn.challenged = true;
        Frame challenge;
        challenge.type = FrameType::kAuthChallenge;
        PutU64(&challenge.payload, conn.nonce);
        SendFrame(conn, challenge);
        return true;
      }
      const std::uint32_t chunk = static_cast<std::uint32_t>(
          manager_->chunk_samples());
      Frame ack;
      ack.type = FrameType::kHelloAck;
      PutU32(&ack.payload, kProtocolVersion);
      PutU32(&ack.payload,
             static_cast<std::uint32_t>(options_.input_sample_rate));
      PutU32(&ack.payload, chunk);
      PutU32(&ack.payload,
             static_cast<std::uint32_t>(options_.output_sample_rate));
      PutU32(&ack.payload,
             static_cast<std::uint32_t>(
                 static_cast<std::uint64_t>(chunk) *
                 static_cast<std::uint64_t>(options_.output_sample_rate) /
                 static_cast<std::uint64_t>(options_.input_sample_rate)));
      SendFrame(conn, ack);
      return true;
    }

    case FrameType::kAuthResponse: {
      if (conn.authed) {
        stats_.AddProtocolError();
        SendError(conn, 0, runtime::ErrorCategory::kBadInput,
                  "auth response on an authenticated connection");
        return true;
      }
      if (!conn.challenged) {
        RejectAuth(conn, "auth response without an outstanding challenge");
        return true;
      }
      PayloadReader reader(frame.payload);
      std::uint64_t tag = 0;
      if (!reader.U64(&tag) || !reader.complete()) {
        RejectAuth(conn, "bad auth response payload");
        return true;
      }
      // One verification per nonce: consumed pass or fail, so a brute
      // force cannot iterate tags against a single challenge.
      conn.challenged = false;
      const std::uint64_t want = AuthTag(options_.secret, conn.nonce);
      if (tag != want) {
        RejectAuth(conn, "auth tag mismatch");
        return true;
      }
      conn.authed = true;
      stats_.AddAuthOk();
      // Complete the hello the challenge interrupted.
      const std::uint32_t chunk = static_cast<std::uint32_t>(
          manager_->chunk_samples());
      Frame ack;
      ack.type = FrameType::kHelloAck;
      PutU32(&ack.payload, kProtocolVersion);
      PutU32(&ack.payload,
             static_cast<std::uint32_t>(options_.input_sample_rate));
      PutU32(&ack.payload, chunk);
      PutU32(&ack.payload,
             static_cast<std::uint32_t>(options_.output_sample_rate));
      PutU32(&ack.payload,
             static_cast<std::uint32_t>(
                 static_cast<std::uint64_t>(chunk) *
                 static_cast<std::uint64_t>(options_.output_sample_rate) /
                 static_cast<std::uint64_t>(options_.input_sample_rate)));
      SendFrame(conn, ack);
      return true;
    }

    case FrameType::kOpenSession: {
      PayloadReader reader(frame.payload);
      std::uint64_t speaker_seed = 0;
      std::uint64_t ref_seed = 0;
      if (!reader.U64(&speaker_seed) || !reader.U64(&ref_seed) ||
          !reader.complete()) {
        stats_.AddProtocolError();
        SendError(conn, frame.session_id,
                  runtime::ErrorCategory::kBadInput,
                  "bad open_session payload");
        return true;
      }
      if (conn.Find(frame.session_id) != nullptr) {
        stats_.AddProtocolError();
        SendError(conn, frame.session_id,
                  runtime::ErrorCategory::kBadInput,
                  "wire session id already open");
        return true;
      }
      // Deterministic seed-based enrollment: same seeds + same weights
      // give the same enrolled session on every shard.
      synth::DatasetBuilder enroll_builder(
          {.duration_s = options_.enroll_seconds});
      const auto refs = enroll_builder.MakeReferenceAudios(
          synth::SpeakerProfile::FromSeed(speaker_seed),
          options_.enroll_refs, ref_seed);
      WireSession session;
      session.wire_sid = frame.session_id;
      session.id = manager_->CreateSession(refs);
      session.speaker_seed = speaker_seed;
      session.ref_seed = ref_seed;
      conn.sessions.push_back(session);
      stats_.AddSessionOpened();
      Frame ack;
      ack.type = FrameType::kOpenAck;
      ack.session_id = frame.session_id;
      SendFrame(conn, ack);
      return true;
    }

    case FrameType::kSubmitChunk: {
      WireSession* session = conn.Find(frame.session_id);
      if (session == nullptr || session->closing) {
        stats_.AddProtocolError();
        SendError(conn, frame.session_id,
                  runtime::ErrorCategory::kBadInput,
                  session == nullptr ? "unknown wire session id"
                                     : "session is closing");
        return true;
      }
      PayloadReader reader(frame.payload);
      std::vector<float> samples;
      if (!reader.Floats(&samples)) {
        stats_.AddProtocolError();
        SendError(conn, frame.session_id,
                  runtime::ErrorCategory::kBadInput,
                  "submit payload not a float32 array");
        return true;
      }
      const std::uint64_t flow = session->pending_flow;
      session->pending_flow = 0;
      if (flow != 0) session->reply_flow = flow;
      const runtime::SubmitResult r =
          manager_->Submit(session->id, samples, flow);
      if (!r.ok()) {
        if (r.error->category == runtime::ErrorCategory::kOverload) {
          // Samples ARE buffered; retry the dispatch with empty submits
          // from the tick loop until the pool admits it.
          session->nudge = true;
        } else {
          // Typed rejection (bad input) or a faulted session: surface it
          // and, for faults, retire the wire session.
          SendError(conn, frame.session_id, r.error->category,
                    r.error->message);
          if (r.error->category != runtime::ErrorCategory::kBadInput) {
            stats_.AddSessionFaulted();
            conn.sessions.erase(
                conn.sessions.begin() + (session - conn.sessions.data()));
          }
        }
      }
      return true;
    }

    case FrameType::kCloseSession: {
      WireSession* session = conn.Find(frame.session_id);
      if (session == nullptr) {
        stats_.AddProtocolError();
        SendError(conn, frame.session_id,
                  runtime::ErrorCategory::kBadInput,
                  "unknown wire session id");
        return true;
      }
      session->closing = true;
      return true;
    }

    case FrameType::kTraceContext: {
      // Pure metadata (DESIGN.md §5g): stash the sender's flow id for the
      // next kSubmitChunk of this wire session. Never an error — a
      // context frame for an unknown/closing session (chunk raced a
      // close) or a malformed payload is dropped silently, because trace
      // plumbing must not change processing semantics.
      WireSession* session = conn.Find(frame.session_id);
      PayloadReader reader(frame.payload);
      std::uint64_t flow = 0;
      if (session != nullptr && reader.U64(&flow) && reader.complete()) {
        session->pending_flow = flow;
      }
      return true;
    }

    case FrameType::kPing: {
      Frame pong;
      pong.type = FrameType::kPong;
      pong.session_id = frame.session_id;
      pong.payload = std::move(frame.payload);
      SendFrame(conn, pong);
      return true;
    }

    case FrameType::kStatusRequest: {
      SendShardStatus(conn);
      return true;
    }

    case FrameType::kDrainSession: {
      WireSession* session = conn.Find(frame.session_id);
      if (session == nullptr) {
        // Benign race: the session finished (kClosed/kError in flight
        // toward the router) before the drain request landed. The
        // terminal frame already releases the router's sticky state, so
        // there is nothing to move.
        return true;
      }
      // The router has stopped forwarding this session's frames; once
      // everything in flight completes, PumpSessions exports a snapshot.
      session->draining = true;
      return true;
    }

    case FrameType::kRestoreSession: {
      SessionSnapshotPayload snap;
      if (!ParseSessionSnapshot(frame.payload, &snap)) {
        stats_.AddProtocolError();
        SendError(conn, frame.session_id,
                  runtime::ErrorCategory::kBadInput,
                  "bad restore_session payload");
        return true;
      }
      if (conn.Find(frame.session_id) != nullptr) {
        stats_.AddProtocolError();
        SendError(conn, frame.session_id,
                  runtime::ErrorCategory::kBadInput,
                  "wire session id already open");
        return true;
      }
      if (snap.tail.size() >= manager_->chunk_samples()) {
        // An exporting shard ships only a partial tail; a full chunk
        // would sit buffered with no strand to pop it.
        stats_.AddProtocolError();
        SendError(conn, frame.session_id,
                  runtime::ErrorCategory::kBadInput,
                  "restore_session tail holds a full chunk");
        return true;
      }
      // Re-enroll deterministically from the migrated seeds (same weights
      // + same seeds = the same enrolled session the draining shard had),
      // then install the mid-stream state — partial tail and modulation
      // latch — so continuation is bit-identical.
      synth::DatasetBuilder enroll_builder(
          {.duration_s = options_.enroll_seconds});
      const auto refs = enroll_builder.MakeReferenceAudios(
          synth::SpeakerProfile::FromSeed(snap.speaker_seed),
          options_.enroll_refs, snap.ref_seed);
      WireSession session;
      session.wire_sid = frame.session_id;
      session.id = manager_->CreateSession(refs);
      session.speaker_seed = snap.speaker_seed;
      session.ref_seed = snap.ref_seed;
      manager_->RestoreSession(
          session.id,
          runtime::SessionSnapshot{
              .tail = std::move(snap.tail),
              .mod_reference_peak = std::bit_cast<double>(snap.latch_bits),
              .chunks_emitted = snap.chunks_done});
      conn.sessions.push_back(session);
      stats_.AddSessionOpened();
      Frame ack;
      ack.type = FrameType::kOpenAck;
      ack.session_id = frame.session_id;
      SendFrame(conn, ack);
      return true;
    }

    default:
      // Server-to-client types arriving at the server are protocol abuse.
      stats_.AddProtocolError();
      SendError(conn, frame.session_id, runtime::ErrorCategory::kBadInput,
                std::string("unexpected frame type: ") +
                    FrameTypeName(frame.type));
      return true;
  }
}

void NetServer::PumpSessions(Connection& conn) {
  for (std::size_t i = 0; i < conn.sessions.size(); ++i) {
    WireSession& session = conn.sessions[i];
    if (session.nudge) {
      const runtime::SubmitResult r = manager_->Submit(session.id, {});
      if (r.ok()) {
        session.nudge = false;
      } else if (r.error->category != runtime::ErrorCategory::kOverload) {
        session.nudge = false;  // fault path below reports it
      }
    }

    const runtime::SessionStatus status =
        manager_->SessionStatus(session.id);
    if (status.state == runtime::SessionState::kFaulted) {
      const runtime::SessionError error =
          status.error.value_or(runtime::SessionError{
              runtime::ErrorCategory::kInvariant, "session faulted"});
      SendError(conn, session.wire_sid, error.category, error.message);
      stats_.AddSessionFaulted();
      conn.sessions.erase(conn.sessions.begin() +
                          static_cast<std::ptrdiff_t>(i));
      --i;
      continue;
    }

    std::chrono::steady_clock::time_point produced_since{};
    audio::Waveform out = manager_->TakeOutput(session.id, &produced_since);
    if (out.size() > 0) {
      // Reply hop (§5g): oldest produced-but-undelivered sample → now,
      // i.e. how long finished shadow waited for this tick's encode.
      runtime::HopStats::Global().Record(
          runtime::Hop::kReply,
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - produced_since)
              .count());
    }

    if (session.draining && !session.closing) {
      // Migration: deliver whatever shadow already completed, then — once
      // every in-flight chunk has finished (strand parked, no full chunk
      // buffered, batcher lane idle) — export the mid-stream state and
      // retire the wire session. The partial tail is NOT flushed: it
      // travels in the snapshot and completes on the destination shard.
      if (out.size() > 0) {
        Frame data;
        data.type = FrameType::kShadowData;
        data.session_id = session.wire_sid;
        PutFloats(&data.payload, out.samples());
        SendFrame(conn, data);
      }
      if (session.nudge || !manager_->SessionQuiescent(session.id)) {
        continue;  // still settling; try again next tick
      }
      if (auto snap = manager_->ExportSession(session.id)) {
        SessionSnapshotPayload payload;
        payload.speaker_seed = session.speaker_seed;
        payload.ref_seed = session.ref_seed;
        payload.chunks_done = snap->chunks_emitted;
        payload.latch_bits =
            std::bit_cast<std::uint64_t>(snap->mod_reference_peak);
        payload.tail = std::move(snap->tail);
        Frame snapshot;
        snapshot.type = FrameType::kSessionSnapshot;
        snapshot.session_id = session.wire_sid;
        PutSessionSnapshot(&snapshot.payload, payload);
        SendFrame(conn, snapshot);
        // Reclaim the backing session: reuse buffers reset, modulation
        // latch cleared. Migrated, not closed and not faulted.
        manager_->ResetSession(session.id);
        stats_.AddSessionMigrated();
        conn.sessions.erase(conn.sessions.begin() +
                            static_cast<std::ptrdiff_t>(i));
        --i;
      }
      // nullopt = the session faulted at the last moment; the fault path
      // above reports it on the next tick.
      continue;
    }

    const bool finish = session.closing && !session.nudge &&
                        manager_->SessionQuiescent(session.id);
    if (finish) {
      // The strand is parked, the batcher lane is idle and no Submit can
      // race (only this thread submits): flush the partial tail, if any,
      // into the same burst, after every earlier chunk.
      if (auto tail = manager_->Flush(session.id)) out.Append(*tail);
    }
    if (out.size() > 0) {
      obs::TraceRecorder& rec = obs::TraceRecorder::Global();
      const std::uint64_t t0_ns = rec.enabled() ? obs::TraceNowNs() : 0;
      Frame data;
      data.type = FrameType::kShadowData;
      data.session_id = session.wire_sid;
      PutFloats(&data.payload, out.samples());
      SendFrame(conn, data);
      if (t0_ns != 0) {
        // Reply span, tagged with the last traced chunk's flow so the
        // merged fleet trace reaches client-submit → shard-compute →
        // reply on one id.
        rec.RecordSpan("shard.reply", "net", t0_ns,
                       obs::TraceNowNs() - t0_ns,
                       std::exchange(session.reply_flow, 0),
                       session.wire_sid);
      }
    }
    if (finish) {
      Frame closed;
      closed.type = FrameType::kClosed;
      closed.session_id = session.wire_sid;
      SendFrame(conn, closed);
      stats_.AddSessionClosed();
      conn.sessions.erase(conn.sessions.begin() +
                          static_cast<std::ptrdiff_t>(i));
      --i;
    }
  }
}

void NetServer::SendFrame(Connection& conn, const Frame& frame) {
  EncodeFrame(frame, &conn.outbound);
  stats_.AddFrameOut();
}

void NetServer::SendError(Connection& conn, std::uint64_t wire_sid,
                          runtime::ErrorCategory category,
                          const std::string& message) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.session_id = wire_sid;
  PutU32(&frame.payload, static_cast<std::uint32_t>(category));
  frame.payload.insert(frame.payload.end(), message.begin(), message.end());
  SendFrame(conn, frame);
}

void NetServer::RejectAuth(Connection& conn, const std::string& message) {
  stats_.AddAuthRejected();
  NEC_LOG_WARN(kComponent, "auth rejected on fd %d: %s", conn.fd,
               message.c_str());
  Frame frame;
  frame.type = FrameType::kAuthReject;
  PutU32(&frame.payload, static_cast<std::uint32_t>(
                             runtime::ErrorCategory::kAuthRejected));
  frame.payload.insert(frame.payload.end(), message.begin(), message.end());
  SendFrame(conn, frame);
  conn.close_after_write = true;
}

void NetServer::SendShardStatus(Connection& conn) {
  const runtime::RuntimeStatsSnapshot rs = manager_->Stats();
  ShardStatusPayload status;
  status.queue_depth = static_cast<std::uint32_t>(rs.queue_depth);
  const std::int64_t forced =
      status_depth_override_.load(std::memory_order_relaxed);
  if (forced >= 0) status.queue_depth = static_cast<std::uint32_t>(forced);
  std::uint64_t active = 0;
  for (const auto& c : connections_) active += c->sessions.size();
  status.active_sessions = static_cast<std::uint32_t>(active);
  status.e2e_p99_ms = static_cast<float>(rs.e2e_latency.p99_ms);
  status.overload_total = rs.dispatch_rejections;
  Frame frame;
  frame.type = FrameType::kShardStatus;
  PutShardStatus(&frame.payload, status);
  SendFrame(conn, frame);
}

bool NetServer::FlushOutbound(Connection& conn) {
  while (conn.out_off < conn.outbound.size()) {
    const ssize_t n = ::send(conn.fd, conn.outbound.data() + conn.out_off,
                             conn.outbound.size() - conn.out_off,
#if defined(MSG_NOSIGNAL)
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      stats_.AddBytesOut(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // peer gone mid-write
  }
  if (conn.out_off == conn.outbound.size()) {
    conn.outbound.clear();
    conn.out_off = 0;
  } else if (conn.out_off > (1u << 20)) {
    conn.outbound.erase(0, conn.out_off);
    conn.out_off = 0;
  }
  if (conn.outbound.size() - conn.out_off > options_.max_outbound_bytes) {
    NEC_LOG_WARN(kComponent,
                 "dropping connection fd %d: peer not reading (%zu bytes "
                 "pending)",
                 conn.fd, conn.outbound.size() - conn.out_off);
    return false;
  }
  return true;
}

void NetServer::CloseConnection(Connection& conn, bool dropped) {
  if (conn.fd < 0) return;
  ::close(conn.fd);
  conn.fd = -1;
  stats_.AddClosed(dropped);
}

}  // namespace nec::net
