#include "net/server.h"

#include <poll.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <utility>

#include "net/conn.h"
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

struct NetServer::Connection : ServerConn {
  using ServerConn::ServerConn;

  std::uint64_t last_activity_ms = 0;
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
  for (auto& conn : connections_) conn->Close(/*dropped=*/true);
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
      pfds.push_back({conn->fd, conn->poll_events(), 0});
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
    // HandleFrame never mutates connections_; a closed connection stays
    // in place until the sweep below, so pfds slots keep lining up.
    for (std::size_t i = 0; i < polled; ++i) {
      Connection& conn = *connections_[i];
      const short revents = pfds[i + kFirstConn].revents;
      bool alive = (revents & (POLLERR | POLLHUP | POLLNVAL)) == 0;
      if (alive && (revents & POLLIN)) {
        alive = conn.ReadFrames(
            [&](Frame&& frame) { HandleFrame(conn, std::move(frame)); });
        if (alive) conn.last_activity_ms = now;
      }
      if (alive) PumpSessions(conn);
      if (alive) alive = conn.Flush(options_.max_outbound_bytes);
      if (alive && conn.fatal_reply_sent()) alive = false;
      if (alive && conn.sessions.empty() && options_.idle_timeout_ms > 0 &&
          now - conn.last_activity_ms >
              static_cast<std::uint64_t>(options_.idle_timeout_ms)) {
        NEC_LOG_WARN(kComponent, "dropping idle connection (fd %d)",
                     conn.fd);
        alive = false;
      }
      if (!alive) conn.Close(/*dropped=*/!conn.Orderly(!conn.sessions.empty()));
    }
    std::erase_if(connections_,
                  [](const auto& conn) { return !conn->connected(); });
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
    auto conn =
        std::make_unique<Connection>(fd, stats_, options_.secret.empty());
    conn->last_activity_ms = NowMs();
    connections_.push_back(std::move(conn));
    stats_.AddAccepted();
  }
}

void NetServer::HandleFrame(Connection& conn, Frame&& frame) {
  const Admission admission = conn.Admit(frame, options_.secret);
  if (admission == Admission::kAckHello) SendHelloAck(conn);
  if (admission != Admission::kPass) return;
  switch (frame.type) {
    case FrameType::kOpenSession: {
      PayloadReader reader(frame.payload);
      std::uint64_t speaker_seed = 0;
      std::uint64_t ref_seed = 0;
      if (!reader.U64(&speaker_seed) || !reader.U64(&ref_seed) ||
          !reader.complete()) {
        stats_.AddProtocolError();
        conn.SendError(frame.session_id,
                       runtime::ErrorCategory::kBadInput,
                       "bad open_session payload");
        return;
      }
      if (conn.Find(frame.session_id) != nullptr) {
        stats_.AddProtocolError();
        conn.SendError(frame.session_id,
                       runtime::ErrorCategory::kBadInput,
                       "wire session id already open");
        return;
      }
      OpenWireSession(conn, frame.session_id, speaker_seed, ref_seed);
      return;
    }

    case FrameType::kSubmitChunk: {
      WireSession* session = conn.Find(frame.session_id);
      if (session == nullptr || session->closing) {
        stats_.AddProtocolError();
        conn.SendError(frame.session_id,
                       runtime::ErrorCategory::kBadInput,
                       session == nullptr ? "unknown wire session id"
                                          : "session is closing");
        return;
      }
      PayloadReader reader(frame.payload);
      std::vector<float> samples;
      if (!reader.Floats(&samples)) {
        stats_.AddProtocolError();
        conn.SendError(frame.session_id,
                       runtime::ErrorCategory::kBadInput,
                       "submit payload not a float32 array");
        return;
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
          conn.SendError(frame.session_id, r.error->category,
                         r.error->message);
          if (r.error->category != runtime::ErrorCategory::kBadInput) {
            stats_.AddSessionFaulted();
            conn.sessions.erase(
                conn.sessions.begin() + (session - conn.sessions.data()));
          }
        }
      }
      return;
    }

    case FrameType::kCloseSession: {
      WireSession* session = conn.Find(frame.session_id);
      if (session == nullptr) {
        stats_.AddProtocolError();
        conn.SendError(frame.session_id,
                       runtime::ErrorCategory::kBadInput,
                       "unknown wire session id");
        return;
      }
      session->closing = true;
      return;
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
      return;
    }

    case FrameType::kPing: {
      Frame pong;
      pong.type = FrameType::kPong;
      pong.session_id = frame.session_id;
      pong.payload = std::move(frame.payload);
      conn.Send(pong);
      return;
    }

    case FrameType::kStatusRequest: {
      SendShardStatus(conn);
      return;
    }

    case FrameType::kDrainSession: {
      WireSession* session = conn.Find(frame.session_id);
      if (session == nullptr) {
        // Benign race: the session finished (kClosed/kError in flight
        // toward the router) before the drain request landed. The
        // terminal frame already releases the router's sticky state, so
        // there is nothing to move.
        return;
      }
      // The router has stopped forwarding this session's frames; once
      // everything in flight completes, PumpSessions exports a snapshot.
      session->draining = true;
      return;
    }

    case FrameType::kRestoreSession: {
      SessionSnapshotPayload snap;
      if (!ParseSessionSnapshot(frame.payload, &snap)) {
        stats_.AddProtocolError();
        conn.SendError(frame.session_id,
                       runtime::ErrorCategory::kBadInput,
                       "bad restore_session payload");
        return;
      }
      if (conn.Find(frame.session_id) != nullptr) {
        stats_.AddProtocolError();
        conn.SendError(frame.session_id,
                       runtime::ErrorCategory::kBadInput,
                       "wire session id already open");
        return;
      }
      if (snap.tail.size() >= manager_->chunk_samples()) {
        // An exporting shard ships only a partial tail; a full chunk
        // would sit buffered with no strand to pop it.
        stats_.AddProtocolError();
        conn.SendError(frame.session_id,
                       runtime::ErrorCategory::kBadInput,
                       "restore_session tail holds a full chunk");
        return;
      }
      // Re-enroll deterministically from the migrated seeds (same weights
      // + same seeds = the same enrolled session the draining shard had),
      // then install the mid-stream state — partial tail and modulation
      // latch — so continuation is bit-identical. Only this thread feeds
      // the session, so the ack queued first reaches no one earlier.
      const WireSession& session = OpenWireSession(
          conn, frame.session_id, snap.speaker_seed, snap.ref_seed);
      manager_->RestoreSession(
          session.id,
          runtime::SessionSnapshot{
              .tail = std::move(snap.tail),
              .mod_reference_peak = std::bit_cast<double>(snap.latch_bits),
              .chunks_emitted = snap.chunks_done});
      return;
    }

    default:
      // Server-to-client types arriving at the server are protocol abuse.
      stats_.AddProtocolError();
      conn.SendError(frame.session_id, runtime::ErrorCategory::kBadInput,
                     std::string("unexpected frame type: ") +
                         FrameTypeName(frame.type));
      return;
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
      conn.SendError(session.wire_sid, error.category, error.message);
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
        conn.Send(data);
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
        conn.Send(snapshot);
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
      conn.Send(data);
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
      conn.Send(closed);
      stats_.AddSessionClosed();
      conn.sessions.erase(conn.sessions.begin() +
                          static_cast<std::ptrdiff_t>(i));
      --i;
    }
  }
}

NetServer::WireSession& NetServer::OpenWireSession(
    Connection& conn, std::uint64_t wire_sid, std::uint64_t speaker_seed,
    std::uint64_t ref_seed) {
  // Deterministic seed-based enrollment: same seeds + same weights give
  // the same enrolled session on every shard.
  synth::DatasetBuilder enroll_builder({.duration_s = options_.enroll_seconds});
  const auto refs = enroll_builder.MakeReferenceAudios(
      synth::SpeakerProfile::FromSeed(speaker_seed), options_.enroll_refs,
      ref_seed);
  const runtime::SessionManager::SessionId id = manager_->CreateSession(refs);
  conn.sessions.push_back({.wire_sid = wire_sid,
                           .id = id,
                           .speaker_seed = speaker_seed,
                           .ref_seed = ref_seed});
  stats_.AddSessionOpened();
  Frame ack;
  ack.type = FrameType::kOpenAck;
  ack.session_id = wire_sid;
  conn.Send(ack);
  return conn.sessions.back();
}

void NetServer::SendHelloAck(Connection& conn) {
  const auto chunk = static_cast<std::uint32_t>(manager_->chunk_samples());
  const auto in_rate = static_cast<std::uint32_t>(options_.input_sample_rate);
  const auto out_rate =
      static_cast<std::uint32_t>(options_.output_sample_rate);
  Frame ack;
  ack.type = FrameType::kHelloAck;
  PutHelloAck(&ack.payload,
              {.version = kProtocolVersion,
               .input_sample_rate = in_rate,
               .chunk_samples = chunk,
               .output_sample_rate = out_rate,
               .output_samples_per_chunk = static_cast<std::uint32_t>(
                   std::uint64_t{chunk} * out_rate / in_rate)});
  conn.Send(ack);
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
  conn.Send(frame);
}

}  // namespace nec::net
