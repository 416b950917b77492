// Concurrent multi-session protection service.
//
// The paper's deployment loop (§VI-C) protects one target on one stream;
// SessionManager scales that to many concurrent rooms/recorders. Each
// session wraps an enrolled NecPipeline + StreamingProcessor exactly like
// the single-threaded path — sessions differ only in *who* is enrolled —
// while all sessions share one immutable trained Selector/SpeakerEncoder
// weight set via shared_ptr (Selector inference is const; see
// nn/layers.h).
//
// Concurrency model: per-session *strands* over a shared ThreadPool. Audio
// submitted to a session is appended to its StreamingProcessor's sample
// buffer — the session's only copy of the stream — and a strand is
// dispatched once that buffer holds a full chunk. At most one pool task
// per session is in flight at any time, and it pops the buffer chunk by
// chunk. Chunks of one session therefore process strictly in submission
// order on a single logical stream — per-session output is bit-identical
// to running the sequential StreamingProcessor — while chunks of
// *different* sessions run in parallel across the pool's workers.
//
// Fault isolation (DESIGN.md §5f): every exception raised while processing
// a session's audio is caught AT THE SESSION BOUNDARY. The session
// transitions to SessionState::kFaulted with a recorded SessionError
// (taxonomy in runtime/fault.h), sheds its backlog, and rejects further
// Submits until ResetSession() — every other session keeps protecting its
// room. A poisoned batch is bisected and retried in sub-batches so
// one bad chunk never drops other sessions' output. Chunks that blow the
// deadline budget (or fail transiently past the retry budget) can instead
// step down a graceful-degradation ladder (neural → LAS → silence) with
// automatic recovery probes back up — see Options::fault.
//
// Lock discipline: Session::mu guards the processor's sample buffer
// (Submit appends, the strand pops, shedding drops), output and running,
// plus the fault and degradation state. The processor's completion state
// (modulation latch, resampler plan) is touched only by the one thread
// completing the session's chunks — its strand, or in batched mode the
// dispatcher holding its lane — so it needs no lock. RuntimeStats is
// all-atomic.
//
// Continuous batching (Options::max_batch > 1, neural selector only):
// strands stop running the selector themselves — the same strand loop pops
// each ready chunk and enqueues it on the ContinuousBatcher, which admits
// them into the next batched forward as soon as a dispatch slot frees
// (earliest deadline first across sessions, FIFO within a session — see
// batcher.h). Options::workers dispatch threads run RunBatch concurrently
// on DISJOINT session sets: the batcher claims a session's lane
// exclusively while its chunks are in a running batch, so each session's
// StreamingProcessor completion state is still touched by one thread at a
// time and stream order — and with it the modulation-reference latch — is
// exactly the sequential path's. In this mode a session's
// StreamingProcessor is split between threads by member: the sample
// buffer is under Session::mu, the owning dispatcher holds the modulation
// latch and resampler plan — disjoint state, see streaming.h. Degraded
// sessions' chunks still ride the lane FIFO but are generated singly by
// the dispatcher that claimed the lane, so per-session completion order
// is preserved across ladder transitions.
//
// Memory: a Session holds only what its stream needs across chunks
// (enrollment, the processor's sample buffer, modulation latch and
// resampler plan, the output, the counters). Every per-chunk
// buffer (STFT workspace, spectrogram, shadow surface, selector arena,
// popped chunk, shadow and modulated waveforms, batch slots) belongs to
// the thread computing the chunk: core::ChunkScratch::ThisThread() on a
// pool worker (unbatched strands) or a batch dispatcher. Resident scratch
// therefore scales with Options::workers, not with the session count.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "audio/waveform.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "encoder/encoder.h"
#include "runtime/batcher.h"
#include "runtime/fault.h"
#include "runtime/stats.h"
#include "runtime/thread_pool.h"

namespace nec::runtime {

/// How Submit treats corrupt (NaN/Inf/wild-amplitude) audio.
enum class BadInputPolicy {
  kSanitize,  ///< repair in place (NaN/Inf → 0, wild → ±1), count it
  kReject,    ///< bounce the whole Submit with a typed kBadInput error
  kTrust,     ///< skip the scan entirely (caller vouches for the stream)
};

/// What happens when a chunk keeps failing after the retry budget.
enum class FaultPolicy {
  kFault,    ///< transition the session to kFaulted (default)
  kDegrade,  ///< step down the degradation ladder and keep serving
};

/// One session's externally visible health, returned by SessionStatus().
struct SessionStatus {
  SessionState state = SessionState::kIdle;
  std::optional<SessionError> error;  ///< set iff state == kFaulted
  DegradeLevel level = DegradeLevel::kNeural;  ///< current ladder rung
  std::uint64_t chunks_emitted = 0;
  std::uint64_t faults = 0;           ///< lifetime kFaulted transitions
  std::uint64_t deadline_misses = 0;  ///< chunks over budget (lifetime)
};

/// Typed Submit outcome. ok() == no error. On error, `error->category`
/// says what to do: kOverload — the dispatch was bounced by kReject
/// backpressure but the samples ARE buffered (retry with an empty span);
/// kBadInput — the samples were rejected and NOT buffered; anything else
/// is the recorded error of a faulted session (samples not buffered;
/// ResetSession() to restore service).
struct SubmitResult {
  std::optional<SessionError> error;
  bool ok() const { return !error.has_value(); }
  explicit operator bool() const { return ok(); }
};

/// The complete mid-stream state of a healthy session, exported for
/// migration to another SessionManager sharing the same weight set
/// (fleet draining reshard, DESIGN.md §5h). Enrollment does not travel —
/// it is seed-deterministic, so the re-enrolling side rebuilds it; what
/// does travel is everything the stream computed so far that future
/// output depends on: the partial-chunk tail and the stream-wide
/// modulation-reference latch.
struct SessionSnapshot {
  std::vector<float> tail;              ///< buffered partial-chunk samples
  double mod_reference_peak = 0.0;      ///< 0.0 = not yet latched
  std::uint64_t chunks_emitted = 0;     ///< carried for status continuity
};

class SessionManager {
 public:
  using SessionId = std::size_t;

  /// Fault-tolerance knobs (all containment is active regardless; these
  /// tune the reaction).
  struct FaultOptions {
    FaultPolicy on_error = FaultPolicy::kFault;
    BadInputPolicy bad_input = BadInputPolicy::kSanitize;
    /// Enables the deadline watchdog: consecutive chunks over
    /// Options::deadline_ms step the session down the ladder; sustained
    /// health probes it back up. Off by default — degradation changes
    /// output bits, so it must be an explicit opt-in.
    bool degrade_on_deadline = false;
    /// Consecutive deadline misses before stepping down one rung.
    std::size_t deadline_miss_threshold = 3;
    /// In-budget chunks at a degraded rung before probing one rung up.
    std::size_t recovery_probe_chunks = 8;
    /// Chunk-level retries before the on_error policy applies.
    std::size_t max_retries = 1;
    /// Sleep between retries (grows linearly with the attempt number).
    double retry_backoff_ms = 0.0;
  };

  struct Options {
    std::size_t workers = 4;
    std::size_t queue_capacity = 1024;
    /// Backpressure for strand dispatches when the pool queue is full.
    OverflowPolicy policy = OverflowPolicy::kBlock;
    /// Chunk duration per session (paper: 1 s, Table II).
    double chunk_s = 1.0;
    core::SelectorKind kind = core::SelectorKind::kNeural;

    // --- Continuous batching (DESIGN.md §5e). max_batch = 1 disables the
    // batcher: strands compute their own chunks. Batching applies to
    // the neural selector only (the LAS ablation has no batched forward).
    // When enabled, `workers` also sets the batcher's dispatch-thread
    // count — the heavy compute moves off the pool strands onto the
    // dispatchers, so `workers` keeps meaning "concurrent selector
    // forwards" in both modes.
    std::size_t max_batch = 1;
    /// Per-chunk end-to-end budget (paper: ~300 ms overshadowing
    /// tolerance). The batcher admits chunks earliest-deadline-first
    /// against it, and the deadline watchdog (if enabled) judges chunk
    /// processing time against it.
    double deadline_ms = 300.0;

    FaultOptions fault = {};  ///< containment / degradation / sanitization
  };

  /// All sessions share `selector` and `encoder` (no weight copies).
  /// (`options` has no `= {}` default: GCC bug 88165 rejects braced
  /// defaults of nested aggregates with member initializers.)
  SessionManager(std::shared_ptr<const core::Selector> selector,
                 std::shared_ptr<const encoder::SpeakerEncoder> encoder,
                 core::PipelineOptions pipeline_options, Options options);

  /// Drains in-flight work and joins the pool.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a protection session enrolled on `references` (paper: 3 clips
  /// of 3 s). Thread-safe; returns a dense id.
  SessionId CreateSession(std::span<const audio::Waveform> references);

  /// Feeds monitored samples to a session's buffer and, once it holds a
  /// full chunk and no strand is in flight, dispatches one on the pool.
  /// See SubmitResult for the error contract; in brief: a kOverload
  /// error means the strand dispatch was bounced by kReject backpressure
  /// but the samples are ALREADY buffered — retry with an empty span
  /// (`Submit(id, {})`) until it succeeds; re-submitting the same samples
  /// would duplicate them. Corrupt audio is sanitized or rejected per
  /// Options::fault.bad_input; a faulted session sheds input until
  /// ResetSession().
  ///
  /// Under kDropOldest a full pool queue evicts the oldest *queued* strand
  /// to admit this one. The evicted session is unwound, not wedged: its
  /// buffered-but-unprocessed audio is discarded (those chunks missed
  /// their deadline — that is what drop-oldest means) and the session goes
  /// back to idle, so later Submits redispatch and Drain/Flush still work.
  /// Drops are visible as `dispatch_drops` / `samples_dropped` in Stats().
  ///
  /// Thread-safe across sessions; calls for one session must come from one
  /// producer (a stream is ordered).
  ///
  /// `trace_flow` (optional) is a wire-carried trace flow id
  /// (kTraceContext, DESIGN.md §5g): when nonzero it attaches to the
  /// FIRST chunk that becomes ready from these samples, so that chunk's
  /// shard.compute span and flow-end event carry the remote sender's id
  /// and the merged fleet trace stitches client-submit → shard-compute
  /// into one flow. Zero (the default) keeps the local-only behavior.
  SubmitResult Submit(SessionId id, std::span<const float> samples,
                      std::uint64_t trace_flow = 0);

  /// Blocks until every strand dispatched so far has finished. Sessions
  /// may still hold partial-chunk tails (see Flush).
  void Drain();

  /// Zero-pads and processes a session's final partial chunk, if any.
  /// Call after Drain with no concurrent Submit to this session: with no
  /// strand in flight the buffer holds less than a chunk, and (batched)
  /// the session's batcher lane is idle (NEC_CHECK — SessionQuiescent).
  /// Returns nullopt for a faulted session (its tail is part of the shed
  /// backlog).
  std::optional<audio::Waveform> Flush(SessionId id);

  /// Moves out everything the session produced so far (modulated shadow at
  /// the air rate, in stream order). Thread-safe. `produced_since`
  /// (optional) receives the instant the oldest returned sample was
  /// appended — the anchor for the reply hop of the latency decomposition
  /// (time the output sat waiting for a taker); untouched when the
  /// returned waveform is empty.
  audio::Waveform TakeOutput(
      SessionId id,
      std::chrono::steady_clock::time_point* produced_since = nullptr);

  /// An eventfd that turns readable whenever a session gains something to
  /// report (a chunk's shadow appended to its output, or a fault) and
  /// stays readable until read. One poll loop watches it to pump output as
  /// a chunk completes rather than on its next tick. Owned by the manager.
  int output_event_fd() const { return output_event_fd_; }

  /// One session's health: lifecycle state, recorded error (if faulted),
  /// current degradation rung, and lifetime counters. Thread-safe.
  runtime::SessionStatus SessionStatus(SessionId id) const;

  /// Returns a faulted (or idle) session to service: clears the recorded
  /// error, discards any buffered backlog and partial-chunk tail, resets
  /// the degradation ladder to the top, and starts a fresh stream (the
  /// modulation-reference latch re-latches). Call only while the session
  /// is quiescent — after it reported kFaulted, or after Drain() with no
  /// concurrent Submit. Previously produced output remains takeable.
  void ResetSession(SessionId id);

  /// True when the session can be exported right now: no strand in
  /// flight, no full chunk buffered (only a partial tail, which travels in
  /// the snapshot), and (in batched mode) no chunks pending or in a
  /// running batch. With no concurrent Submit for this session,
  /// quiescence is stable once observed. Thread-safe.
  bool SessionQuiescent(SessionId id) const;

  /// Exports the session's mid-stream state for migration. Requires
  /// quiescence (NEC_CHECK) and a healthy session — a faulted one
  /// returns nullopt (its backlog was shed; there is no stream left to
  /// continue). The session itself is untouched: callers typically
  /// ResetSession() afterwards to reclaim it.
  std::optional<SessionSnapshot> ExportSession(SessionId id);

  /// Installs a migrated snapshot onto a freshly created (never
  /// submitted-to) session, making its future output bit-identical to
  /// the exporting session having continued. NEC_CHECKs freshness and a
  /// tail shorter than one chunk (an exported tail always is).
  void RestoreSession(SessionId id, const SessionSnapshot& snapshot);

  RuntimeStatsSnapshot Stats() const;

  std::size_t num_sessions() const;
  std::size_t workers() const { return pool_.workers(); }
  std::size_t chunk_samples() const { return chunk_samples_; }

  /// True when ready chunks route through the continuous batcher.
  bool batching_enabled() const { return batcher_ != nullptr; }

  /// Stops accepting strand dispatches, drains admitted ones, joins.
  void Shutdown();

 private:
  /// One protection session: only the state its stream carries from one
  /// chunk to the next. It owns no per-chunk buffer; the thread computing
  /// its chunk lends one (core::ChunkScratch, see the header comment).
  struct Session {
    Session(std::shared_ptr<const core::Selector> selector,
            std::shared_ptr<const encoder::SpeakerEncoder> encoder,
            const core::PipelineOptions& pipeline_options, double chunk_s,
            core::SelectorKind kind, SessionId session_id)
        : pipeline(std::move(selector), std::move(encoder),
                   pipeline_options),
          proc(pipeline, chunk_s, kind),
          id(session_id),
          top_level(kind == core::SelectorKind::kNeural
                        ? DegradeLevel::kNeural
                        : DegradeLevel::kLasFallback),
          level(top_level) {}

    core::NecPipeline pipeline;
    core::StreamingProcessor proc;  ///< its sample buffer: guarded by mu
    const SessionId id;             ///< fault-injection key + status

    std::mutex mu;
    /// Wire-carried trace flow id (kTraceContext) awaiting its chunk:
    /// consumed by the next chunk popped from this session's stream.
    /// Guarded by mu.
    std::uint64_t wire_flow = 0;
    /// When the buffer last reached a full chunk: the readiness of the
    /// oldest unpopped chunk, feeding end-to-end latency accounting on the
    /// unbatched path. Guarded by mu.
    std::chrono::steady_clock::time_point chunk_ready{};
    audio::Waveform output;    ///< guarded by mu
    /// When `output` last went empty → non-empty: production time of the
    /// oldest un-taken sample (reply-hop anchor). Guarded by mu.
    std::chrono::steady_clock::time_point output_since{};
    bool running = false;      ///< strand in flight; guarded by mu

    // --- Fault / degradation state, all guarded by mu.
    std::optional<SessionError> error;  ///< set → kFaulted (absorbing)
    const DegradeLevel top_level;  ///< best rung this session can run at
    DegradeLevel level;            ///< current rung
    std::size_t consecutive_misses = 0;
    std::size_t successes_at_level = 0;  ///< feeds the recovery probe
    std::uint64_t chunk_count = 0;
    std::uint64_t fault_count = 0;
    std::uint64_t miss_count = 0;
  };

  Session* GetSession(SessionId id) const;
  void RunStrand(Session* session);
  /// Batch callback; up to Options::workers run concurrently, always on
  /// disjoint session sets (lane exclusivity, see batcher.h).
  void RunBatch(std::vector<ContinuousBatcher::Item>&& items);
  void AbandonStrand(Session* session);
  void BeginStrand();
  void FinishStrand();

  /// Generates + completes one chunk at the session's current rung, with
  /// retry/backoff, the deadline watchdog, and recovery probes. `ready` is
  /// when the chunk became processable (chunk_ready / batcher enqueue)
  /// and anchors the end-to-end latency record. `flow` (0 = none) links
  /// the chunk's shard.compute span and flow-end back to a remote
  /// sender's trace. Returns false iff the session faulted. Runs on the
  /// strand (unbatched) or the owning dispatch thread (batched,
  /// degraded/poisoned items).
  bool ProcessOneChunk(Session* session, const audio::Waveform& chunk,
                       std::chrono::steady_clock::time_point ready,
                       std::uint64_t flow = 0);
  /// Records one completed chunk and appends its modulated output: latency
  /// stats (compute from `t0`, end to end from `ready`), the shard-compute
  /// hop and trace span (from `t0_ns`, 0 = tracing off), and the watchdog
  /// for the `level`/`probe` it ran at. Takes session->mu.
  void EmitChunk(Session* session, const audio::Waveform& modulated,
                 std::chrono::steady_clock::time_point ready,
                 std::chrono::steady_clock::time_point t0, std::uint64_t t0_ns,
                 std::uint64_t flow, DegradeLevel level, bool probe);
  /// Generates the shadow at `level` into `scratch.shadow`, using the
  /// single-chunk half of the calling thread's scratch — the
  /// zero-allocation strand path.
  void GenerateShadowAtLevelInto(Session* session,
                                 const audio::Waveform& chunk,
                                 DegradeLevel level,
                                 core::ChunkScratch& scratch);

  /// Batched forward over indices[begin, end) with bisection: a sub-batch
  /// that throws is split until the poisoned item is isolated; its slot in
  /// `errors` (indexed like `items`) gets the error, every other item's
  /// shadow lands in scratch.slots[j] for indices[j]. `scratch` is the
  /// dispatcher's own (core::ChunkScratch::ThisThread).
  void GenerateShadowsBisect(std::vector<ContinuousBatcher::Item>& items,
                             const std::vector<std::size_t>& indices,
                             std::size_t begin, std::size_t end,
                             core::ChunkScratch& scratch,
                             std::vector<std::optional<SessionError>>& errors);

  /// Applies the on_error policy to a chunk whose batched generation
  /// failed: step down the ladder and regenerate singly (kDegrade, so the
  /// stream loses no samples), or fault the session.
  void HandleGenerationError(Session* session, audio::Waveform chunk,
                             SessionError error,
                             std::chrono::steady_clock::time_point ready);
  /// Records the fault, sheds the session's backlog (buffered samples +
  /// pending batcher items), and returns it to a non-running state.
  void FaultSession(Session* session, SessionError error);
  /// Ladder step-down with stats. Caller holds session->mu.
  void StepDownLocked(Session* session);
  /// Watchdog bookkeeping after a successfully emitted chunk. Caller
  /// holds session->mu. `used_level`/`probe` describe how the chunk ran.
  void UpdateWatchdogLocked(Session* session, DegradeLevel used_level,
                            bool probe, double total_ms);
  /// The rung the next chunk should run at (may be one above the current
  /// rung when a recovery probe is due). Caller holds session->mu.
  DegradeLevel EffectiveLevelLocked(Session* session, bool* probe) const;

  const Options options_;
  const core::PipelineOptions pipeline_options_;
  const std::shared_ptr<const core::Selector> selector_;
  const std::shared_ptr<const encoder::SpeakerEncoder> encoder_;
  const int output_event_fd_;  ///< see output_event_fd()
  std::size_t chunk_samples_ = 0;

  mutable std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;

  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::size_t in_flight_ = 0;  ///< active strands; guarded by drain_mu_

  RuntimeStats stats_;
  /// Non-null iff Options::max_batch > 1 and the selector is neural.
  /// Declared before pool_: workers Enqueue into the batcher, and the
  /// batcher callbacks touch sessions/stats — Shutdown() stops the pool
  /// first, then the batcher, and destruction runs in the reverse of
  /// declaration so both are torn down before the state they touch.
  std::unique_ptr<ContinuousBatcher> batcher_;
  ThreadPool pool_;  ///< last member: workers die before state above
};

}  // namespace nec::runtime
