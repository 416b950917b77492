#include "runtime/session_manager.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace nec::runtime {
namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Maps an exception onto the closed error taxonomy.
SessionError ClassifyException(std::exception_ptr error) {
  try {
    std::rethrow_exception(error);
  } catch (const InjectedFault& f) {
    return SessionError{f.category(), f.what()};
  } catch (const std::invalid_argument& e) {
    return SessionError{ErrorCategory::kBadInput, e.what()};
  } catch (const nec::CheckError& e) {
    return SessionError{ErrorCategory::kInvariant, e.what()};
  } catch (const std::exception& e) {
    return SessionError{ErrorCategory::kInvariant, e.what()};
  } catch (...) {
    return SessionError{ErrorCategory::kInvariant, "unknown exception"};
  }
}

// Bumps an eventfd counter. A poller needs it only nonzero, so a failed
// (saturated) write loses nothing.
void Signal(int event_fd) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(event_fd, &one, sizeof one);
}

}  // namespace

SessionManager::SessionManager(
    std::shared_ptr<const core::Selector> selector,
    std::shared_ptr<const encoder::SpeakerEncoder> encoder,
    core::PipelineOptions pipeline_options, Options options)
    : options_(options),
      pipeline_options_(pipeline_options),
      selector_(std::move(selector)),
      encoder_(std::move(encoder)),
      output_event_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      pool_(ThreadPool::Options{.workers = options.workers,
                                .queue_capacity = options.queue_capacity,
                                .policy = options.policy}) {
  NEC_CHECK(selector_ != nullptr && encoder_ != nullptr);
  NEC_CHECK_MSG(output_event_fd_ >= 0, "eventfd failed");
  chunk_samples_ = static_cast<std::size_t>(
      options_.chunk_s * selector_->config().sample_rate);
  if (options_.max_batch > 1 &&
      options_.kind == core::SelectorKind::kNeural) {
    batcher_ = std::make_unique<ContinuousBatcher>(
        ContinuousBatcher::Options{.max_batch = options_.max_batch,
                                   .workers = options_.workers,
                                   .deadline_ms = options_.deadline_ms},
        [this](std::vector<ContinuousBatcher::Item>&& items) {
          RunBatch(std::move(items));
        });
  }
}

SessionManager::~SessionManager() {
  Shutdown();  // no thread signals the eventfd after this
  ::close(output_event_fd_);
}

void SessionManager::Shutdown() {
  // Pool first (no strand can Enqueue afterwards), then the batcher —
  // its Shutdown dispatches whatever is still pending before joining.
  pool_.Shutdown();
  if (batcher_ != nullptr) batcher_->Shutdown();
}

SessionManager::SessionId SessionManager::CreateSession(
    std::span<const audio::Waveform> references) {
  Session* session = nullptr;
  {
    std::lock_guard lock(sessions_mu_);
    const SessionId id = sessions_.size();
    sessions_.push_back(std::make_unique<Session>(
        selector_, encoder_, pipeline_options_, options_.chunk_s,
        options_.kind, id));
    session = sessions_.back().get();
  }
  // Enrollment (the encoder forward) runs outside sessions_mu_ so
  // concurrent CreateSession calls embed in parallel; only the creator
  // knows the id until this returns.
  session->pipeline.Enroll(references);
  stats_.AddSession();
  return session->id;
}

SessionManager::Session* SessionManager::GetSession(SessionId id) const {
  std::lock_guard lock(sessions_mu_);
  NEC_CHECK_MSG(id < sessions_.size(), "unknown session id " << id);
  return sessions_[id].get();
}

SubmitResult SessionManager::Submit(SessionId id,
                                    std::span<const float> samples,
                                    std::uint64_t trace_flow) {
  NEC_TRACE_SPAN_ARG("runtime.submit", id);
  Session* s = GetSession(id);

  // Input hygiene at the service boundary: NaN/Inf/wild-amplitude capture
  // audio never reaches the DSP. The scan is one pass over the samples —
  // noise next to the selector forward.
  std::vector<float> repaired;
  std::span<const float> accepted = samples;
  if (options_.fault.bad_input != BadInputPolicy::kTrust &&
      !samples.empty()) {
    const SampleScan scan = ScanSamples(samples);
    if (!scan.clean()) {
      if (options_.fault.bad_input == BadInputPolicy::kReject) {
        stats_.AddBadInputRejection();
        return SubmitResult{SessionError{
            ErrorCategory::kBadInput,
            "rejected submit: " + std::to_string(scan.nonfinite) +
                " non-finite + " + std::to_string(scan.wild) +
                " wild-amplitude samples"}};
      }
      repaired.assign(samples.begin(), samples.end());
      stats_.AddSanitized(SanitizeSamples(repaired).total());
      accepted = repaired;
    }
  }

  stats_.AddSamples(accepted.size());

  {
    std::lock_guard lock(s->mu);
    if (s->error.has_value()) {
      // A faulted session sheds input until ResetSession().
      stats_.AddSamplesDropped(accepted.size());
      return SubmitResult{*s->error};
    }
    const bool had_chunk = s->proc.HasFullChunk();
    s->proc.BufferSamples(accepted);
    if (!had_chunk && s->proc.HasFullChunk()) {
      // The backlog just became processable — the anchor for end-to-end
      // latency on the unbatched path.
      s->chunk_ready = std::chrono::steady_clock::now();
    }
    if (trace_flow != 0) s->wire_flow = trace_flow;
    // A sub-chunk tail waits for more samples; an active strand picks up
    // whatever chunks become ready while it runs.
    if (s->running || !s->proc.HasFullChunk()) return {};
    s->running = true;
  }

  BeginStrand();
  stats_.AddDispatch();
  const bool saturated =
      FaultInjector::Global().SaturateAt("pool.submit", s->id);
  if (saturated ||
      !pool_.Submit([this, s] { RunStrand(s); },
                    /*on_drop=*/[this, s] { AbandonStrand(s); })) {
    // Pool bounced the strand (kReject backpressure, shutdown, or an
    // injected saturation). The samples stay buffered; a later Submit —
    // an empty one will do — redispatches.
    stats_.AddDispatchRejection();
    {
      std::lock_guard lock(s->mu);
      s->running = false;
    }
    FinishStrand();
    return SubmitResult{SessionError{
        ErrorCategory::kOverload,
        "strand dispatch bounced by queue backpressure; samples are "
        "buffered — retry with an empty Submit"}};
  }
  return {};
}

void SessionManager::RunStrand(Session* s) {
  // One chunk per iteration, popped under the session lock. Unbatched, the
  // strand computes it here; batched, it hands the chunk to the session's
  // batcher lane in stream order — degraded chunks included, so ALL
  // completion happens on the dispatcher that claimed the lane and
  // per-session FIFO order survives ladder transitions (see RunBatch).
  NEC_TRACE_SPAN_ARG("runtime.strand", s->id);
  core::ChunkScratch& scratch = core::ChunkScratch::ThisThread();
  for (;;) {
    // Batched chunks travel to another thread, so each gets its own
    // buffer; an unbatched chunk is computed here in the thread's scratch.
    audio::Waveform batched;
    audio::Waveform& chunk = batcher_ != nullptr ? batched : scratch.chunk;
    std::chrono::steady_clock::time_point ready;
    std::uint64_t flow = 0;
    {
      std::lock_guard lock(s->mu);
      if (s->error.has_value() || !s->proc.HasFullChunk()) {
        s->running = false;
        break;
      }
      s->proc.PopChunkInto(chunk);
      // The wire-carried flow names ONE chunk: the next one popped.
      flow = std::exchange(s->wire_flow, 0);
      // Chunks popped from one backlog all inherit the instant it first
      // held a full chunk — end-to-end latency may overcount there, never
      // undercount (honest in the direction that matters for the
      // deadline check).
      ready = s->chunk_ready;
    }
    if (batcher_ == nullptr) {
      // false: FaultSession already shed the backlog and cleared running.
      if (!ProcessOneChunk(s, chunk, ready, flow)) break;
      continue;
    }
    try {
      FaultInjector::Global().OnSite("strand.chunk", s->id);
      // The batcher adopts the wire flow (if any) instead of minting a
      // local id.
      batcher_->Enqueue(s, std::move(chunk), flow);
    } catch (...) {
      FaultSession(s, ClassifyException(std::current_exception()));
      break;
    }
  }
  FinishStrand();
}

void SessionManager::GenerateShadowAtLevelInto(Session* s,
                                               const audio::Waveform& chunk,
                                               DegradeLevel level,
                                               core::ChunkScratch& scratch) {
  switch (level) {
    case DegradeLevel::kNeural:
      s->pipeline.GenerateShadowInto(chunk, core::SelectorKind::kNeural,
                                     scratch.single, scratch.shadow);
      return;
    case DegradeLevel::kLasFallback:
      s->pipeline.GenerateShadowInto(chunk, core::SelectorKind::kLasMask,
                                     scratch.single, scratch.shadow);
      return;
    case DegradeLevel::kSilence:
      // Passthrough rung: an all-zero shadow modulates to silence — no
      // cancellation, but the stream keeps its cadence and the ladder can
      // probe back up.
      scratch.shadow.AssignSilence(chunk.sample_rate(), chunk.size());
      return;
  }
  NEC_CHECK_MSG(false, "unreachable degrade level");
}

bool SessionManager::ProcessOneChunk(
    Session* s, const audio::Waveform& chunk,
    std::chrono::steady_clock::time_point ready, std::uint64_t flow) {
  bool probe = false;
  DegradeLevel level = DegradeLevel::kNeural;
  {
    std::lock_guard lock(s->mu);
    level = EffectiveLevelLocked(s, &probe);
  }
  // Hop decomposition (§5g): ready → compute start is the shard's queue
  // share of the end-to-end number.
  HopStats::Global().Record(Hop::kShardQueue, MsSince(ready));
  const FaultOptions& fo = options_.fault;
  core::ChunkScratch& scratch = core::ChunkScratch::ThisThread();
  std::size_t attempts = 0;
  for (;;) {
    try {
      const auto t0 = std::chrono::steady_clock::now();
      obs::TraceRecorder& rec = obs::TraceRecorder::Global();
      const std::uint64_t t0_ns = rec.enabled() ? obs::TraceNowNs() : 0;
      FaultInjector::Global().OnSite("strand.chunk", s->id);
      GenerateShadowAtLevelInto(s, chunk, level, scratch);
      s->proc.CompleteShadowChunkInto(scratch.shadow, scratch.modulated);
      EmitChunk(s, scratch.modulated, ready, t0, t0_ns, flow, level, probe);
      if (t0_ns != 0 && flow != 0) {
        rec.RecordFlow(obs::TraceEventKind::kFlowEnd, "chunk.flow", flow);
      }
      return true;
    } catch (...) {
      SessionError err = ClassifyException(std::current_exception());
      if (probe) {
        // The rung above is still broken: fall back to the current rung
        // and regenerate there. Retries/degradation judge the current
        // rung, not the failed probe.
        probe = false;
        std::lock_guard lock(s->mu);
        s->successes_at_level = 0;
        level = s->level;
        continue;
      }
      if (attempts < fo.max_retries) {
        // Regeneration is safe: CompleteShadowChunkInto (the only
        // stream-state mutation) runs strictly after a successful generate.
        ++attempts;
        stats_.AddRetry();
        if (fo.retry_backoff_ms > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              fo.retry_backoff_ms * static_cast<double>(attempts)));
        }
        continue;
      }
      if (fo.on_error == FaultPolicy::kDegrade) {
        bool stepped = false;
        {
          std::lock_guard lock(s->mu);
          if (s->level < DegradeLevel::kSilence) {
            StepDownLocked(s);
            stepped = true;
          }
          level = s->level;
        }
        if (stepped) {
          attempts = 0;
          continue;
        }
      }
      FaultSession(s, std::move(err));
      return false;
    }
  }
}

void SessionManager::EmitChunk(Session* s, const audio::Waveform& modulated,
                               std::chrono::steady_clock::time_point ready,
                               std::chrono::steady_clock::time_point t0,
                               std::uint64_t t0_ns, std::uint64_t flow,
                               DegradeLevel level, bool probe) {
  const double total_ms = MsSince(t0);
  stats_.AddChunk(total_ms);
  stats_.AddChunkE2E(MsSince(ready));
  HopStats::Global().Record(Hop::kShardCompute, total_ms);
  if (t0_ns != 0) {
    obs::TraceRecorder::Global().RecordSpan("shard.compute", "nec", t0_ns,
                                            obs::TraceNowNs() - t0_ns, flow,
                                            s->id);
  }
  std::lock_guard lock(s->mu);
  if (s->output.size() == 0) {
    s->output_since = std::chrono::steady_clock::now();
  }
  s->output.Append(modulated);
  ++s->chunk_count;
  UpdateWatchdogLocked(s, level, probe, total_ms);
  Signal(output_event_fd_);
}

void SessionManager::RunBatch(std::vector<ContinuousBatcher::Item>&& items) {
  NEC_TRACE_SPAN_ARG("runtime.batch", items.size());
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t t0_ns =
      obs::TraceRecorder::Global().enabled() ? obs::TraceNowNs() : 0;
  stats_.AddBatch(items.size());
  for (const ContinuousBatcher::Item& it : items) {
    const double wait_ms =
        std::chrono::duration<double, std::milli>(t0 - it.enqueued)
            .count();
    stats_.AddQueueWait(wait_ms);
    // Hop decomposition (§5g): batcher wait is the batched path's
    // shard-queue share.
    HopStats::Global().Record(Hop::kShardQueue, wait_ms);
  }

  // Disposition pass, in admission order: a faulted session's items are
  // shed (a fault may land between Enqueue and dispatch); only chunks at
  // the kNeural rung join the batched forward — degraded chunks are
  // generated singly in the completion loop below, which runs strictly in
  // admission order (FIFO within each session — the batcher's lane
  // invariant) so per-session chunk order, and with it the modulation
  // latch, is preserved across ladder transitions.
  // The bookkeeping lives in the dispatcher's scratch, reused per batch.
  enum Route : std::uint8_t { kShed, kBatched, kSingle };
  core::ChunkScratch& scratch = core::ChunkScratch::ThisThread();
  std::vector<std::uint8_t>& route = scratch.routes;
  std::vector<std::size_t>& neural = scratch.batched;
  route.resize(items.size());
  neural.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    Session* s = static_cast<Session*>(items[i].key);
    std::lock_guard lock(s->mu);
    if (s->error.has_value()) {
      route[i] = kShed;
    } else if (s->level == DegradeLevel::kNeural) {
      route[i] = kBatched;
      neural.push_back(i);
    } else {
      route[i] = kSingle;
    }
  }

  // Slot j of the dispatcher's scratch serves neural[j].
  while (scratch.slots.size() < neural.size()) scratch.slots.emplace_back();
  if (!neural.empty()) GenerateShadowsBisect(items, 0, neural.size(), scratch);

  // Complete in admission order: per-session chunk order — and with it
  // the stream-wide modulation-reference latch — is part of the bits.
  std::size_t slot = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    Session* s = static_cast<Session*>(items[i].key);
    switch (route[i]) {
      case kShed:
        stats_.AddSamplesDropped(items[i].chunk.size());
        break;
      case kBatched: {
        core::ChunkScratch::Slot& done = scratch.slots[slot++];
        const audio::Waveform& shadow = done.shadow;
        if (done.error) {
          // The bisection isolated this item as the poison.
          HandleGenerationError(s, std::move(items[i].chunk),
                                ClassifyException(std::exchange(done.error,
                                                                nullptr)),
                                items[i].enqueued);
          break;
        }
        try {
          s->proc.CompleteShadowChunkInto(shadow, scratch.modulated);
          // Chunk latency is processing time, not queue wait: batch
          // dispatch start → this chunk's completion. End-to-end latency
          // is the honest one: batcher enqueue → this completion, queue
          // wait included.
          EmitChunk(s, scratch.modulated, items[i].enqueued, t0, t0_ns,
                    items[i].flow_id, DegradeLevel::kNeural, /*probe=*/false);
        } catch (...) {
          FaultSession(s, ClassifyException(std::current_exception()));
        }
        break;
      }
      case kSingle:
        // Degraded (or probing) session: generate on the claiming
        // dispatcher so completion order stays FIFO. ProcessOneChunk owns
        // retries, the ladder, the fault transition — and, via the flow
        // id, this chunk's flow-end event (skip the shared one below or
        // the arrow head would be emitted twice).
        ProcessOneChunk(s, items[i].chunk, items[i].enqueued,
                        items[i].flow_id);
        continue;
    }
    // Flow arrow head: ties this chunk's completion (or shedding) back to
    // its Enqueue tail, batch membership visible via the enclosing span.
    obs::TraceRecorder::Global().RecordFlow(obs::TraceEventKind::kFlowEnd,
                                            "chunk.flow", items[i].flow_id);
  }
}

void SessionManager::GenerateShadowsBisect(
    std::vector<ContinuousBatcher::Item>& items, std::size_t begin,
    std::size_t end, core::ChunkScratch& scratch) {
  const std::size_t n = end - begin;
  if (n == 0) return;
  try {
    // A retry reuses the requests: the failed attempt is over.
    std::vector<core::ShadowBatchRequest>& requests = scratch.requests;
    requests.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = scratch.batched[begin + j];
      Session* s = static_cast<Session*>(items[i].key);
      // Per-item injection site, hit inside the attempt so the bisection
      // isolates down to the single poisoned item.
      FaultInjector::Global().OnSite("batch.item", s->id);
      core::ChunkScratch::Slot& slot = scratch.slots[begin + j];
      requests[j] = core::ShadowBatchRequest{.pipeline = &s->pipeline,
                                             .mixed = &items[i].chunk,
                                             .scratch = &slot.scratch,
                                             .out = &slot.shadow};
    }
    // The single-chunk arena is free here: the thread completes its
    // single chunks only after the batched forward returns.
    core::GenerateShadowBatchInto(requests, scratch.single.arena);
  } catch (...) {
    if (n == 1) {
      scratch.slots[begin].error = std::current_exception();
      return;
    }
    // A poisoned batch: split and retry each half. The batched forward is
    // bit-identical per item regardless of batch composition (see
    // GenerateShadowBatchInto), so survivors' output is unchanged; cost is
    // O(log n) extra forwards for the poisoned item's neighborhood.
    stats_.AddBatchSplit();
    const std::size_t mid = begin + n / 2;
    GenerateShadowsBisect(items, begin, mid, scratch);
    GenerateShadowsBisect(items, mid, end, scratch);
  }
}

void SessionManager::HandleGenerationError(
    Session* s, audio::Waveform chunk, SessionError error,
    std::chrono::steady_clock::time_point ready) {
  if (options_.fault.on_error == FaultPolicy::kDegrade) {
    bool stepped = false;
    {
      std::lock_guard lock(s->mu);
      if (!s->error.has_value() && s->level < DegradeLevel::kSilence) {
        StepDownLocked(s);
        stepped = true;
      }
    }
    if (stepped) {
      // Regenerate this very chunk at the lower rung — the stream loses
      // no samples on a degrade transition.
      ProcessOneChunk(s, chunk, ready);
      return;
    }
  }
  FaultSession(s, std::move(error));
}

void SessionManager::FaultSession(Session* s, SessionError error) {
  const ErrorCategory category = error.category;
  std::size_t shed = 0;
  {
    std::lock_guard lock(s->mu);
    if (!s->error.has_value()) s->error = std::move(error);  // first wins
    ++s->fault_count;
    shed = s->proc.DropBuffered();
    s->running = false;
  }
  if (batcher_ != nullptr) {
    // Pending chunks of the dead session must not land in (or stall) a
    // later batch; items already dispatched are shed by RunBatch's
    // disposition pass.
    shed += batcher_->Purge(s) * chunk_samples_;
  }
  stats_.AddFault(category);
  stats_.AddSamplesDropped(shed);
  obs::TraceInstant("session.fault", s->id);
  Signal(output_event_fd_);
}

void SessionManager::StepDownLocked(Session* s) {
  s->level = static_cast<DegradeLevel>(static_cast<int>(s->level) + 1);
  s->consecutive_misses = 0;
  s->successes_at_level = 0;
  stats_.AddDegradeDown();
  obs::TraceInstant("degrade.down", s->id);
}

void SessionManager::UpdateWatchdogLocked(Session* s, DegradeLevel used_level,
                                          bool probe, double total_ms) {
  const bool miss = total_ms > options_.deadline_ms;
  if (miss) {
    stats_.AddDeadlineMiss();
    ++s->miss_count;
  }
  if (probe) {
    if (miss) {
      // The rung above emitted but is still over budget — stay degraded
      // and restart the probe countdown.
      s->successes_at_level = 0;
    } else {
      // Recovery: the probe chunk ran a rung up within budget.
      s->level = used_level;
      s->consecutive_misses = 0;
      s->successes_at_level = 0;
      stats_.AddDegradeUp();
      obs::TraceInstant("degrade.up", s->id);
    }
    return;
  }
  if (miss) {
    s->successes_at_level = 0;
    if (options_.fault.degrade_on_deadline &&
        ++s->consecutive_misses >= options_.fault.deadline_miss_threshold &&
        s->level < DegradeLevel::kSilence) {
      StepDownLocked(s);
    }
    return;
  }
  s->consecutive_misses = 0;
  if (s->level > s->top_level) ++s->successes_at_level;
}

DegradeLevel SessionManager::EffectiveLevelLocked(Session* s,
                                                 bool* probe) const {
  *probe = false;
  if (s->level > s->top_level &&
      s->successes_at_level >= options_.fault.recovery_probe_chunks) {
    *probe = true;
    return static_cast<DegradeLevel>(static_cast<int>(s->level) - 1);
  }
  return s->level;
}

void SessionManager::AbandonStrand(Session* s) {
  // kDropOldest evicted this session's queued strand before it ran. The
  // buffered audio has missed its overshadowing deadline, so discard it
  // and return the session to idle — otherwise `running` stays true
  // forever (no strand will ever clear it), later Submits never
  // redispatch, Flush fails its idle check, and Drain deadlocks on the
  // leaked in_flight_ count. Runs on the thread whose Submit caused the
  // eviction; the evicted task itself can no longer run.
  std::size_t discarded = 0;
  {
    std::lock_guard lock(s->mu);
    discarded = s->proc.DropBuffered();
    s->running = false;
  }
  if (batcher_ != nullptr) {
    // The session's already-popped chunks waiting in its batcher lane are
    // part of the evicted backlog: purge them so none lands in a later
    // batch (in-flight batch items complete normally).
    discarded += batcher_->Purge(s) * chunk_samples_;
  }
  stats_.AddSamplesDropped(discarded);
  obs::TraceInstant("strand.drop", s->id);
  FinishStrand();
}

void SessionManager::BeginStrand() {
  std::lock_guard lock(drain_mu_);
  ++in_flight_;
}

void SessionManager::FinishStrand() {
  std::size_t left;
  {
    std::lock_guard lock(drain_mu_);
    left = --in_flight_;
  }
  if (left == 0) drain_cv_.notify_all();
}

void SessionManager::Drain() {
  {
    std::unique_lock lock(drain_mu_);
    drain_cv_.wait(lock, [&] { return in_flight_ == 0; });
  }
  // Once no strand is in flight (and the caller guarantees no concurrent
  // Submit), nothing can Enqueue — wait out the batcher's backlog too.
  if (batcher_ != nullptr) batcher_->Drain();
}

std::optional<audio::Waveform> SessionManager::Flush(SessionId id) {
  Session* s = GetSession(id);
  {
    std::lock_guard lock(s->mu);
    if (s->error.has_value()) return std::nullopt;  // tail died with the fault
  }
  // A chunk still in flight would complete after the tail (out of stream
  // order) and, if it faults, shed the buffer under us.
  NEC_CHECK_MSG(SessionQuiescent(id),
                "Flush requires a quiescent session — call Drain() first");
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<audio::Waveform> out = s->proc.Flush();
  if (out.has_value()) {
    // A flushed tail runs synchronously on the caller: no queue wait, so
    // its end-to-end latency IS its processing latency.
    stats_.AddChunk(MsSince(t0));
    stats_.AddChunkE2E(MsSince(t0));
  }
  return out;
}

audio::Waveform SessionManager::TakeOutput(
    SessionId id, std::chrono::steady_clock::time_point* produced_since) {
  Session* s = GetSession(id);
  std::lock_guard lock(s->mu);
  if (produced_since != nullptr && s->output.size() > 0) {
    *produced_since = s->output_since;
  }
  return std::exchange(s->output, audio::Waveform());
}

runtime::SessionStatus SessionManager::SessionStatus(SessionId id) const {
  Session* s = GetSession(id);
  std::lock_guard lock(s->mu);
  runtime::SessionStatus status;
  if (s->error.has_value()) {
    status.state = SessionState::kFaulted;
    status.error = s->error;
  } else if (s->running) {
    status.state = SessionState::kRunning;
  } else {
    status.state = SessionState::kIdle;
  }
  status.level = s->level;
  status.chunks_emitted = s->chunk_count;
  status.faults = s->fault_count;
  status.deadline_misses = s->miss_count;
  return status;
}

void SessionManager::ResetSession(SessionId id) {
  Session* s = GetSession(id);
  {
    std::lock_guard lock(s->mu);
    NEC_CHECK_MSG(!s->running,
                  "ResetSession requires a quiescent session — a faulted "
                  "one, or Drain() first");
    s->error.reset();
    s->level = s->top_level;
    s->consecutive_misses = 0;
    s->successes_at_level = 0;
  }
  // Purge first, so no chunk left in the lane completes on the fresh
  // stream's latch.
  if (batcher_ != nullptr) batcher_->Purge(s);
  {
    // Fresh stream: empty buffer, modulation latch re-latches. Quiescent
    // by contract, so no thread is completing a chunk on the latch.
    std::lock_guard lock(s->mu);
    s->proc.Reset();
  }
  stats_.AddSessionReset();
}

bool SessionManager::SessionQuiescent(SessionId id) const {
  Session* s = GetSession(id);
  {
    std::lock_guard lock(s->mu);
    if (s->running || s->proc.HasFullChunk()) return false;
  }
  // Batched mode: the strand parks while popped chunks still sit in the
  // session's batcher lane (or ride a running batch) — those mutate the
  // processor when they complete, so the session is not quiescent yet.
  return batcher_ == nullptr || batcher_->idle_for(s);
}

std::optional<SessionSnapshot> SessionManager::ExportSession(SessionId id) {
  Session* s = GetSession(id);
  {
    std::lock_guard lock(s->mu);
    if (s->error.has_value()) return std::nullopt;
  }
  // Quiescent by contract: no chunk is completing on the latch.
  NEC_CHECK_MSG(SessionQuiescent(id),
                "ExportSession requires a quiescent session");
  SessionSnapshot snapshot;
  std::lock_guard lock(s->mu);
  const auto tail = s->proc.buffered_samples();
  snapshot.tail.assign(tail.begin(), tail.end());
  snapshot.mod_reference_peak = s->proc.modulation_reference_peak();
  snapshot.chunks_emitted = s->chunk_count;
  return snapshot;
}

void SessionManager::RestoreSession(SessionId id,
                                    const SessionSnapshot& snapshot) {
  Session* s = GetSession(id);
  std::lock_guard lock(s->mu);
  // An exported tail is always shorter than a chunk; a longer one would
  // sit buffered with no strand to pop it.
  NEC_CHECK_MSG(!s->running && s->proc.buffered_samples().empty() &&
                    !s->error.has_value() && s->chunk_count == 0 &&
                    snapshot.tail.size() < chunk_samples_,
                "RestoreSession requires a fresh session and a sub-chunk tail");
  s->chunk_count = snapshot.chunks_emitted;
  // RestoreStreamState re-checks the latch is unlatched.
  s->proc.RestoreStreamState(snapshot.tail, snapshot.mod_reference_peak);
}

RuntimeStatsSnapshot SessionManager::Stats() const {
  return stats_.Snapshot(
      PoolSample{.queue_depth = pool_.queue_depth(),
                 .dispatch_drops = pool_.dropped(),
                 .queue_peak_depth = pool_.queue_peak_depth(),
                 .worker_exceptions = pool_.task_exceptions()});
}

std::size_t SessionManager::num_sessions() const {
  std::lock_guard lock(sessions_mu_);
  return sessions_.size();
}

}  // namespace nec::runtime
