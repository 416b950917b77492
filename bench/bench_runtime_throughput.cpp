// Runtime throughput + serving latency: chunks/sec vs. worker count, and
// continuous-batching speedup with HONEST deadline accounting.
//
// The single-threaded deployment loop (Table II) bounds ONE stream; this
// harness measures how far the nec::runtime layer scales that with a pool
// and the continuous batcher. Two arrival modes, because throughput and
// latency need different harnesses:
//
//   * offline replay — the whole workload is submitted as fast as the
//     queues accept it. Right for chunks/sec and speedup (the machine is
//     saturated), WRONG for latency: end-to-end latency then measures the
//     replay backlog, which no deployment ever sees. Offline rows still
//     report e2e numbers, honestly labeled.
//   * paced (real-time) arrival — pieces are delivered on the audio
//     clock, sessions phase-staggered by chunk_s/sessions the way N
//     independent microphones would be. This is the only mode whose e2e
//     quantiles mean "service latency", so `deadline_met` (the §IV-C2
//     300 ms overshadowing deadline) is judged ONLY against paced e2e p99.
//
// Every row also carries a bit-exactness audit: batched / parallel output
// must equal the sequential StreamingProcessor result sample-for-sample.
//
// The selector is a fixed-seed untrained Fast() model: weight values do
// not change the arithmetic cost, and keeping the bench hermetic avoids a
// training dependency. Scaling is compute-bound, so multi-worker rows are
// only meaningful on a machine with as many cores as workers — each row
// records `workers`, and the file records hardware_concurrency, so a
// reader (and tools/check.sh) can tell a 1-core row from a 4-core row.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "bench_json.h"
#include "bench_support.h"
#include "core/selector.h"
#include "core/streaming.h"
#include "encoder/encoder.h"
#include "runtime/session_manager.h"
#include "synth/dataset.h"

namespace nec::bench {
namespace {

constexpr double kChunkSeconds = 1.0;
constexpr double kDeadlineMs = 300.0;

/// Full run: 8 sessions x 6 s, worker sweep 1/2/4/8. Smoke mode
/// ($NEC_BENCH_SMOKE) shrinks to 2 x 2 s with workers 1/2 — enough to
/// exercise the wiring and emit well-formed JSON in a few seconds.
struct BenchParams {
  std::size_t sessions = 8;
  double stream_seconds = 6.0;
  std::vector<std::size_t> worker_sweep = {1, 2, 4, 8};
  /// Continuous-batching sweep: concurrent-session counts compared
  /// batched-vs-unbatched (ISSUE 3 records 1/4/8).
  std::vector<std::size_t> batched_session_sweep = {1, 4, 8};
  /// One batched forward serializes its whole batch before the last chunk
  /// in it completes, so on a core-bound box max_batch bounds the
  /// per-chunk p99 at roughly max_batch * chunk-compute. 3 keeps a full
  /// batch's compute inside the 300 ms deadline with ~25% margin at
  /// ~70 ms/chunk while still amortizing dispatch across sessions.
  std::size_t batched_max_batch = 3;

  static BenchParams Get() {
    if (!BenchSmokeMode()) return {};
    return {.sessions = 2,
            .stream_seconds = 2.0,
            .worker_sweep = {1, 2},
            .batched_session_sweep = {1, 2},
            .batched_max_batch = 2};
  }
};

struct Workload {
  std::shared_ptr<const core::Selector> selector;
  std::shared_ptr<const encoder::SpeakerEncoder> encoder;
  std::vector<synth::SpeakerProfile> speakers;
  std::vector<std::vector<audio::Waveform>> references;
  std::vector<audio::Waveform> streams;
};

Workload MakeWorkload(const BenchParams& p) {
  Workload w;
  const core::NecConfig cfg = core::NecConfig::Fast();
  w.selector = std::make_shared<const core::Selector>(cfg, /*init_seed=*/29);
  w.encoder = std::make_shared<encoder::LasEncoder>(cfg.embedding_dim);
  synth::DatasetBuilder stream_builder({.duration_s = p.stream_seconds});
  synth::DatasetBuilder enroll_builder({.duration_s = 3.0});
  for (std::size_t i = 0; i < p.sessions; ++i) {
    w.speakers.push_back(synth::SpeakerProfile::FromSeed(300 + i));
    w.references.push_back(
        enroll_builder.MakeReferenceAudios(w.speakers[i], 3, 600 + i));
    w.streams.push_back(
        stream_builder
            .MakeInstance(w.speakers[i], synth::Scenario::kBabble, 900 + i)
            .mixed);
  }
  return w;
}

struct RunResult {
  double wall_s = 0.0;
  double chunks_per_sec = 0.0;
  double selector_ms_per_chunk = 0.0;  ///< per-session timing sum / chunks
  runtime::RuntimeStatsSnapshot stats;
  std::vector<audio::Waveform> outputs;
};

enum class Arrival {
  kOffline,  ///< submit as fast as the queues accept (throughput mode)
  kPaced,    ///< audio-clock arrival, phase-staggered (latency mode)
};

/// Runs the first `sessions` workload streams through a SessionManager.
/// `max_batch` > 1 turns on the continuous batcher (with `workers`
/// dispatch threads). kPaced delivers each 4096-sample piece on the audio
/// clock, with session i's schedule shifted by i * chunk_s / sessions:
/// independent microphones do not align their chunk boundaries, and a
/// lockstep feed would manufacture a synchronized burst every second that
/// no deployment produces.
RunResult RunWith(const Workload& w, std::size_t workers,
                  std::size_t sessions, std::size_t max_batch,
                  Arrival arrival) {
  runtime::SessionManager manager(w.selector, w.encoder, {},
                                  {.workers = workers,
                                   .queue_capacity = 1024,
                                   .chunk_s = kChunkSeconds,
                                   .kind = core::SelectorKind::kNeural,
                                   .max_batch = max_batch,
                                   .deadline_ms = kDeadlineMs});
  std::vector<runtime::SessionManager::SessionId> ids;
  for (std::size_t i = 0; i < sessions; ++i) {
    ids.push_back(manager.CreateSession(w.references[i]));
  }

  const std::size_t piece = 4096;
  const double piece_s =
      static_cast<double>(piece) /
      static_cast<double>(w.streams[0].sample_rate());
  const double stagger_s = kChunkSeconds / static_cast<double>(sessions);

  // One (due time, session, offset) event per piece, sorted by due time.
  // Offline replay keeps the same interleaving, just never sleeps.
  struct Event {
    double due_s;
    std::size_t session;
    std::size_t pos;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < sessions; ++i) {
    for (std::size_t pos = 0; pos < w.streams[i].size(); pos += piece) {
      events.push_back(
          {static_cast<double>(i) * stagger_s +
               static_cast<double>(pos / piece) * piece_s,
           i, pos});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.due_s < b.due_s;
                   });

  const auto t0 = std::chrono::steady_clock::now();
  for (const Event& e : events) {
    if (arrival == Arrival::kPaced) {
      // Absolute schedule (t0 + due), not relative sleeps: pacing error
      // must not accumulate over a long stream.
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(e.due_s)));
    }
    const std::size_t n = std::min(piece, w.streams[e.session].size() - e.pos);
    manager.Submit(ids[e.session],
                   w.streams[e.session].samples().subspan(e.pos, n));
  }
  manager.Drain();

  RunResult r;
  for (std::size_t i = 0; i < sessions; ++i) {
    audio::Waveform out = manager.TakeOutput(ids[i]);
    if (auto tail = manager.Flush(ids[i])) out.Append(*tail);
    r.outputs.push_back(std::move(out));
  }
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.stats = manager.Stats();
  r.chunks_per_sec =
      r.wall_s > 0.0
          ? static_cast<double>(r.stats.chunks_processed) / r.wall_s
          : 0.0;
  double selector_ms = 0.0;
  std::size_t chunks = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    const core::ModuleTimings t = manager.SessionTimings(ids[i]);
    selector_ms += t.selector_ms;
    chunks += t.chunks;
  }
  r.selector_ms_per_chunk =
      chunks ? selector_ms / static_cast<double>(chunks) : 0.0;
  return r;
}

struct SequentialResult {
  std::vector<audio::Waveform> outputs;
  double chunks_per_sec = 0.0;    ///< single-thread loop, all sessions
  double avg_selector_ms = 0.0;   ///< STFT + DNN + inverse STFT, per chunk
  double avg_broadcast_ms = 0.0;  ///< ultrasonic modulation, per chunk
};

/// Sequential reference: one StreamingProcessor per session, same weights.
/// Its per-module timings are the Table II-style single-thread hot-path
/// numbers the perf harness tracks across commits.
SequentialResult RunSequential(const Workload& w) {
  SequentialResult r;
  double selector_ms = 0.0, broadcast_ms = 0.0;
  std::size_t chunks = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < w.streams.size(); ++i) {
    core::NecPipeline pipeline(w.selector, w.encoder, {});
    pipeline.Enroll(w.references[i]);
    core::StreamingProcessor proc(pipeline, kChunkSeconds,
                                  core::SelectorKind::kNeural);
    audio::Waveform out;
    if (auto o = proc.Push(w.streams[i].samples())) out = std::move(*o);
    if (auto tail = proc.Flush()) out.Append(*tail);
    r.outputs.push_back(std::move(out));
    selector_ms += proc.timings().selector_ms;
    broadcast_ms += proc.timings().broadcast_ms;
    chunks += proc.timings().chunks;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.chunks_per_sec =
      wall_s > 0.0 ? static_cast<double>(chunks) / wall_s : 0.0;
  r.avg_selector_ms = chunks ? selector_ms / static_cast<double>(chunks) : 0.0;
  r.avg_broadcast_ms =
      chunks ? broadcast_ms / static_cast<double>(chunks) : 0.0;
  return r;
}

/// Per-chunk heap allocations of one hot-path arm, measured with the
/// alloc_hook counters: warm up `warmup` chunks (buffers grow to
/// steady-state size), then count operator-new calls across `measured`
/// more. `per_chunk` runs one prepared chunk through the arm under test
/// (through every session of a batch arm: `chunks_per_call` chunks).
/// Single-threaded by construction — runs before any SessionManager
/// exists, so the relaxed counter is exact.
struct AllocArm {
  std::uint64_t total = 0;      ///< allocations across the measured window
  std::size_t chunks = 0;       ///< measured chunk count
  double per_chunk() const {
    return chunks ? static_cast<double>(total) / static_cast<double>(chunks)
                  : 0.0;
  }
};

template <typename PerChunk>
AllocArm MeasureAllocArm(const std::vector<audio::Waveform>& chunks,
                         std::size_t warmup, std::size_t chunks_per_call,
                         PerChunk&& per_chunk) {
  AllocArm arm;
  for (std::size_t c = 0; c < warmup && c < chunks.size(); ++c) {
    per_chunk(chunks[c]);
  }
  const std::uint64_t before = AllocCount();
  for (std::size_t c = warmup; c < chunks.size(); ++c) {
    per_chunk(chunks[c]);
    arm.chunks += chunks_per_call;
  }
  arm.total = AllocCount() - before;
  return arm;
}

bool BitExact(const std::vector<audio::Waveform>& a,
              const std::vector<audio::Waveform>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t k = 0; k < a[i].size(); ++k) {
      if (a[i][k] != b[i][k]) return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace nec::bench

int main() {
  using namespace nec::bench;

  const BenchParams params = BenchParams::Get();
  const unsigned hw = std::thread::hardware_concurrency();
  PrintHeader("Runtime throughput: chunks/sec and p99 latency vs. workers");
  std::printf("%zu sessions x %.0f s streams, %.0f s chunks; "
              "hardware_concurrency=%u%s\n",
              params.sessions, params.stream_seconds, kChunkSeconds, hw,
              BenchSmokeMode() ? "  [SMOKE — not a baseline]" : "");

  const Workload w = MakeWorkload(params);
  const SequentialResult sequential = RunSequential(w);
  std::printf("sequential loop: %.2f chunks/sec; per chunk selector "
              "%.2f ms, broadcast %.2f ms\n",
              sequential.chunks_per_sec, sequential.avg_selector_ms,
              sequential.avg_broadcast_ms);

  // ---- Steady-state allocation audit. Both arms of the one shadow path
  // run over identical chunks on one thread, counted via the linked
  // alloc_hook operator-new replacements, and must perform ZERO heap
  // allocations per chunk once warm (the bench exits nonzero otherwise):
  //   single  — the per-chunk path the unbatched runtime strands run
  //             (PopChunkInto → ProcessChunkInto);
  //   batched — what a batching dispatcher runs per batch of
  //             kAuditBatch sessions: GenerateShadowBatchInto over the
  //             dispatcher's per-item scratch slots and arena, then
  //             CompleteShadowChunkInto per session.
  // Enrollment of the audited pipelines is counted too: it allocates, so a
  // nonzero count there proves the counting hook is engaged.
  bool alloc_ok = true;
  {
    constexpr std::size_t kWarmupChunks = 2;
    constexpr std::size_t kMeasuredChunks = 4;
    constexpr std::size_t kAuditBatch = 4;  // the replay workload's max_batch

    const std::uint64_t setup_before = AllocCount();
    std::vector<std::unique_ptr<nec::core::NecPipeline>> pipelines;
    for (std::size_t b = 0; b < kAuditBatch; ++b) {
      pipelines.push_back(std::make_unique<nec::core::NecPipeline>(
          w.selector, w.encoder, nec::core::PipelineOptions{}));
      pipelines.back()->Enroll(w.references[b % w.references.size()]);
    }
    const std::uint64_t setup_allocs = AllocCount() - setup_before;

    // Pre-slice the chunk sequence (wrapping over the stream) OUTSIDE the
    // counted window so feeding costs nothing.
    const std::size_t chunk_n = static_cast<std::size_t>(
        kChunkSeconds * w.streams[0].sample_rate());
    const std::size_t in_stream =
        std::max<std::size_t>(1, w.streams[0].size() / chunk_n);
    std::vector<nec::audio::Waveform> chunks;
    for (std::size_t c = 0; c < kWarmupChunks + kMeasuredChunks; ++c) {
      chunks.push_back(w.streams[0].Slice((c % in_stream) * chunk_n,
                                          chunk_n));
    }

    nec::core::StreamingProcessor proc(*pipelines[0], kChunkSeconds,
                                       nec::core::SelectorKind::kNeural);
    nec::audio::Waveform chunk_buf, mod_buf;
    const AllocArm single_arm = MeasureAllocArm(
        chunks, kWarmupChunks, 1, [&](const nec::audio::Waveform& chunk) {
          proc.BufferSamples(chunk.samples());
          while (proc.HasFullChunk()) {
            proc.PopChunkInto(chunk_buf);
            proc.ProcessChunkInto(chunk_buf, mod_buf);
          }
        });

    std::vector<std::unique_ptr<nec::core::StreamingProcessor>> procs;
    std::vector<nec::audio::Waveform> batch_chunks(kAuditBatch),
        shadows(kAuditBatch), outs(kAuditBatch);
    std::vector<nec::core::ShadowScratch> slots(kAuditBatch);
    std::vector<nec::core::ShadowBatchRequest> requests(kAuditBatch);
    for (std::size_t b = 0; b < kAuditBatch; ++b) {
      procs.push_back(std::make_unique<nec::core::StreamingProcessor>(
          *pipelines[b], kChunkSeconds, nec::core::SelectorKind::kNeural));
      requests[b] = {.pipeline = pipelines[b].get(),
                     .mixed = &batch_chunks[b],
                     .scratch = &slots[b],
                     .out = &shadows[b]};
    }
    nec::core::Arena dispatcher_arena;
    const AllocArm batched_arm = MeasureAllocArm(
        chunks, kWarmupChunks, kAuditBatch,
        [&](const nec::audio::Waveform& chunk) {
          for (std::size_t b = 0; b < kAuditBatch; ++b) {
            procs[b]->BufferSamples(chunk.samples());
            procs[b]->PopChunkInto(batch_chunks[b]);
          }
          nec::core::GenerateShadowBatchInto(requests, dispatcher_arena);
          for (std::size_t b = 0; b < kAuditBatch; ++b) {
            procs[b]->CompleteShadowChunkInto(shadows[b], 0.0, outs[b]);
          }
        });

    alloc_ok = single_arm.total == 0 && batched_arm.total == 0;
    std::printf("\nsteady-state allocations per chunk (%zu warmup + %zu "
                "measured; enrollment: %llu allocs):\n"
                "  single-chunk path:       %6.1f  (%llu total)\n"
                "  batched path (batch %zu):  %6.1f  (%llu total)  %s\n",
                kWarmupChunks, kMeasuredChunks,
                static_cast<unsigned long long>(setup_allocs),
                single_arm.per_chunk(),
                static_cast<unsigned long long>(single_arm.total),
                kAuditBatch, batched_arm.per_chunk(),
                static_cast<unsigned long long>(batched_arm.total),
                alloc_ok ? "[OK: zero-alloc]" : "[FAIL: expected 0]");

    JsonWriter ajson;
    ajson.Field("warmup_chunks", static_cast<double>(kWarmupChunks))
        .Field("measured_chunks", static_cast<double>(single_arm.chunks))
        .Field("smoke", BenchSmokeMode())
        .Field("setup_allocs", static_cast<double>(setup_allocs));
    ajson.BeginObject("single")
        .Field("path", "per-chunk Into/arena path (unbatched strands)")
        .Field("total_allocs", static_cast<double>(single_arm.total))
        .Field("allocs_per_chunk", single_arm.per_chunk())
        .EndObject();
    ajson.BeginObject("batched")
        .Field("path", "GenerateShadowBatchInto + CompleteShadowChunkInto")
        .Field("max_batch", static_cast<double>(kAuditBatch))
        .Field("total_allocs", static_cast<double>(batched_arm.total))
        .Field("allocs_per_chunk", batched_arm.per_chunk())
        .EndObject();
    ajson.Field("zero_alloc_steady_state", alloc_ok);
    WriteJsonSection(BenchJsonPath(), "alloc", ajson.Finish());
    std::printf("wrote section alloc -> %s\n", BenchJsonPath().c_str());
  }

  std::printf("\noffline replay (throughput mode; e2e includes replay "
              "backlog, so deadline_met is false by construction):\n");
  std::printf("%8s %12s %10s %10s %10s %12s %10s\n", "workers",
              "chunks/sec", "speedup", "p50 ms", "p99 ms", "e2e p99",
              "bitexact");
  PrintRule();

  JsonWriter json;
  json.Field("sessions", static_cast<double>(params.sessions))
      .Field("stream_seconds", params.stream_seconds)
      .Field("chunk_seconds", kChunkSeconds)
      .Field("deadline_ms", kDeadlineMs)
      .Field("hardware_concurrency", static_cast<double>(hw))
      .Field("arrival", "offline-replay")
      .Field("smoke", BenchSmokeMode());
  json.BeginObject("sequential")
      .Field("chunks_per_sec", sequential.chunks_per_sec)
      .Field("selector_ms_per_chunk", sequential.avg_selector_ms)
      .Field("broadcast_ms_per_chunk", sequential.avg_broadcast_ms)
      .EndObject();
  json.BeginArray("rows");

  double base = 0.0;
  double speedup_at_4 = 0.0;
  bool all_exact = true;
  for (const std::size_t workers : params.worker_sweep) {
    const RunResult r = RunWith(w, workers, params.sessions,
                                /*max_batch=*/1, Arrival::kOffline);
    if (workers == 1) base = r.chunks_per_sec;
    const double speedup = base > 0.0 ? r.chunks_per_sec / base : 0.0;
    if (workers == 4) speedup_at_4 = speedup;
    const bool exact = BitExact(r.outputs, sequential.outputs);
    all_exact &= exact;
    std::printf("%8zu %12.2f %9.2fx %10.2f %10.2f %12.2f %10s\n", workers,
                r.chunks_per_sec, speedup, r.stats.chunk_latency.p50_ms,
                r.stats.chunk_latency.p99_ms, r.stats.e2e_latency.p99_ms,
                exact ? "yes" : "NO");
    json.BeginObject()
        .Field("workers", static_cast<double>(workers))
        .Field("chunks_per_sec", r.chunks_per_sec)
        .Field("speedup_vs_1", speedup)
        .Field("p50_ms", r.stats.chunk_latency.p50_ms)
        .Field("p99_ms", r.stats.chunk_latency.p99_ms)
        .Field("max_ms", r.stats.chunk_latency.max_ms)
        .Field("e2e_p50_ms", r.stats.e2e_latency.p50_ms)
        .Field("e2e_p99_ms", r.stats.e2e_latency.p99_ms)
        .Field("bitexact", exact)
        // Honest accounting: the deadline verdict is end-to-end (queue
        // wait + compute), never compute-only. Under offline replay the
        // whole stream is enqueued up front, so e2e measures backlog and
        // this is false on any hardware slower than the replay — the
        // paced rows in the `batched` section are where the deadline can
        // genuinely be met or missed.
        .Field("deadline_met", r.stats.e2e_latency.p99_ms < kDeadlineMs)
        .EndObject();
  }
  json.EndArray();
  json.Field("all_bitexact", all_exact);

  PrintRule();
  std::printf("per-session outputs vs sequential StreamingProcessor: %s\n",
              all_exact ? "bit-identical" : "MISMATCH");
  std::printf("speedup at 4 workers: %.2fx%s\n", speedup_at_4,
              hw < 4 ? " (machine has fewer than 4 cores; scaling is "
                       "core-bound)"
                     : "");

  const std::string path = BenchJsonPath();
  WriteJsonSection(path, "runtime_throughput", json.Finish());
  std::printf("wrote section runtime_throughput -> %s\n", path.c_str());

  // ---- Continuous batching sweep (ISSUE 3 / ISSUE 7): batched vs
  // unbatched at 1/4/8 concurrent sessions. Each row is measured twice:
  //   * offline replay -> chunks/sec + speedup (saturation throughput),
  //   * paced arrival  -> e2e latency quantiles + deadline_met (serving).
  // On a machine with >= 4 cores an extra row runs the same comparison
  // with 4 dispatch workers and max_batch 4 — the continuous batcher's
  // multi-core configuration (EDF admission + work stealing across
  // dispatchers). Rows record `workers` so no reader mistakes a 1-core
  // number for a multi-core one.
  struct BatchedRow {
    std::size_t sessions;
    std::size_t workers;
    std::size_t max_batch;
  };
  std::vector<BatchedRow> brows;
  for (const std::size_t n : params.batched_session_sweep) {
    brows.push_back({n, 1, params.batched_max_batch});
  }
  const bool multicore = hw >= 4 && !BenchSmokeMode();
  if (multicore) {
    brows.push_back({params.sessions, 4, 4});
  }

  std::printf("\ncontinuous batching (offline -> speedup, paced -> e2e):\n");
  std::printf("%5s %4s %3s %11s %11s %9s %6s %9s %9s %5s %6s\n", "sess",
              "wrk", "mb", "unbat ch/s", "bat ch/s", "speedup", "avgB",
              "e2e p50", "e2e p99", "ddl", "exact");
  PrintRule();

  JsonWriter bjson;
  bjson.Field("max_batch", static_cast<double>(params.batched_max_batch))
      .Field("stream_seconds", params.stream_seconds)
      .Field("deadline_ms", kDeadlineMs)
      .Field("hardware_concurrency", static_cast<double>(hw))
      .Field("throughput_arrival", "offline-replay")
      .Field("latency_arrival", "paced-realtime")
      // True when this machine cannot produce the >= 4-core row the 1.5x
      // target is defined over; tools/check.sh downgrades the target to a
      // pending marker instead of judging multi-core scheduling on a box
      // that cannot express it.
      .Field("multicore_pending", !multicore)
      .Field("smoke", BenchSmokeMode());
  bjson.BeginArray("rows");
  bool batched_exact = true;
  bool batched_deadline_ok = true;
  for (const BatchedRow& row : brows) {
    // Throughput arms: offline replay, machine saturated.
    const RunResult off_un =
        RunWith(w, row.workers, row.sessions, /*max_batch=*/1,
                Arrival::kOffline);
    const RunResult off_ba =
        RunWith(w, row.workers, row.sessions, row.max_batch,
                Arrival::kOffline);
    // Latency arms: paced arrival, e2e == service latency.
    const RunResult pac_un =
        RunWith(w, row.workers, row.sessions, /*max_batch=*/1,
                Arrival::kPaced);
    const RunResult pac_ba =
        RunWith(w, row.workers, row.sessions, row.max_batch,
                Arrival::kPaced);
    const std::vector<nec::audio::Waveform> expect(
        sequential.outputs.begin(),
        sequential.outputs.begin() +
            static_cast<std::ptrdiff_t>(row.sessions));
    const bool exact = BitExact(off_ba.outputs, expect) &&
                       BitExact(pac_ba.outputs, expect);
    batched_exact &= exact;
    const bool deadline_met = pac_ba.stats.e2e_latency.p99_ms < kDeadlineMs;
    batched_deadline_ok &= deadline_met;
    const double speedup = off_un.chunks_per_sec > 0.0
                               ? off_ba.chunks_per_sec / off_un.chunks_per_sec
                               : 0.0;
    std::printf(
        "%5zu %4zu %3zu %11.2f %11.2f %8.2fx %6.2f %9.2f %9.2f %5s %6s\n",
        row.sessions, row.workers, row.max_batch, off_un.chunks_per_sec,
        off_ba.chunks_per_sec, speedup, off_ba.stats.avg_batch_size,
        pac_ba.stats.e2e_latency.p50_ms, pac_ba.stats.e2e_latency.p99_ms,
        deadline_met ? "met" : "MISS", exact ? "yes" : "NO");
    bjson.BeginObject()
        .Field("sessions", static_cast<double>(row.sessions))
        .Field("workers", static_cast<double>(row.workers))
        .Field("max_batch", static_cast<double>(row.max_batch))
        .Field("unbatched_chunks_per_sec", off_un.chunks_per_sec)
        .Field("unbatched_selector_ms_per_chunk",
               off_un.selector_ms_per_chunk)
        .Field("batched_chunks_per_sec", off_ba.chunks_per_sec)
        .Field("batched_selector_ms_per_chunk", off_ba.selector_ms_per_chunk)
        .Field("speedup_batched_vs_unbatched", speedup)
        .Field("avg_batch_size", off_ba.stats.avg_batch_size)
        .Field("max_batch_size",
               static_cast<double>(off_ba.stats.max_batch_size))
        // Paced-arm numbers: what a live deployment would see.
        .Field("paced_avg_batch_size", pac_ba.stats.avg_batch_size)
        .Field("queue_wait_p50_ms", pac_ba.stats.queue_wait.p50_ms)
        .Field("queue_wait_p99_ms", pac_ba.stats.queue_wait.p99_ms)
        .Field("p50_ms", pac_ba.stats.chunk_latency.p50_ms)
        .Field("p99_ms", pac_ba.stats.chunk_latency.p99_ms)
        .Field("e2e_p50_ms", pac_ba.stats.e2e_latency.p50_ms)
        .Field("e2e_p99_ms", pac_ba.stats.e2e_latency.p99_ms)
        .Field("unbatched_e2e_p99_ms", pac_un.stats.e2e_latency.p99_ms)
        .Field("bitexact", exact)
        .Field("deadline_met", deadline_met)
        .EndObject();
  }
  bjson.EndArray();
  bjson.Field("all_bitexact", batched_exact)
      .Field("deadline_ok", batched_deadline_ok);

  PrintRule();
  std::printf("batched outputs vs sequential StreamingProcessor: %s\n",
              batched_exact ? "bit-identical" : "MISMATCH");
  std::printf("300 ms deadline, paced e2e p99 (all rows): %s\n",
              batched_deadline_ok ? "met" : "missed");
  if (!multicore && !BenchSmokeMode()) {
    std::printf("NOTE: hardware_concurrency=%u < 4 — the >= 4-core "
                "batched row (workers=4, max_batch=4) is pending a "
                "multi-core machine.\n",
                hw);
  }
  WriteJsonSection(path, "batched", bjson.Finish());
  std::printf("wrote section batched -> %s\n", path.c_str());

  if (!alloc_ok) {
    std::printf("FAIL: steady-state chunk path allocated (see alloc "
                "section)\n");
  }
  return all_exact && batched_exact && alloc_ok ? 0 : 1;
}
