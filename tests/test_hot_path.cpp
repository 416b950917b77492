// Hot-path contracts of the serving chunk path (DESIGN.md §5i, §5g):
//
//  * zero allocation — once warm, both arms of the one shadow path make
//    exactly 0 heap allocations per chunk:
//      unbatched — what a runtime strand runs per chunk
//                  (PopChunkInto → ProcessChunkInto);
//      batched   — what a batching dispatcher runs per batch of
//                  max_batch = 4 sessions: GenerateShadowBatchInto over
//                  per-item scratch slots and one dispatcher arena, then
//                  CompleteShadowChunkInto per session.
//    alloc_hook.cpp (linked into this binary only) replaces the global
//    operator new family with counting wrappers. Enrollment allocates, so
//    a nonzero enrollment count proves the hook is engaged.
//  * per-chunk scratch belongs to the computing thread — on a warm
//    1-worker SessionManager (unbatched and max_batch 2), a new session's
//    first chunk allocates, beside its output, less than an eighth of one
//    selector arena: it runs in the worker's scratch, not in its own.
//  * the runtime path allocates only its output — a warm chunk served by
//    Submit → Drain → TakeOutput on a 1-worker SessionManager allocates
//    its modulated output and, batched, the popped chunk and the batch
//    bookkeeping; the submitted samples are buffered once, in place.
//  * disabled tracing ≤ 2 % of a chunk — the span sites one chunk passes
//    through, times the measured cost of a disabled NEC_TRACE_SPAN site,
//    must stay within 2 % of the measured chunk time; and a disabled site
//    must cost well under one clock read (trace.h: one relaxed load, no
//    clock read).
//
// The selector is a fixed-seed untrained Fast() model: weight values do
// not change which buffers the path touches or how long it takes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "alloc_hook.h"
#include "core/pipeline.h"
#include "core/selector.h"
#include "core/streaming.h"
#include "encoder/encoder.h"
#include "obs/trace.h"
#include "runtime/session_manager.h"
#include "synth/dataset.h"

namespace nec::core {
namespace {

using test::AllocBytes;
using test::AllocCount;

constexpr double kChunkSeconds = 1.0;
constexpr std::size_t kWarmupChunks = 2;
constexpr std::size_t kMeasuredChunks = 4;
constexpr std::size_t kBatch = 4;  // the replay workload's max_batch

/// Untrained Fast() selector, kBatch enrolled pipelines sharing it, and
/// kWarmupChunks + kMeasuredChunks one-second chunks of a babble stream,
/// all built before anything is counted.
class HotPathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const NecConfig cfg = NecConfig::Fast();
    selector_ = std::make_shared<const Selector>(cfg, /*init_seed=*/29);
    encoder_ = std::make_shared<encoder::LasEncoder>(cfg.embedding_dim);
  }
  static void TearDownTestSuite() {
    selector_.reset();
    encoder_.reset();
  }

  void SetUp() override {
    synth::DatasetBuilder stream_builder({.duration_s = 3.0});
    const auto speaker = synth::SpeakerProfile::FromSeed(300);
    const audio::Waveform stream =
        stream_builder.MakeInstance(speaker, synth::Scenario::kBabble, 900)
            .mixed;
    const std::size_t chunk_n =
        static_cast<std::size_t>(kChunkSeconds * stream.sample_rate());
    const std::size_t in_stream =
        std::max<std::size_t>(1, stream.size() / chunk_n);
    for (std::size_t c = 0; c < kWarmupChunks + kMeasuredChunks; ++c) {
      chunks_.push_back(stream.Slice((c % in_stream) * chunk_n, chunk_n));
    }
    synth::DatasetBuilder enroll_builder({.duration_s = 3.0});
    for (std::size_t b = 0; b < kBatch; ++b) {
      references_.push_back(enroll_builder.MakeReferenceAudios(
          synth::SpeakerProfile::FromSeed(300 + b), 3, 600 + b));
    }
  }

  /// Builds and enrolls `n` pipelines; returns the allocations that took.
  std::uint64_t EnrollPipelines(std::size_t n) {
    const std::uint64_t before = AllocCount();
    for (std::size_t b = 0; b < n; ++b) {
      pipelines_.push_back(std::make_unique<NecPipeline>(selector_, encoder_,
                                                         PipelineOptions{}));
      pipelines_.back()->Enroll(references_[b]);
    }
    return AllocCount() - before;
  }

  /// Runs every prepared chunk through `per_chunk`; returns the heap
  /// allocations made by the chunks after the warm-up.
  template <typename PerChunk>
  std::uint64_t MeasuredAllocs(PerChunk&& per_chunk) {
    for (std::size_t c = 0; c < kWarmupChunks; ++c) per_chunk(chunks_[c]);
    const std::uint64_t before = AllocCount();
    for (std::size_t c = kWarmupChunks; c < chunks_.size(); ++c) {
      per_chunk(chunks_[c]);
    }
    return AllocCount() - before;
  }

  static std::shared_ptr<const Selector> selector_;
  static std::shared_ptr<const encoder::SpeakerEncoder> encoder_;
  std::vector<audio::Waveform> chunks_;
  std::vector<std::vector<audio::Waveform>> references_;
  std::vector<std::unique_ptr<NecPipeline>> pipelines_;
};

std::shared_ptr<const Selector> HotPathTest::selector_;
std::shared_ptr<const encoder::SpeakerEncoder> HotPathTest::encoder_;

/// One runtime strand's per-chunk work on one processor.
struct UnbatchedArm {
  explicit UnbatchedArm(const NecPipeline& pipeline)
      : proc(pipeline, kChunkSeconds, SelectorKind::kNeural) {}

  void operator()(const audio::Waveform& chunk) {
    proc.BufferSamples(chunk.samples());
    while (proc.HasFullChunk()) {
      proc.PopChunkInto(chunk_buf);
      proc.ProcessChunkInto(chunk_buf, out);
    }
  }

  StreamingProcessor proc;
  audio::Waveform chunk_buf, out;
};

/// One batching dispatcher's work for a batch of every pipeline's chunk.
struct BatchedArm {
  explicit BatchedArm(
      const std::vector<std::unique_ptr<NecPipeline>>& pipelines)
      : chunks(pipelines.size()),
        shadows(pipelines.size()),
        outs(pipelines.size()),
        slots(pipelines.size()),
        requests(pipelines.size()) {
    for (std::size_t b = 0; b < pipelines.size(); ++b) {
      procs.push_back(std::make_unique<StreamingProcessor>(
          *pipelines[b], kChunkSeconds, SelectorKind::kNeural));
      requests[b] = {.pipeline = pipelines[b].get(),
                     .mixed = &chunks[b],
                     .scratch = &slots[b],
                     .out = &shadows[b]};
    }
  }

  void operator()(const audio::Waveform& chunk) {
    for (std::size_t b = 0; b < procs.size(); ++b) {
      procs[b]->BufferSamples(chunk.samples());
      procs[b]->PopChunkInto(chunks[b]);
    }
    GenerateShadowBatchInto(requests, arena);
    for (std::size_t b = 0; b < procs.size(); ++b) {
      procs[b]->CompleteShadowChunkInto(shadows[b], outs[b]);
    }
  }

  std::vector<std::unique_ptr<StreamingProcessor>> procs;
  std::vector<audio::Waveform> chunks, shadows, outs;
  std::vector<ShadowScratch> slots;
  std::vector<ShadowBatchRequest> requests;
  Arena arena;
};

TEST_F(HotPathTest, UnbatchedStrandArmAllocatesNothingPerChunk) {
  const std::uint64_t enroll_allocs = EnrollPipelines(1);
  ASSERT_GT(enroll_allocs, 0u) << "counting hook not engaged";
  UnbatchedArm arm(*pipelines_[0]);
  EXPECT_EQ(MeasuredAllocs(arm), 0u)
      << "allocations over " << kMeasuredChunks << " warm chunks";
}

TEST_F(HotPathTest, BatchedArmAllocatesNothingPerChunk) {
  const std::uint64_t enroll_allocs = EnrollPipelines(kBatch);
  ASSERT_GT(enroll_allocs, 0u) << "counting hook not engaged";
  BatchedArm arm(pipelines_);
  EXPECT_EQ(MeasuredAllocs(arm), 0u)
      << "allocations over " << kMeasuredChunks << " warm batches of "
      << kBatch;
}

/// Bytes a runtime SessionManager with one worker and `max_batch`
/// allocates for a second session's first chunk, beyond the chunk's own
/// output (which the session keeps until it is taken). One session is
/// warmed first; the second is enrolled before the count starts, then one
/// chunk is submitted and drained.
std::uint64_t SecondSessionFirstChunkBytes(
    std::shared_ptr<const Selector> selector,
    std::shared_ptr<const encoder::SpeakerEncoder> encoder,
    const std::vector<std::vector<audio::Waveform>>& references,
    const std::vector<audio::Waveform>& chunks, std::size_t max_batch) {
  runtime::SessionManager manager(
      std::move(selector), std::move(encoder), {},
      {.workers = 1, .chunk_s = kChunkSeconds, .max_batch = max_batch});
  const auto warm = manager.CreateSession(references[0]);
  EXPECT_TRUE(manager.Submit(warm, chunks[0].samples()).ok());
  manager.Drain();
  const auto fresh = manager.CreateSession(references[1]);
  const std::uint64_t before = AllocBytes();
  EXPECT_TRUE(manager.Submit(fresh, chunks[1].samples()).ok());
  manager.Drain();
  const std::uint64_t bytes = AllocBytes() - before;
  const std::size_t output = manager.TakeOutput(fresh).size();
  EXPECT_GT(output, 0u) << "the chunk was not served";
  return bytes - output * sizeof(float);
}

TEST_F(HotPathTest, ANewSessionBorrowsTheWorkersChunkScratch) {
  // One session's worth of per-chunk scratch: the selector arena a cold
  // ShadowScratch grows to on one chunk.
  EnrollPipelines(1);
  ShadowScratch cold;
  audio::Waveform shadow;
  pipelines_[0]->GenerateShadowInto(chunks_[0], SelectorKind::kNeural, cold,
                                    shadow);
  const std::size_t arena_bytes = cold.arena.Capacity();
  ASSERT_GT(arena_bytes, 0u);
  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "max_batch " << max_batch);
    const std::uint64_t bytes = SecondSessionFirstChunkBytes(
        selector_, encoder_, references_, chunks_, max_batch);
    std::printf("max_batch %zu: a new session's first chunk allocated "
                "%.3f MB beside its output (one selector arena: %.2f MB)\n",
                max_batch, static_cast<double>(bytes) / 1e6,
                static_cast<double>(arena_bytes) / 1e6);
    // What the session itself must hold (sample buffer, resampler plan)
    // stays small; any per-chunk buffer of its own (an arena, or a
    // modulated waveform as large as the output) would not fit.
    EXPECT_LT(bytes, arena_bytes / 8)
        << "the new session allocated per-chunk scratch of its own";
  }
}

/// Heap allocations per warm chunk on the runtime's own path, measured
/// over kMeasuredChunks chunks after kWarmupChunks.
struct RuntimePathAllocs {
  double count = 0.0;
  double bytes = 0.0;
  std::size_t output_bytes = 0;  ///< one chunk's modulated output
};

/// One session on a 1-worker SessionManager at `max_batch`; each chunk is
/// a whole-chunk Submit, a Drain and a TakeOutput.
RuntimePathAllocs RuntimeSubmitPathAllocs(
    std::shared_ptr<const Selector> selector,
    std::shared_ptr<const encoder::SpeakerEncoder> encoder,
    const std::vector<audio::Waveform>& references,
    const std::vector<audio::Waveform>& chunks, std::size_t max_batch) {
  runtime::SessionManager manager(
      std::move(selector), std::move(encoder), {},
      {.workers = 1, .chunk_s = kChunkSeconds, .max_batch = max_batch});
  const auto id = manager.CreateSession(references);
  RuntimePathAllocs allocs;
  const auto serve = [&](const audio::Waveform& chunk) {
    EXPECT_TRUE(manager.Submit(id, chunk.samples()).ok());
    manager.Drain();
    allocs.output_bytes = manager.TakeOutput(id).size() * sizeof(float);
    EXPECT_GT(allocs.output_bytes, 0u) << "the chunk was not served";
  };
  for (std::size_t c = 0; c < kWarmupChunks; ++c) serve(chunks[c]);
  const std::uint64_t count0 = AllocCount();
  const std::uint64_t bytes0 = AllocBytes();
  for (std::size_t c = kWarmupChunks; c < chunks.size(); ++c) {
    serve(chunks[c]);
  }
  const double n = static_cast<double>(chunks.size() - kWarmupChunks);
  allocs.count = static_cast<double>(AllocCount() - count0) / n;
  allocs.bytes = static_cast<double>(AllocBytes() - bytes0) / n;
  return allocs;
}

TEST_F(HotPathTest, RuntimeSubmitPathAllocatesOnlyItsOutput) {
  // The expected allocations of a warm chunk: its modulated output
  // (TakeOutput hands that buffer to the caller, so the next chunk grows a
  // fresh one) and, batched, the popped chunk that travels to the
  // dispatcher plus the batcher's per-batch bookkeeping. Submitted
  // samples are copied once, into the processor's buffer, whose capacity
  // stays warm; a sample queue of the session's own would allocate a
  // chunk's worth again.
  const std::size_t chunk_bytes = chunks_[0].size() * sizeof(float);
  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "max_batch " << max_batch);
    const RuntimePathAllocs allocs = RuntimeSubmitPathAllocs(
        selector_, encoder_, references_[0], chunks_, max_batch);
    std::printf("max_batch %zu: %.2f allocations, %.1f KB per warm chunk "
                "(output %.1f KB)\n",
                max_batch, allocs.count, allocs.bytes / 1e3,
                static_cast<double>(allocs.output_bytes) / 1e3);
    // Measured 1 (unbatched) and 8 (batched) allocations per chunk; the
    // slack covers a deque node of the pool queue or a batcher lane.
    const bool batched = max_batch > 1;
    EXPECT_LE(allocs.count, batched ? 10.0 : 1.5);
    EXPECT_LE(allocs.bytes,
              static_cast<double>(allocs.output_bytes +
                                  (batched ? chunk_bytes : 0) + 4096))
        << "beyond the output" << (batched ? " and the popped chunk" : "");
  }
}

/// Best-of-`rounds` nanoseconds per call of `body` over `iters` calls.
template <typename Body>
double BestNsPerCall(std::size_t rounds, std::size_t iters, Body&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) body();
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    best = std::min(best, ns / static_cast<double>(iters));
  }
  return best;
}

TEST_F(HotPathTest, DisabledTracingCostsUnderTwoPercentOfAChunk) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  ASSERT_FALSE(rec.enabled()) << "tracing must be off by default";
  EnrollPipelines(kBatch);
  UnbatchedArm unbatched(*pipelines_[0]);
  BatchedArm batched(pipelines_);
  unbatched(chunks_[0]);
  batched(chunks_[0]);

  // Span sites per chunk: record one chunk on each arm and count events.
  rec.Enable();
  rec.Clear();
  unbatched(chunks_[1]);
  const std::uint64_t unbatched_sites = rec.events_recorded();
  rec.Clear();
  batched(chunks_[1]);
  const std::uint64_t batched_sites =
      (rec.events_recorded() + kBatch - 1) / kBatch;
  rec.Disable();
  rec.Clear();
  const std::uint64_t sites = std::max(unbatched_sites, batched_sites);
  ASSERT_GT(unbatched_sites, 0u) << "no span sites on the chunk path";

  // Fastest chunk is the smallest denominator: the strictest budget.
  double chunk_ns = std::numeric_limits<double>::infinity();
  for (std::size_t c = kWarmupChunks; c < chunks_.size(); ++c) {
    const auto t0 = std::chrono::steady_clock::now();
    unbatched(chunks_[c]);
    chunk_ns = std::min(chunk_ns,
                        std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
  }

  // A disabled site, and one clock read, each best of several
  // million-call loops. The barrier keeps the relaxed load in the loop.
  constexpr std::size_t kRounds = 5;
  constexpr std::size_t kIters = 1'000'000;
  const double site_ns = BestNsPerCall(kRounds, kIters, [] {
    NEC_TRACE_SPAN("hot_path.disabled_site");
    asm volatile("" ::: "memory");
  });
  volatile std::uint64_t sink = 0;
  const double clock_ns =
      BestNsPerCall(kRounds, kIters, [&] { sink = obs::TraceNowNs(); });

  const double budget_ns = 0.02 * chunk_ns;
  const double cost_ns = static_cast<double>(sites) * site_ns;
  std::printf("%llu span sites per chunk x %.2f ns disabled (clock read "
              "%.2f ns) = %.2f us against a %.2f ms chunk\n",
              static_cast<unsigned long long>(sites), site_ns, clock_ns,
              cost_ns / 1e3, chunk_ns / 1e6);
  EXPECT_LE(cost_ns, budget_ns)
      << sites << " sites x " << site_ns << " ns against a "
      << chunk_ns / 1e6 << " ms chunk";
#if !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
  // Instrumented builds put a runtime call on the atomic load itself.
  EXPECT_LT(site_ns, 0.5 * clock_ns)
      << "a disabled span site costs " << site_ns
      << " ns, as much as a clock read (" << clock_ns << " ns)";
#endif
}

}  // namespace
}  // namespace nec::core
