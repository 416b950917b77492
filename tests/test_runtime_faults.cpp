// Fault-tolerance stress suite for nec::runtime (DESIGN.md §5f).
//
// Drives every containment path with the deterministic FaultInjector:
// per-session error containment (one poisoned session, seven bit-exact
// survivors), poisoned batch bisection, typed Submit errors
// (overload / bad input), the deadline-watchdog degradation ladder with
// recovery probes, and ContinuousBatcher purge-under-fault. Runs under TSan in
// tools/check.sh — the containment machinery must be race-free, not just
// correct.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/streaming.h"
#include "runtime/batcher.h"
#include "runtime/fault.h"
#include "runtime/session_manager.h"
#include "runtime/stats.h"
#include "synth/dataset.h"

namespace nec::runtime {
namespace {

// ---------------------------------------------------------- FaultInjector

TEST(FaultInjector, DisarmedIsCompletelyInert) {
  FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_NO_THROW(injector.OnSite("strand.chunk", 7));
    EXPECT_FALSE(injector.SaturateAt("pool.submit", 7));
  }
  EXPECT_EQ(injector.injections("strand.chunk"), 0u);
}

TEST(FaultInjector, ThrowCarriesCategoryAndHonorsSkipAndLimit) {
  FaultInjector injector;
  injector.Arm("site", {.kind = FaultInjector::Kind::kThrow,
                        .category = ErrorCategory::kDeadlineMiss,
                        .skip_first = 2,
                        .limit = 3});
  int thrown = 0;
  for (int hit = 0; hit < 10; ++hit) {
    try {
      injector.OnSite("site");
    } catch (const InjectedFault& f) {
      ++thrown;
      EXPECT_EQ(f.category(), ErrorCategory::kDeadlineMiss);
      // skip_first lets hits 0 and 1 pass; limit stops after 3 throws.
      EXPECT_GE(hit, 2);
      EXPECT_LT(hit, 5);
    }
  }
  EXPECT_EQ(thrown, 3);
  EXPECT_EQ(injector.injections("site"), 3u);
  injector.DisarmAll();
  EXPECT_FALSE(injector.armed());
  EXPECT_NO_THROW(injector.OnSite("site"));
}

TEST(FaultInjector, KeyFilterTargetsOneSessionOnly) {
  FaultInjector injector;
  injector.Arm("site", {.kind = FaultInjector::Kind::kThrow, .key = 3});
  for (std::uint64_t key = 0; key < 8; ++key) {
    if (key == 3) {
      EXPECT_THROW(injector.OnSite("site", key), InjectedFault);
    } else {
      EXPECT_NO_THROW(injector.OnSite("site", key));
    }
  }
  EXPECT_EQ(injector.injections("site"), 1u);  // only the key-3 hit fired
}

TEST(FaultInjector, SeededProbabilityIsReproducible) {
  const auto pattern = [](std::uint64_t seed) {
    FaultInjector injector;
    injector.Arm("site",
                 {.kind = FaultInjector::Kind::kThrow, .probability = 0.3},
                 seed);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      try {
        injector.OnSite("site");
        fired.push_back(false);
      } catch (const InjectedFault&) {
        fired.push_back(true);
      }
    }
    return fired;
  };
  const std::vector<bool> a = pattern(42);
  const std::vector<bool> b = pattern(42);
  EXPECT_EQ(a, b);
  // Some hits fired and some passed — the probability gate is real.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultInjector, SaturateFiresOnlyForSaturateSpecs) {
  FaultInjector injector;
  injector.Arm("q", {.kind = FaultInjector::Kind::kSaturate, .limit = 2});
  EXPECT_TRUE(injector.SaturateAt("q"));
  EXPECT_TRUE(injector.SaturateAt("q"));
  EXPECT_FALSE(injector.SaturateAt("q"));  // limit exhausted
  // A saturate spec never throws from OnSite.
  EXPECT_NO_THROW(injector.OnSite("q"));
}

TEST(FaultInjector, SpecsWithDifferentKeysCoexistOnOneSite) {
  FaultInjector injector;
  injector.Arm("site", {.kind = FaultInjector::Kind::kLatency,
                        .latency_ms = 1.0,
                        .key = 1,
                        .limit = 1});
  injector.Arm("site", {.kind = FaultInjector::Kind::kThrow, .key = 2});
  // Key 1's latency survived the second Arm: it fires (and only once).
  EXPECT_NO_THROW(injector.OnSite("site", 1));
  EXPECT_EQ(injector.injections("site"), 1u);
  EXPECT_NO_THROW(injector.OnSite("site", 1));
  EXPECT_THROW(injector.OnSite("site", 2), InjectedFault);
  EXPECT_NO_THROW(injector.OnSite("site", 3));
  EXPECT_EQ(injector.injections("site"), 2u);

  // Re-arming the same (site, key) replaces that spec only: the throw
  // and its count are gone, key 1's spent latency stays.
  injector.Arm("site", {.kind = FaultInjector::Kind::kLatency, .key = 2});
  EXPECT_EQ(injector.injections("site"), 1u);
  EXPECT_NO_THROW(injector.OnSite("site", 2));
  EXPECT_EQ(injector.injections("site"), 2u);
  injector.Disarm("site");
  EXPECT_FALSE(injector.armed());
  EXPECT_EQ(injector.injections("site"), 0u);
}

// --------------------------------------------------------- input hygiene

TEST(SampleHygiene, ScanCountsWithoutModifying) {
  std::vector<float> samples = {0.5f,
                                std::numeric_limits<float>::quiet_NaN(),
                                -0.25f,
                                std::numeric_limits<float>::infinity(),
                                100.0f,
                                -3.9f};
  const std::vector<float> before = samples;
  const SampleScan scan = ScanSamples(samples);
  EXPECT_EQ(scan.nonfinite, 2u);
  EXPECT_EQ(scan.wild, 1u);  // -3.9 is within kWildSampleLimit
  EXPECT_FALSE(scan.clean());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // Bitwise unchanged (NaN != NaN, so compare representations by scan).
    EXPECT_EQ(std::isnan(samples[i]), std::isnan(before[i]));
    if (!std::isnan(before[i])) {
      EXPECT_EQ(samples[i], before[i]);
    }
  }
}

TEST(SampleHygiene, SanitizeRepairsOnlyCorruptSamples) {
  std::vector<float> samples = {0.5f,
                                std::numeric_limits<float>::quiet_NaN(),
                                -0.25f,
                                -std::numeric_limits<float>::infinity(),
                                100.0f,
                                -77.0f};
  const SampleScan scan = SanitizeSamples(samples);
  EXPECT_EQ(scan.nonfinite, 2u);
  EXPECT_EQ(scan.wild, 2u);
  const std::vector<float> expected = {0.5f, 0.0f, -0.25f,
                                       0.0f, 1.0f, -1.0f};
  EXPECT_EQ(samples, expected);
  // A second pass finds nothing: sanitization is idempotent.
  std::vector<float> again = samples;
  EXPECT_TRUE(SanitizeSamples(again).clean());
  EXPECT_EQ(again, samples);
}

// -------------------------------------------------- SessionManager faults

core::NecConfig SmallConfig() {
  core::NecConfig cfg = core::NecConfig::Fast();
  cfg.conv_channels = 6;
  cfg.fc_hidden = 32;
  return cfg;
}

class RuntimeFaultTest : public ::testing::Test {
 protected:
  RuntimeFaultTest()
      : cfg_(SmallConfig()),
        selector_(std::make_shared<const core::Selector>(cfg_, 7)),
        encoder_(std::make_shared<encoder::LasEncoder>(cfg_.embedding_dim)),
        builder_({.duration_s = 2.5}) {
    // The injector is process-global: never let one test's armed sites
    // leak into the next.
    FaultInjector::Global().DisarmAll();
  }
  ~RuntimeFaultTest() override { FaultInjector::Global().DisarmAll(); }

  /// Sequential single-threaded reference over the same shared weights.
  audio::Waveform SequentialReference(const synth::SpeakerProfile& spk,
                                      std::uint64_t ref_seed,
                                      const audio::Waveform& stream,
                                      core::SelectorKind kind) {
    core::NecPipeline pipeline(selector_, encoder_, {});
    pipeline.Enroll(builder_.MakeReferenceAudios(spk, 3, ref_seed));
    core::StreamingProcessor seq(pipeline, 1.0, kind);
    audio::Waveform out;
    if (auto o = seq.Push(stream.samples())) out = std::move(*o);
    if (auto tail = seq.Flush()) out.Append(*tail);
    return out;
  }

  static void ExpectBitIdentical(const audio::Waveform& got,
                                 const audio::Waveform& want,
                                 const char* label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k], want[k]) << label << " sample " << k;
    }
  }

  core::NecConfig cfg_;
  std::shared_ptr<const core::Selector> selector_;
  std::shared_ptr<const encoder::SpeakerEncoder> encoder_;
  synth::DatasetBuilder builder_;
};

TEST_F(RuntimeFaultTest, BadInputRejectReturnsTypedErrorWithoutBuffering) {
  SessionManager manager(
      selector_, encoder_, {},
      {.workers = 1,
       .chunk_s = 1.0,
       .kind = core::SelectorKind::kLasMask,
       .fault = {.bad_input = BadInputPolicy::kReject}});
  const auto spk = synth::SpeakerProfile::FromSeed(201);
  const auto id =
      manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 211));
  audio::Waveform poisoned = builder_.MakeUtterance(spk, 221).wave;
  poisoned.data()[100] = std::numeric_limits<float>::quiet_NaN();

  const SubmitResult r = manager.Submit(id, poisoned.samples());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->category, ErrorCategory::kBadInput);
  // The rejection is a Submit verdict, not a session fault: the session
  // stays serviceable and the rejected samples were never buffered.
  EXPECT_EQ(manager.SessionStatus(id).state, SessionState::kIdle);
  manager.Drain();
  EXPECT_EQ(manager.Stats().chunks_processed, 0u);
  EXPECT_EQ(manager.Stats().bad_input_rejections, 1u);

  const audio::Waveform clean = builder_.MakeUtterance(spk, 221).wave;
  EXPECT_TRUE(manager.Submit(id, clean.samples()).ok());
  manager.Drain();
  EXPECT_EQ(manager.Stats().chunks_processed, 2u);  // 2.5 s at 1 s chunks
}

TEST_F(RuntimeFaultTest, SanitizedStreamMatchesManuallyRepairedStream) {
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 2,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kLasMask});
  const auto spk = synth::SpeakerProfile::FromSeed(202);
  const auto refs = builder_.MakeReferenceAudios(spk, 3, 212);
  const auto a = manager.CreateSession(refs);
  const auto b = manager.CreateSession(refs);

  audio::Waveform corrupt = builder_.MakeUtterance(spk, 222).wave;
  audio::Waveform repaired = corrupt;
  corrupt.data()[10] = std::numeric_limits<float>::quiet_NaN();
  repaired.data()[10] = 0.0f;
  corrupt.data()[5000] = -std::numeric_limits<float>::infinity();
  repaired.data()[5000] = 0.0f;
  corrupt.data()[9000] = 250.0f;
  repaired.data()[9000] = 1.0f;

  EXPECT_TRUE(manager.Submit(a, corrupt.samples()).ok());
  EXPECT_TRUE(manager.Submit(b, repaired.samples()).ok());
  manager.Drain();
  EXPECT_EQ(manager.Stats().samples_sanitized, 3u);

  audio::Waveform out_a = manager.TakeOutput(a);
  if (auto tail = manager.Flush(a)) out_a.Append(*tail);
  audio::Waveform out_b = manager.TakeOutput(b);
  if (auto tail = manager.Flush(b)) out_b.Append(*tail);
  // kSanitize repaired exactly the corrupt samples, so the two streams are
  // identical by the time they reach the DSP — and so is the output.
  ExpectBitIdentical(out_a, out_b, "sanitized-vs-repaired");
}

TEST_F(RuntimeFaultTest, InjectedSaturationSurfacesTypedOverloadError) {
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kLasMask});
  const auto spk = synth::SpeakerProfile::FromSeed(203);
  const auto id =
      manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 213));
  const audio::Waveform stream = builder_.MakeUtterance(spk, 223).wave;

  FaultInjector::Global().Arm(
      "pool.submit",
      {.kind = FaultInjector::Kind::kSaturate, .key = id, .limit = 1});
  const SubmitResult r = manager.Submit(id, stream.samples());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->category, ErrorCategory::kOverload);
  EXPECT_EQ(manager.Stats().dispatch_rejections, 1u);

  // kOverload's contract: the samples ARE buffered; an empty nudge
  // redispatches and nothing is lost.
  EXPECT_TRUE(manager.Submit(id, {}).ok());
  manager.Drain();
  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.chunks_processed, 2u);
  EXPECT_EQ(stats.samples_dropped, 0u);
  EXPECT_EQ(stats.faults, 0u);
}

// The acceptance scenario: 8 concurrent sessions, faults injected into
// exactly one, the other 7 bit-identical to an uninjected run; the faulted
// session reports the right category and ResetSession restores service.
TEST_F(RuntimeFaultTest, FaultIsContainedToThePoisonedSession) {
  constexpr std::size_t kSessions = 8;
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 3,
                          .queue_capacity = 64,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kLasMask});

  std::vector<synth::SpeakerProfile> speakers;
  std::vector<SessionManager::SessionId> ids;
  std::vector<audio::Waveform> streams;
  for (std::size_t i = 0; i < kSessions; ++i) {
    speakers.push_back(synth::SpeakerProfile::FromSeed(300 + i));
    ids.push_back(manager.CreateSession(
        builder_.MakeReferenceAudios(speakers[i], 3, 310 + i)));
    streams.push_back(builder_.MakeUtterance(speakers[i], 320 + i).wave);
  }
  const SessionManager::SessionId victim = ids[3];
  FaultInjector::Global().Arm("strand.chunk",
                              {.kind = FaultInjector::Kind::kThrow,
                               .category = ErrorCategory::kInvariant,
                               .key = victim});

  // Interleave pieces so all strands overlap while the victim faults.
  const std::size_t piece = 3700;
  std::size_t pos = 0;
  bool any_left = true;
  while (any_left) {
    any_left = false;
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (pos >= streams[i].size()) continue;
      // Victim submits start failing once the fault lands; survivors
      // must keep succeeding.
      const SubmitResult r =
          manager.Submit(ids[i], streams[i].samples().subspan(
                                     pos, std::min(piece, streams[i].size() -
                                                              pos)));
      if (ids[i] != victim) {
        EXPECT_TRUE(r.ok());
      }
      any_left = true;
    }
    pos += piece;
  }
  manager.Drain();

  // Survivors: bit-identical to the uninjected sequential path.
  for (std::size_t i = 0; i < kSessions; ++i) {
    if (ids[i] == victim) continue;
    audio::Waveform out = manager.TakeOutput(ids[i]);
    if (auto tail = manager.Flush(ids[i])) out.Append(*tail);
    ExpectBitIdentical(out,
                       SequentialReference(speakers[i], 310 + i, streams[i],
                                           core::SelectorKind::kLasMask),
                       "survivor");
  }

  // Victim: faulted with the injected category, no output, Flush sheds.
  const SessionStatus faulted = manager.SessionStatus(victim);
  EXPECT_EQ(faulted.state, SessionState::kFaulted);
  ASSERT_TRUE(faulted.error.has_value());
  EXPECT_EQ(faulted.error->category, ErrorCategory::kInvariant);
  EXPECT_EQ(faulted.chunks_emitted, 0u);
  EXPECT_EQ(faulted.faults, 1u);
  EXPECT_FALSE(manager.Flush(victim).has_value());
  EXPECT_FALSE(manager.Submit(victim, streams[3].samples()).ok());

  RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.faults, 1u);
  EXPECT_EQ(stats.faults_by_category[static_cast<std::size_t>(
                ErrorCategory::kInvariant)],
            1u);
  EXPECT_GT(stats.samples_dropped, 0u);
  // Containment held at the session boundary — nothing escaped to the
  // pool's last-resort catch.
  EXPECT_EQ(stats.worker_exceptions, 0u);

  // Recovery: disarm, reset, and the victim serves a fresh stream with
  // output bit-identical to a from-scratch sequential run.
  FaultInjector::Global().DisarmAll();
  manager.TakeOutput(victim);
  manager.ResetSession(victim);
  EXPECT_EQ(manager.SessionStatus(victim).state, SessionState::kIdle);
  EXPECT_TRUE(manager.Submit(victim, streams[3].samples()).ok());
  manager.Drain();
  audio::Waveform out = manager.TakeOutput(victim);
  if (auto tail = manager.Flush(victim)) out.Append(*tail);
  ExpectBitIdentical(out,
                     SequentialReference(speakers[3], 313, streams[3],
                                         core::SelectorKind::kLasMask),
                     "reset victim");
  EXPECT_EQ(manager.Stats().session_resets, 1u);
}

TEST_F(RuntimeFaultTest, ErrorPolicyDegradeStepsDownAndProbesBackUp) {
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kNeural,
                          // A probe chunk that misses the deadline does not
                          // promote; this test is about error-driven
                          // degradation, so park the deadline far above what
                          // a sanitizer-slowed neural chunk can hit.
                          .deadline_ms = 600000.0,
                          .fault = {.on_error = FaultPolicy::kDegrade,
                                    .recovery_probe_chunks = 1,
                                    .max_retries = 1}});
  const auto spk = synth::SpeakerProfile::FromSeed(204);
  const auto id =
      manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 214));
  synth::DatasetBuilder long_builder({.duration_s = 4.5});
  const audio::Waveform stream = long_builder.MakeUtterance(spk, 224).wave;

  // Chunk 1: two injected throws burn the retry then force a step down to
  // the LAS rung, where the (exhausted) injector lets it emit — one clean
  // LAS chunk, which already satisfies the probe threshold of 1. Chunk 2
  // probes the neural rung, succeeds, and promotes. Chunks 3-4 are normal
  // neural.
  FaultInjector::Global().Arm(
      "strand.chunk",
      {.kind = FaultInjector::Kind::kThrow, .key = id, .limit = 2});
  EXPECT_TRUE(manager.Submit(id, stream.samples()).ok());
  manager.Drain();

  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.faults, 0u);
  EXPECT_EQ(stats.chunk_retries, 1u);
  EXPECT_EQ(stats.degrade_steps_down, 1u);
  EXPECT_EQ(stats.degrade_steps_up, 1u);
  EXPECT_EQ(stats.chunks_processed, 4u);
  const SessionStatus status = manager.SessionStatus(id);
  EXPECT_EQ(status.state, SessionState::kIdle);
  EXPECT_EQ(status.level, DegradeLevel::kNeural);
  EXPECT_EQ(status.chunks_emitted, 4u);
  EXPECT_GT(manager.TakeOutput(id).size(), 0u);
}

TEST_F(RuntimeFaultTest, DeadlineWatchdogWalksTheLadderAndRecovers) {
  // LAS-kind session so the clean-chunk compute is far under the budget
  // even with sanitizers on: every deadline miss below is injector-driven
  // and the schedule is deterministic. Sanitizer instrumentation slows
  // the LAS probe chunk ~2-10x, so widen the budget there (same idiom as
  // StreamingTest.LatencySanity); the injected latency below must stay
  // well above the widened budget for the miss schedule to hold.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr double kBudgetMs = 1000.0;
#else
  constexpr double kBudgetMs = 150.0;
#endif
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kLasMask,
                          .deadline_ms = kBudgetMs,
                          .fault = {.degrade_on_deadline = true,
                                    .deadline_miss_threshold = 2,
                                    .recovery_probe_chunks = 2}});
  const auto spk = synth::SpeakerProfile::FromSeed(205);
  const auto id =
      manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 215));
  synth::DatasetBuilder long_builder({.duration_s = 8.0});
  const audio::Waveform stream = long_builder.MakeUtterance(spk, 225).wave;

  // Chunks 1-4 each sleep past the budget: misses 1 and 2 demote
  // LAS → silence (threshold 2); 3 and 4 miss at the floor. Chunks 5-6
  // are clean silence chunks (2 successes), so chunk 7 probes the LAS
  // rung — the injector is exhausted, the probe lands in budget, and the
  // session promotes back to its top rung for chunk 8.
  FaultInjector::Global().Arm("strand.chunk",
                              {.kind = FaultInjector::Kind::kLatency,
                               .latency_ms = kBudgetMs * 3.0,
                               .key = id,
                               .limit = 4});
  EXPECT_TRUE(manager.Submit(id, stream.samples()).ok());
  manager.Drain();

  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.faults, 0u);
  EXPECT_GE(stats.deadline_misses, 4u);
  EXPECT_EQ(stats.degrade_steps_down, 1u);
  EXPECT_EQ(stats.degrade_steps_up, 1u);
  EXPECT_EQ(stats.chunks_processed, 8u);  // cadence survives degradation
  const SessionStatus status = manager.SessionStatus(id);
  EXPECT_EQ(status.state, SessionState::kIdle);
  EXPECT_EQ(status.level, DegradeLevel::kLasFallback);  // = top for LAS
  EXPECT_GE(status.deadline_misses, 4u);
  EXPECT_EQ(status.chunks_emitted, 8u);
}

TEST_F(RuntimeFaultTest, PoisonedBatchIsBisectedAroundTheVictim) {
  constexpr std::size_t kSessions = 4;
  // The continuous batcher has no hold window, so a multi-item batch is
  // manufactured by occupying the single dispatcher: a gate session's
  // batch sleeps inside the forward (injected latency) while the four
  // test sessions' chunks pile into their lanes; the next gather then
  // takes all four in one batch (max_batch = 4) and the bisection has a
  // real multi-item batch to split.
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1,
                          .queue_capacity = 64,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kNeural,
                          .max_batch = kSessions,
                          .deadline_ms = 10000.0});
  ASSERT_TRUE(manager.batching_enabled());

  const auto gate_spk = synth::SpeakerProfile::FromSeed(399);
  const SessionManager::SessionId gate =
      manager.CreateSession(builder_.MakeReferenceAudios(gate_spk, 3, 409));
  const audio::Waveform gate_chunk =
      builder_.MakeUtterance(gate_spk, 419)
          .wave.Slice(0, manager.chunk_samples());

  std::vector<synth::SpeakerProfile> speakers;
  std::vector<SessionManager::SessionId> ids;
  std::vector<audio::Waveform> chunks;
  for (std::size_t i = 0; i < kSessions; ++i) {
    speakers.push_back(synth::SpeakerProfile::FromSeed(400 + i));
    ids.push_back(manager.CreateSession(
        builder_.MakeReferenceAudios(speakers[i], 3, 410 + i)));
    chunks.push_back(builder_.MakeUtterance(speakers[i], 420 + i)
                         .wave.Slice(0, manager.chunk_samples()));
  }
  const SessionManager::SessionId victim = ids[2];
  // Generous latency so the four enqueues land well inside the window
  // even under TSan/ASan slowdowns and suite-level ctest contention.
  FaultInjector::Global().Arm("batch.item",
                              {.kind = FaultInjector::Kind::kLatency,
                               .latency_ms = 3000.0,
                               .key = gate,
                               .limit = 1});
  FaultInjector::Global().Arm("batch.item",
                              {.kind = FaultInjector::Kind::kThrow,
                               .category = ErrorCategory::kInvariant,
                               .key = victim});

  const auto gate_start = std::chrono::steady_clock::now();
  EXPECT_TRUE(manager.Submit(gate, gate_chunk.samples()).ok());
  // AddBatch fires at RunBatch entry, before the injected sleep: once the
  // counter ticks, the sole dispatcher is pinned inside the gate batch.
  while (manager.Stats().batches_dispatched < 1) std::this_thread::yield();
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(manager.Submit(ids[i], chunks[i].samples()).ok());
  }
  manager.Drain();  // must return: the poisoned batch cannot stall FIFO
  // The gate really pinned the dispatcher: its latency spec (armed
  // beside the victim's throw on the same site) slept in the forward.
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - gate_start)
                                .count();
  EXPECT_GE(elapsed_ms, 3000.0) << "the gate latency never fired";

  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_GE(stats.batch_splits, 2u);  // 4 → 2+2 → 1+1 isolates the victim
  EXPECT_EQ(stats.faults, 1u);
  // kSessions - 1 survivors plus the gate session's chunk.
  EXPECT_EQ(stats.chunks_processed, kSessions);
  EXPECT_GE(stats.max_batch_size, kSessions);

  for (std::size_t i = 0; i < kSessions; ++i) {
    if (ids[i] == victim) continue;
    // Survivors' single chunk is bit-identical to the sequential
    // per-chunk path (no tail: the submit was exactly one chunk).
    core::NecPipeline pipeline(selector_, encoder_, {});
    pipeline.Enroll(builder_.MakeReferenceAudios(speakers[i], 3, 410 + i));
    core::StreamingProcessor seq(pipeline, 1.0,
                                 core::SelectorKind::kNeural);
    const auto want = seq.Push(chunks[i].samples());
    ASSERT_TRUE(want.has_value());
    ExpectBitIdentical(manager.TakeOutput(ids[i]), *want, "batch survivor");
  }
  const SessionStatus faulted = manager.SessionStatus(victim);
  EXPECT_EQ(faulted.state, SessionState::kFaulted);
  EXPECT_EQ(faulted.error->category, ErrorCategory::kInvariant);
  EXPECT_EQ(faulted.chunks_emitted, 0u);

  // The batcher keeps serving after the fault, and the victim recovers.
  FaultInjector::Global().DisarmAll();
  manager.ResetSession(victim);
  EXPECT_TRUE(manager.Submit(victim, chunks[2].samples()).ok());
  manager.Drain();
  EXPECT_EQ(manager.SessionStatus(victim).chunks_emitted, 1u);
  EXPECT_GT(manager.TakeOutput(victim).size(), 0u);
}

TEST_F(RuntimeFaultTest, BatchedCloseWaitsForTheLaneBeforeFlushing) {
  // A closing stream's last chunk can still sit in its batcher lane after
  // the strand has parked (state kIdle). Flush must refuse until the lane
  // is idle — otherwise the tail would be emitted ahead of that chunk, and
  // a fault on the dispatcher would shed the buffer under the flush. A
  // close waits for SessionQuiescent, as the server does; here the lane's
  // chunk faults, so the tail dies with it.
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kNeural,
                          .max_batch = 2,
                          .deadline_ms = 10000.0});
  ASSERT_TRUE(manager.batching_enabled());
  const std::size_t chunk_n = manager.chunk_samples();

  // A gate session pins the single dispatcher inside its batch, so the
  // closing session's chunk waits in its lane.
  const auto gate_spk = synth::SpeakerProfile::FromSeed(700);
  const SessionManager::SessionId gate =
      manager.CreateSession(builder_.MakeReferenceAudios(gate_spk, 3, 701));
  const auto spk = synth::SpeakerProfile::FromSeed(710);
  const SessionManager::SessionId id =
      manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 711));
  const audio::Waveform gate_chunk =
      builder_.MakeUtterance(gate_spk, 702).wave.Slice(0, chunk_n);
  const audio::Waveform stream =
      builder_.MakeUtterance(spk, 712).wave.Slice(0, chunk_n + chunk_n / 2);
  FaultInjector::Global().Arm("batch.item",
                              {.kind = FaultInjector::Kind::kLatency,
                               .latency_ms = 2000.0,
                               .key = gate,
                               .limit = 1});
  FaultInjector::Global().Arm("batch.item",
                              {.kind = FaultInjector::Kind::kThrow,
                               .category = ErrorCategory::kInvariant,
                               .key = id});

  EXPECT_TRUE(manager.Submit(gate, gate_chunk.samples()).ok());
  while (manager.Stats().batches_dispatched < 1) std::this_thread::yield();
  EXPECT_TRUE(manager.Submit(id, stream.samples()).ok());
  while (manager.SessionStatus(id).state == SessionState::kRunning) {
    std::this_thread::yield();
  }
  // Strand parked, chunk pending in the lane behind the pinned dispatcher.
  EXPECT_FALSE(manager.SessionQuiescent(id));
  EXPECT_THROW(manager.Flush(id), CheckError);

  while (!manager.SessionQuiescent(id)) std::this_thread::yield();
  EXPECT_EQ(manager.SessionStatus(id).state, SessionState::kFaulted);
  EXPECT_FALSE(manager.Flush(id).has_value());
  EXPECT_EQ(manager.TakeOutput(id).size(), 0u);
  // The fault shed the buffered half-chunk tail.
  EXPECT_EQ(manager.Stats().samples_dropped, chunk_n / 2);
  manager.Drain();
  EXPECT_EQ(manager.SessionStatus(gate).chunks_emitted, 1u);
}

// -------------------------------------- ContinuousBatcher purge-under-fault

TEST(ContinuousBatcherFaults, PurgedSessionNeitherStallsNorReordersSurvivors) {
  // Two sessions' chunks interleave across lanes while the sole dispatch
  // thread is parked inside a gate batch; purging one session must leave
  // the survivor's items dispatching in FIFO order with no stall. Chunk
  // sizes encode identity + sequence.
  std::vector<std::pair<void*, std::size_t>> completed;
  std::mutex mu;
  std::condition_variable cv;
  bool gate_open = false;
  int gate_marker = 0;
  int a_marker = 0;
  int b_marker = 0;
  ContinuousBatcher batcher(
      {.max_batch = 8, .workers = 1},
      [&](std::vector<ContinuousBatcher::Item>&& items) {
        std::unique_lock lock(mu);
        for (const auto& it : items) {
          completed.emplace_back(it.key, it.chunk.size());
        }
        cv.notify_all();
        cv.wait(lock, [&] { return gate_open; });
      });

  // Pin the dispatcher: its batch {gate} records, then parks in the gate.
  batcher.Enqueue(&gate_marker, audio::Waveform(1000, std::size_t{1}));
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return !completed.empty(); });
  }
  batcher.Enqueue(&a_marker, audio::Waveform(1000, std::size_t{10}));
  batcher.Enqueue(&b_marker, audio::Waveform(1000, std::size_t{11}));
  batcher.Enqueue(&a_marker, audio::Waveform(1000, std::size_t{20}));
  batcher.Enqueue(&b_marker, audio::Waveform(1000, std::size_t{21}));
  batcher.Enqueue(&a_marker, audio::Waveform(1000, std::size_t{30}));
  // Session A faults while its chunks sit in its lane: purge all three.
  EXPECT_EQ(batcher.Purge(&a_marker), 3u);
  EXPECT_EQ(batcher.pending_for(&a_marker), 0u);
  EXPECT_EQ(batcher.pending_for(&b_marker), 2u);

  {
    std::lock_guard lock(mu);
    gate_open = true;
  }
  cv.notify_all();
  batcher.Drain();  // must not hang on the purged items
  {
    std::lock_guard lock(mu);
    const std::vector<std::pair<void*, std::size_t>> want = {
        {&gate_marker, std::size_t{1}},
        {&b_marker, std::size_t{11}},
        {&b_marker, std::size_t{21}}};
    EXPECT_EQ(completed, want);
  }

  // Purging everything while nothing is pending is a harmless no-op.
  EXPECT_EQ(batcher.Purge(&b_marker), 0u);
  batcher.Shutdown();
}

}  // namespace
}  // namespace nec::runtime
